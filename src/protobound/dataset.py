"""Training-set ingestion, validation, synthetic data, and the distance kernel.

A dataset is an immutable, ordered list of labeled points in R^d. The class
alphabet is derived from the data: labels in order of first appearance.
Entries with identical coordinates but different labels are rejected at
construction time because every consumer downstream assumes the nearest
neighbor of a training point with distance zero has that point's own label.
Coordinates whose squared distances could leave float64 are rejected too, so
every two distinct points have a squared distance d2 with 0 < d2 < inf.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_LABEL_COLUMN = "label"
# Two distinct coordinates of at least this magnitude (or zero) differ by at
# least 2^-534, whose square 2^-1068 is still a positive float; below it,
# distinct coordinates can have a squared difference of 0.0.
MIN_COORD_MAGNITUDE = 2.0**-482
# Batched distance passes split their queries into blocks of at most this
# many elements (at least one query per block), so their memory stays flat.
BLOCK_ELEMENTS = 2**14


# numpy's sum adds fewer than this many terms left to right and more in
# pairwise blocks; `sq_dists_to` and the coordinate layout follow it.
_PAIRWISE_MIN_DIM = 8


def _coord_buffer(n: int, d: int) -> np.ndarray:
    """An uninitialised (n, d) float64 coordinate matrix in the layout
    `sq_dists_to` reads: feature-major (Fortran order) below 8 coordinates,
    row-major from 8 on. Every coordinate matrix the package owns is
    allocated here."""
    order = "F" if d < _PAIRWISE_MIN_DIM else "C"
    return np.empty((n, d), dtype=np.float64, order=order)


def _doubled(buf: np.ndarray) -> np.ndarray:
    """A copy of `buf` in a buffer with twice as many rows; a coordinate
    matrix keeps `_coord_buffer`'s layout."""
    if buf.ndim == 2:
        grown = _coord_buffer(2 * len(buf), buf.shape[1])
    else:
        grown = np.empty(2 * len(buf), dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


def _take_rows(coords: np.ndarray, idx) -> np.ndarray:
    """`coords[idx]` for an index array `idx`, in the layout `_coord_buffer`
    gives; plain fancy indexing would return rows."""
    if coords.shape[1] < _PAIRWISE_MIN_DIM:
        return np.take(coords.T, idx, axis=1).T
    return coords[idx]


def sq_dists_to(coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each row of `coords` to `x`; for `x`
    of shape (q, d), one such row per query, shape (q, len(coords)).

    This is the single distance kernel for the whole package; everything that
    must agree bit-for-bit on distances routes through it. The result equals
    `np.sum(diff * diff, axis=-1)` over C-contiguous copies bit for bit, for
    `coords` and `x` in any layout. Below 8 coordinates numpy adds them left
    to right, which a sum of squared columns does: one pass per coordinate,
    contiguous when `coords` is feature-major (`_coord_buffer`), with no
    (q, n, d) temporary. From 8 on, numpy's pairwise order applies only over
    contiguous rows (over a strided last axis `np.sum` adds left to right),
    so `diff` is formed in C order whatever the caller's layout, and squared
    in place.
    """
    x = np.asarray(x)
    d = coords.shape[-1]
    if d >= _PAIRWISE_MIN_DIM:
        diff = coords - x[..., None, :]
        if not diff.flags.c_contiguous:
            diff = np.ascontiguousarray(diff)
        return np.sum(np.multiply(diff, diff, out=diff), axis=-1)
    out = coords[:, 0] - x[..., 0, None]
    np.multiply(out, out, out=out)
    for j in range(1, d):
        sq = coords[:, j] - x[..., j, None]
        out += np.multiply(sq, sq, out=sq)
    return out


def _query_blocks(n_queries: int, per_query: int) -> Iterator[slice]:
    """Consecutive slices of range(n_queries) that hold at most
    BLOCK_ELEMENTS elements at `per_query` elements a query, and at least
    one query each."""
    step = max(1, BLOCK_ELEMENTS // max(1, per_query))
    for start in range(0, n_queries, step):
        yield slice(start, min(start + step, n_queries))


def _stream_block_size(n: int, d: int, limit: int) -> int:
    """The largest q >= 1, and at most `limit`, with q * (n + q) * d <=
    BLOCK_ELEMENTS: a block of q queries scored against n points and against
    itself then forms at most BLOCK_ELEMENTS elements of differences."""
    # q * (n + q) <= m  <=>  (2q + n)^2 <= n^2 + 4m  <=>  2q + n <= isqrt(...)
    m = BLOCK_ELEMENTS // d
    q = (math.isqrt(n * n + 4 * m) - n) // 2
    return max(1, min(q, limit))


def _distance_row_blocks(coords: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(block, `sq_dists_to(coords, coords[block])`) over consecutive query
    blocks of every point in `coords`; row r of a block's matrix is query
    block.start + r, the very floats a single-row call gives."""
    for block in _query_blocks(len(coords), coords.size):
        yield block, sq_dists_to(coords, coords[block])


def pairwise_sq_dists(coords: np.ndarray) -> np.ndarray:
    """The n x n matrix whose row q is `sq_dists_to(coords, coords[q])`."""
    out = np.empty((len(coords), len(coords)), dtype=np.float64)
    for block, rows in _distance_row_blocks(coords):
        out[block] = rows
    return out


class DatasetError(Exception):
    """Invalid training data or an unreadable input file."""


class ConflictingDuplicateError(DatasetError):
    """Two entries share exact coordinates but disagree on the label."""

    def __init__(self, message: str, first: int, second: int):
        super().__init__(message)
        self.first = first
        self.second = second


@dataclass(frozen=True)
class LabeledPoint:
    """A point in R^d with a class label. Coordinates must be finite."""

    coords: tuple[float, ...]
    label: str

    def __post_init__(self) -> None:
        coords = tuple(float(v) for v in self.coords)
        if not coords:
            raise DatasetError("a point needs at least one coordinate")
        for v in coords:
            if not math.isfinite(v):
                raise DatasetError(f"non-finite coordinate in point {coords!r}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "label", str(self.label))


def _check_box(lo, hi) -> None:
    """Refuse a bounding box, given by its per-coordinate minima `lo` and
    maxima `hi`, whose corner-to-corner squared distance overflows.

    Every pair of points in the box differs by at most its span in each
    coordinate, and rounding is monotone, so no squared distance exceeds the
    one `sq_dists_to` computes between the corners; if that is finite, all
    are.
    """
    with np.errstate(over="ignore"):
        corners = sq_dists_to(np.asarray(lo, dtype=np.float64)[None], hi)
    if not np.isfinite(corners[0]):
        raise DatasetError(
            "coordinates span too wide a range: the squared diameter of "
            "their bounding box overflows float64"
        )


def _tiny_coordinate_error(value: float) -> DatasetError:
    """The refusal of a nonzero coordinate below MIN_COORD_MAGNITUDE, below
    which distinct points can have a squared distance of 0.0."""
    return DatasetError(
        f"coordinate {float(value)!r} is nonzero but below 2^-482 (about "
        f"{MIN_COORD_MAGNITUDE:.1e}) in magnitude: squared distances between "
        f"such points can underflow to 0.0"
    )


def _check_range(coords: np.ndarray) -> None:
    """Refuse coordinates whose squared distances could leave float64: a
    bounding box `_check_box` refuses, or a nonzero coordinate below
    MIN_COORD_MAGNITUDE. Every two distinct accepted points then have a
    squared distance d2 with 0 < d2 < inf. O(n d).
    """
    # per-coordinate min and max: numpy reduces contiguous rows far faster,
    # and feature-major coordinates are already columns
    columns = np.ascontiguousarray(coords.T)
    _check_box(columns.min(axis=1), columns.max(axis=1))
    magnitudes = np.abs(coords)
    tiny = (magnitudes > 0.0) & (magnitudes < MIN_COORD_MAGNITUDE)
    if tiny.any():
        raise _tiny_coordinate_error(coords[tiny][0])


class _RangeGuard:
    """`_check_range` for points that arrive one at a time: each point costs
    O(d) plain Python, and a numpy call only when it widens the running
    bounding box."""

    def __init__(self) -> None:
        self._lo: list[float] | None = None
        self._hi: list[float] = []

    def check(self, coords: tuple[float, ...]) -> None:
        """Admit `coords` to the box, or raise DatasetError as `Dataset`
        would for a set holding it and every point admitted before."""
        if self._lo is None:
            self._lo, self._hi = list(coords), list(coords)
        widened = False
        for j, v in enumerate(coords):
            if 0.0 < abs(v) < MIN_COORD_MAGNITUDE:
                raise _tiny_coordinate_error(v)
            if v < self._lo[j]:
                self._lo[j] = v
                widened = True
            elif v > self._hi[j]:
                self._hi[j] = v
                widened = True
        if widened:
            _check_box(self._lo, self._hi)


class Dataset:
    """Immutable training set with a deterministic class alphabet: labels in
    order of first appearance in the point list."""

    def __init__(
        self,
        points: Iterable[LabeledPoint | tuple],
        feature_names: Sequence[str] | None = None,
        label_name: str = DEFAULT_LABEL_COLUMN,
    ):
        pts = tuple(
            p if isinstance(p, LabeledPoint) else LabeledPoint(tuple(p[0]), p[1])
            for p in points
        )
        if not pts:
            raise DatasetError("dataset needs at least one point")
        dim = len(pts[0].coords)
        for i, p in enumerate(pts):
            if len(p.coords) != dim:
                raise DatasetError(
                    f"point {i} has dimension {len(p.coords)}, expected {dim}"
                )
        seen: dict[tuple[float, ...], tuple[int, str]] = {}
        for i, p in enumerate(pts):
            prev = seen.get(p.coords)
            if prev is None:
                seen[p.coords] = (i, p.label)
            elif prev[1] != p.label:
                raise ConflictingDuplicateError(
                    f"points {prev[0]} and {i} share coordinates {p.coords!r} "
                    f"but have labels {prev[1]!r} and {p.label!r}",
                    prev[0],
                    i,
                )
        classes: list[str] = []
        for p in pts:
            if p.label not in classes:
                classes.append(p.label)

        if feature_names is not None:
            feature_names = tuple(str(f) for f in feature_names)
            if len(feature_names) != dim:
                raise DatasetError(
                    f"{len(feature_names)} feature names for dimension {dim}"
                )
        else:
            feature_names = tuple(f"x{j}" for j in range(dim))

        self._points = pts
        self._classes = tuple(classes)
        self._class_code = {c: k for k, c in enumerate(classes)}
        self._dim = dim
        self._feature_names = feature_names
        self._label_name = str(label_name)
        coords = _coord_buffer(len(pts), dim)
        coords[:] = [p.coords for p in pts]
        _check_range(coords)
        coords.flags.writeable = False
        self._coords = coords
        codes = np.array([self._class_code[p.label] for p in pts], dtype=np.int64)
        codes.flags.writeable = False
        self._label_codes = codes
        others = np.arange(len(classes) - 1)
        # the j-th wrong class skips the point's own class
        wrong = others + (others >= codes[:, None])
        wrong.flags.writeable = False
        self._wrong_codes = wrong
        self._nearest_sq_dists: np.ndarray | None = None

    @property
    def points(self) -> tuple[LabeledPoint, ...]:
        return self._points

    @property
    def classes(self) -> tuple[str, ...]:
        return self._classes

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, d) float64 coordinate matrix, in point order.

        Below 8 coordinates it is stored column by column (Fortran order),
        so each coordinate is one contiguous pass of `sq_dists_to`; from 8
        on, row by row. Shape, values and indexing are the same either way.
        """
        return self._coords

    @property
    def label_codes(self) -> np.ndarray:
        """Read-only (n,) array of class-alphabet positions, in point order."""
        return self._label_codes

    @property
    def wrong_codes(self) -> np.ndarray:
        """Read-only (n, |C| - 1) int64 array: row i holds the alphabet
        positions of every class but point i's own, ascending. These are the
        channels an update on point i may subtract."""
        return self._wrong_codes

    @property
    def nearest_sq_dists(self) -> np.ndarray:
        """Read-only (n,) squared distance from each point to its nearest
        other point (inf for a one-point set). Found on the first read, one
        query block of `pairwise_sq_dists` rows at a time so no n x n array
        is held, and kept: the dataset is immutable."""
        if self._nearest_sq_dists is None:
            nearest = np.empty(len(self._coords))
            for block, rows in _distance_row_blocks(self._coords):
                queries = np.arange(block.start, block.stop)
                rows[queries - block.start, queries] = np.inf
                nearest[block] = rows.min(axis=1)
            nearest.flags.writeable = False
            self._nearest_sq_dists = nearest
        return self._nearest_sq_dists

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._feature_names

    @property
    def label_name(self) -> str:
        return self._label_name

    def class_code(self, label: str) -> int:
        return self._class_code[label]

    def diameter(self) -> float:
        """Largest pairwise Euclidean distance."""
        return math.sqrt(
            max(float(rows.max()) for _, rows in _distance_row_blocks(self._coords))
        )

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[LabeledPoint]:
        return iter(self._points)

    def __getitem__(self, i: int) -> LabeledPoint:
        return self._points[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return (
            f"Dataset(n={len(self)}, dim={self._dim}, "
            f"classes={list(self._classes)!r})"
        )


def load_csv(path: str | Path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Load a dataset from a comma-separated UTF-8 file, BOM or not, with a header row.

    All columns except `label_column` are parsed as float features, in file
    order. Parse failures report the 1-based data row and the column name.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            if label_column not in header:
                raise DatasetError(
                    f"{path}: no {label_column!r} column in header {header!r}"
                )
            label_pos = header.index(label_column)
            feature_cols = [
                (j, name) for j, name in enumerate(header) if j != label_pos
            ]
            if not feature_cols:
                raise DatasetError(f"{path}: no feature columns besides the label")
            points: list[LabeledPoint] = []
            for row_no, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DatasetError(
                        f"{path}: row {row_no} has {len(row)} cells, "
                        f"expected {len(header)}"
                    )
                coords = []
                for j, name in feature_cols:
                    cell = row[j].strip()
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DatasetError(
                            f"{path}: row {row_no}, column {name!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
                    if not math.isfinite(v):
                        raise DatasetError(
                            f"{path}: row {row_no}, column {name!r}: "
                            f"non-finite value {cell!r}"
                        )
                    coords.append(v)
                points.append(LabeledPoint(tuple(coords), row[label_pos].strip()))
    except OSError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    if not points:
        raise DatasetError(f"{path}: no data rows")
    try:
        return Dataset(
            points,
            feature_names=[name for _, name in feature_cols],
            label_name=label_column,
        )
    except ConflictingDuplicateError as exc:
        # Re-key the constructor's 0-based point indices as 1-based file rows.
        raise ConflictingDuplicateError(
            f"{path}: rows {exc.first + 1} and {exc.second + 1} have identical "
            f"coordinates but different labels",
            exc.first + 1,
            exc.second + 1,
        ) from None
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset so that `load_csv` round-trips to an equal Dataset."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.label_name])
        for p in dataset:
            writer.writerow([repr(v) for v in p.coords] + [p.label])


def _validated_centers(
    centers: Sequence[tuple[Sequence[float], str]],
) -> list[tuple[np.ndarray, str]]:
    if not centers:
        raise DatasetError("at least one center is required")
    out = []
    dim = None
    for c, label in centers:
        arr = np.asarray(c, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise DatasetError(f"invalid center coordinates {c!r}")
        if dim is None:
            dim = arr.size
        elif arr.size != dim:
            raise DatasetError("centers must share a dimension")
        out.append((arr, str(label)))
    return out


def generate_blobs(
    seed: int,
    n_per_class: int,
    centers: Sequence[tuple[Sequence[float], str]],
    spread: float,
) -> Dataset:
    """Sample isotropic Gaussian blobs around labeled centers.

    Deterministic for a fixed seed. In the measure-zero event that two blobs
    emit the exact same coordinates with different labels, the later point is
    resampled so the result is always a valid Dataset.
    """
    if n_per_class < 1:
        raise DatasetError("n_per_class must be at least 1")
    if not (spread > 0 and math.isfinite(spread)):
        raise DatasetError(f"spread must be positive and finite, got {spread!r}")
    centers = _validated_centers(centers)
    rng = np.random.default_rng(seed)
    points: list[LabeledPoint] = []
    taken: dict[tuple[float, ...], str] = {}
    for center, label in centers:
        for _ in range(n_per_class):
            for _attempt in range(100):
                coords = tuple(
                    float(v) for v in center + spread * rng.standard_normal(center.size)
                )
                if taken.get(coords, label) == label:
                    break
            else:  # pragma: no cover - needs 100 exact collisions in a row
                raise DatasetError("could not resample a conflicting duplicate")
            taken[coords] = label
            points.append(LabeledPoint(coords, label))
    return Dataset(points)


def blob_stream(
    seed: int,
    centers: Sequence[tuple[Sequence[float], str]],
    spread: float,
) -> Iterator[LabeledPoint]:
    """Endless stream of draws from a mixture of labeled Gaussian blobs.

    Each item picks a center uniformly at random, then adds isotropic noise.
    Deterministic for a fixed seed. The arithmetic is done in Python floats,
    one multiply and one add per coordinate as numpy's `center + spread * z`
    does them, so the items are those of the array expression bit for bit.
    The spread and centers are checked by the call itself, before any item
    is pulled.
    """
    if not (spread > 0 and math.isfinite(spread)):
        raise DatasetError(f"spread must be positive and finite, got {spread!r}")
    spread = float(spread)
    validated = [(c.tolist(), label) for c, label in _validated_centers(centers)]
    dim = len(validated[0][0])

    def items() -> Iterator[LabeledPoint]:
        rng = np.random.default_rng(seed)
        while True:
            center, label = validated[int(rng.integers(len(validated)))]
            noise = rng.standard_normal(dim).tolist()
            yield LabeledPoint(
                tuple([c + spread * z for c, z in zip(center, noise)]), label
            )

    return items()


_CLASS_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H")
# Random coordinates and fuzzed blob centers are uniform in this interval.
_BOX = (-10.0, 10.0)
_FUZZ_MIN_POINTS = 2


def random_dataset(seed: int, n_points: int, dim: int, n_classes: int) -> Dataset:
    """Uniform random points with random labels; every class appears.

    Intended for fuzzing. Coordinates are continuous uniforms, so duplicate
    coordinates (and hence conflicts) have probability zero; the constructor
    still enforces validity.
    """
    if n_points < 1 or dim < 1 or n_classes < 1:
        raise DatasetError("n_points, dim, and n_classes must be positive")
    n_classes = min(n_classes, n_points, len(_CLASS_NAMES))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_classes, size=n_points)
    # Guarantee every class shows up at least once.
    slots = rng.choice(n_points, size=n_classes, replace=False)
    codes[slots] = rng.permutation(n_classes)
    coords = rng.uniform(*_BOX, size=(n_points, dim))
    points = [
        LabeledPoint(tuple(float(v) for v in coords[i]), _CLASS_NAMES[codes[i]])
        for i in range(n_points)
    ]
    return Dataset(points)


def fuzz_dataset(
    seed: int,
    max_n: int = 30,
    max_dim: int = 3,
    max_classes: int = 3,
) -> Dataset:
    """Random dataset with seed-derived size (from _FUZZ_MIN_POINTS up to
    `max_n`), dimension, and shape.

    Mixes uniformly scattered labels with blob-structured data so fuzz runs
    cover both noisy and separable regimes.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(_FUZZ_MIN_POINTS, max_n + 1))
    d = int(rng.integers(1, max_dim + 1))
    k = min(int(rng.integers(2, max_classes + 1)), n)
    child = int(rng.integers(2**63))
    if rng.random() < 0.5:
        return random_dataset(child, n, d, k)
    centers = [(rng.uniform(*_BOX, size=d), _CLASS_NAMES[i]) for i in range(k)]
    spread = float(rng.uniform(0.2, 2.0))
    return generate_blobs(child, max(1, n // k), centers, spread)
