"""Training-set ingestion, validation, synthetic data, and the distance kernel.

A dataset is an immutable, ordered sequence of labeled points in R^d, held as
arrays alone: a feature-major coordinate matrix, one class code per point
and the class alphabet, derived from the data as the labels in order of
first appearance. A `LabeledPoint` is made only when one is handed out, by
indexing or iteration. Entries with identical coordinates but different
labels are rejected at construction time because every consumer downstream
assumes the nearest neighbor of a training point with distance zero has that
point's own label.
Coordinates whose squared distances could leave float64 are rejected too, so
every two distinct points have a squared distance d2 with 0 < d2 < inf.
"""

from __future__ import annotations

import csv
import math
import numbers
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
# Against n points a query counts n elements, its result row (`_row_blocks`).
BLOCK_ELEMENTS = 2**14


def _coord_buffer(n: int, d: int) -> np.ndarray:
    """An uninitialised (n, d) float64 coordinate matrix in the layout
    `sq_dists_to` reads: feature-major (Fortran order), so each coordinate
    is one contiguous column. Every coordinate matrix the package owns is
    allocated here, or grown from one by `_grown`."""
    return np.empty((n, d), dtype=np.float64, order="F")


def _grown(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A copy of `buf` in the leading corner of an uninitialised buffer of
    `shape`, in `buf`'s dtype and layout, so a coordinate matrix keeps
    `_coord_buffer`'s: the package's one way to grow a buffer."""
    grown = np.empty_like(buf, shape=shape)
    grown[tuple(map(slice, buf.shape))] = buf
    return grown


def _take_rows(coords: np.ndarray, idx) -> np.ndarray:
    """`coords[idx]` for an index array `idx`, feature-major as
    `_coord_buffer` gives; plain fancy indexing would return rows."""
    return np.take(coords.T, idx, axis=1).T


def sq_dists_to(
    coords: np.ndarray, x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distance from each row of `coords` to `x`; for `x`
    of shape (q, d), one such row per query, shape (q, len(coords)).

    This is the single distance kernel for the whole package; everything that
    must agree bit for bit on distances routes through it. It adds the
    squared coordinate differences left to right, one column of `coords` at
    a time, so each float follows from IEEE arithmetic alone, for `coords`
    and `x` in any layout. Each column is one contiguous pass when `coords`
    is feature-major (`_coord_buffer`), and the pass holds one column
    temporary besides the result, never a (q, n, d) block. A query whose
    last axis is not d long raises ValueError.

    With `out`, a C-contiguous float64 array of the result's shape, the
    result is written there, with the same floats, and `out` is returned:
    a loop that scores one query block after another can keep its rows in
    one buffer it allocates once.
    """
    x = np.asarray(x)
    d = coords.shape[-1]
    if x.shape[-1] != d:
        raise ValueError(f"query has {x.shape[-1]} coordinates, expected {d}")
    out = np.subtract(coords[:, 0], x[..., 0, None], out=out)
    np.multiply(out, out, out=out)
    sq = None  # the column temporary, made by the first column past 0
    for j in range(1, d):
        sq = np.subtract(coords[:, j], x[..., j, None], out=sq)
        out += np.multiply(sq, sq, out=sq)
    return out


def _stream_block_size(n: int, limit: int) -> int:
    """The largest q >= 1, and at most `limit`, with q * (n + q) <=
    BLOCK_ELEMENTS: the distances a block of q queries holds against n
    points and against itself, counted as `_row_blocks` counts its rows."""
    # q * (n + q) <= m  <=>  (2q + n)^2 <= n^2 + 4m  <=>  2q + n <= isqrt(...)
    q = (math.isqrt(n * n + 4 * BLOCK_ELEMENTS) - n) // 2
    return max(1, min(q, limit))


def _row_blocks(
    coords: np.ndarray, queries: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """(block, `sq_dists_to(coords, queries[block])`) over consecutive
    slices of `queries` that count at most BLOCK_ELEMENTS elements each, a
    query counting its result row of len(coords), and at least one query;
    row r of a block's matrix is query block.start + r, the very floats a
    single-row call gives. Every block's matrix is a leading slice of one
    buffer, so its rows are valid until the next block is drawn, and the
    caller may overwrite them. Every batched pass over a query set cuts its
    blocks here; only online condensation, which must size a block before
    pulling its items, uses `_stream_block_size`."""
    n = len(coords)
    step = max(1, BLOCK_ELEMENTS // max(1, n))
    rows = np.empty((min(step, len(queries)), n))
    for start in range(0, len(queries), step):
        block = slice(start, min(start + step, len(queries)))
        out = rows[: block.stop - start]
        yield block, sq_dists_to(coords, queries[block], out=out)


def _distance_row_blocks(coords: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """`_row_blocks` of every point in `coords` against them all: the rows
    of the all-pairs pass, valid until the next block is drawn."""
    return _row_blocks(coords, coords)


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
    """A point in R^d with a class label. Coordinates must be finite.

    A `Dataset` holds no such objects: it makes one from its arrays each
    time a point is indexed or iterated. `blob_stream` yields them."""

    coords: tuple[float, ...]
    label: str

    def __post_init__(self) -> None:
        coords = tuple(map(float, self.coords))
        if not coords:
            raise DatasetError("a point needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
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
    # per-coordinate min and max over the contiguous rows of the
    # feature-major coordinates' transpose, which numpy reduces far faster
    columns = coords.T
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


def _first_conflict(coords: np.ndarray, codes: np.ndarray) -> tuple[int, int] | None:
    """The first pair (first, second) of points with equal coordinates and
    different codes, in point order: `second` is the smallest index whose
    code differs from that of the first point with its coordinates, `first`.
    None if there is none.

    One stable lexsort groups equal rows with their smallest index first.
    Rows compare by value, so -0.0 equals 0.0 as in a dict of coordinate
    tuples; numpy's `unique(axis=0)` compares bytes and would split them.
    """
    order = np.lexsort(coords.T)
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for column in coords.T:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    first = order[starts][np.cumsum(starts) - 1]
    clash = codes[order] != codes[first]
    if not clash.any():
        return None
    k = int(order[clash].argmin())
    return int(first[clash][k]), int(order[clash][k])


class Dataset:
    """Immutable training set with a deterministic class alphabet: labels in
    order of first appearance in the point list.

    It is held as arrays alone: the coordinate matrix, one class code per
    point and the alphabet. Indexing and iteration make each `LabeledPoint`
    from them when it is handed out, so two reads of a point give equal,
    not identical, objects.
    """

    def __init__(
        self,
        points: Iterable[LabeledPoint | tuple],
        feature_names: Sequence[str] | None = None,
        label_name: str = DEFAULT_LABEL_COLUMN,
    ):
        pts = [
            p if isinstance(p, LabeledPoint) else LabeledPoint(tuple(p[0]), p[1])
            for p in points
        ]
        if not pts:
            raise DatasetError("dataset needs at least one point")
        dim = len(pts[0].coords)
        for i, p in enumerate(pts):
            if len(p.coords) != dim:
                raise DatasetError(
                    f"point {i} has dimension {len(p.coords)}, expected {dim}"
                )
        coords = _coord_buffer(len(pts), dim)
        coords[:] = [p.coords for p in pts]
        alphabet: dict[str, int] = {}
        codes = [alphabet.setdefault(p.label, len(alphabet)) for p in pts]
        self._hold(coords, np.array(codes, dtype=np.int64), tuple(alphabet),
                   feature_names, label_name)

    @classmethod
    def _from_arrays(
        cls,
        coords: np.ndarray,
        codes: np.ndarray,
        names: Sequence[str],
        feature_names: Sequence[str] | None = None,
        label_name: str = DEFAULT_LABEL_COLUMN,
    ) -> Dataset:
        """The dataset whose point i has row i of `coords` and the label
        names[codes[i]]: how the loaders and generators build one, through
        the checks of the public constructor (`_hold`)."""
        dataset = cls.__new__(cls)
        dataset._hold(coords, codes, names, feature_names, label_name)
        return dataset

    def _hold(self, coords, codes, names, feature_names, label_name) -> None:
        """Check and keep the points: `coords`, a filled `_coord_buffer` of
        at least one row, which is kept and made read-only, and the labels
        names[codes[i]], `names` distinct. Every dataset is made here, so
        every one is refused alike: a non-finite coordinate, two points
        with equal coordinates and different labels, a feature name count
        that is not the dimension, or a range `_check_range` refuses."""
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            row = tuple(coords[int(finite.argmin())].tolist())
            raise DatasetError(f"non-finite coordinate in point {row!r}")
        # the alphabet in order of first appearance, the codes renumbered to it
        present, first_seen = np.unique(codes, return_index=True)
        alphabet = present[np.argsort(first_seen)]
        rank = np.empty(len(names), dtype=np.int64)
        rank[alphabet] = np.arange(len(alphabet))
        codes = rank[codes]
        classes = tuple(names[c] for c in alphabet.tolist())
        conflict = _first_conflict(coords, codes)
        if conflict is not None:
            first, second = conflict
            raise ConflictingDuplicateError(
                f"points {first} and {second} share coordinates "
                f"{tuple(coords[second].tolist())!r} but have labels "
                f"{classes[codes[first]]!r} and {classes[codes[second]]!r}",
                first,
                second,
            )
        dim = coords.shape[1]
        if feature_names is not None:
            feature_names = tuple(str(f) for f in feature_names)
            if len(feature_names) != dim:
                raise DatasetError(
                    f"{len(feature_names)} feature names for dimension {dim}"
                )
        else:
            feature_names = tuple(f"x{j}" for j in range(dim))
        _check_range(coords)

        self._classes = classes
        self._class_code = {c: k for k, c in enumerate(classes)}
        self._feature_names = feature_names
        self._label_name = str(label_name)
        coords.flags.writeable = False
        self._coords = coords
        codes.flags.writeable = False
        self._label_codes = codes
        others = np.arange(len(classes) - 1)
        # the j-th wrong class skips the point's own class
        wrong = others + (others >= codes[:, None])
        wrong.flags.writeable = False
        self._wrong_codes = wrong
        # the all-pairs pass's results (`_all_pairs`)
        self._nearest_sq_dists: np.ndarray | None = None
        self._max_sq_dist: float | None = None
        self._gap: float | tuple[int, int, int] | None = None

    @property
    def classes(self) -> tuple[str, ...]:
        return self._classes

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, d) float64 coordinate matrix, in point order.

        It is stored column by column (Fortran order), so each coordinate is
        one contiguous pass of `sq_dists_to`.
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
        other point (inf for a one-point set). Found by the dataset's
        all-pairs pass (`_all_pairs`), without sorting unless `_squared_gap`
        ran first, and kept: the dataset is immutable."""
        if self._nearest_sq_dists is None:
            self._all_pairs(sort=False)
        return self._nearest_sq_dists

    def _squared_gap(self) -> float | tuple[int, int, int]:
        """The smallest gap between two consecutive sorted squared distances
        in any point's row, or the first row's first exact tie as (query,
        first, second), the tied points in stable-argsort order of the row;
        `neighborly.min_squared_gap` reads it. Needs two points. Found by the
        sorting all-pairs pass, which also gives `nearest_sq_dists` and
        `diameter`, and kept."""
        if self._gap is None:
            self._all_pairs(sort=True)
        return self._gap

    def _all_pairs(self, sort: bool) -> None:
        """The package's one loop over all n^2 squared distances, one query
        block of `sq_dists_to` rows (`_distance_row_blocks`) at a time, so no
        n x n array is held. It keeps each point's nearest other distance and
        the largest distance. With `sort` it sorts each row, reads the
        nearest distance at position 1, behind the query's exact 0.0
        self-distance, and the largest at the end, and keeps the gap or first
        tie `_squared_gap` returns. Rows past a tie are still read, unsorted,
        so the distances are whole. A nearest array already handed out is
        kept, not replaced: every row gives the same floats sorted or not."""
        coords = self._coords
        nearest = np.empty(len(coords))
        largest = 0.0
        gap: float | tuple[int, int, int] = math.inf
        for block, rows in _distance_row_blocks(coords):
            if not sort or isinstance(gap, tuple):
                largest = max(largest, float(rows.max()))
                queries = np.arange(block.start, block.stop)
                rows[queries - block.start, queries] = np.inf
                nearest[block] = rows.min(axis=1)
                continue
            rows.sort(axis=1)
            nearest[block] = rows[:, 1]
            largest = max(largest, float(rows[:, -1].max()))
            # the consecutive differences overwrite the sorted rows in the
            # block buffer, as a second block-sized buffer would raise the
            # pass's peak memory; numpy reads the overlapping operand from a
            # transient copy
            diffs = np.subtract(rows[:, 1:], rows[:, :-1], out=rows[:, 1:])
            smallest = float(diffs.min())
            if smallest == 0.0:  # sorted rows have no negative gaps
                # only a tie needs its row unsorted, to name the tied points
                r = int(np.flatnonzero(~diffs.all(axis=1))[0])
                t = int(np.flatnonzero(diffs[r] == 0.0)[0])
                q = block.start + r
                order = np.argsort(sq_dists_to(coords, coords[q]), kind="stable")
                gap = (q, int(order[t]), int(order[t + 1]))
            else:
                gap = min(gap, smallest)
        if self._nearest_sq_dists is None:
            nearest.flags.writeable = False
            self._nearest_sq_dists = nearest
        self._max_sq_dist = largest
        if sort:
            self._gap = gap

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._feature_names

    @property
    def label_name(self) -> str:
        return self._label_name

    def class_code(self, label: str) -> int:
        return self._class_code[label]

    def diameter(self) -> float:
        """Largest pairwise Euclidean distance (0.0 for a one-point set),
        from the dataset's all-pairs pass (`_all_pairs`): free once
        `nearest_sq_dists` or `_squared_gap` has been read."""
        if self._max_sq_dist is None:
            self._all_pairs(sort=False)
        return math.sqrt(self._max_sq_dist)

    def __len__(self) -> int:
        return len(self._label_codes)

    def __iter__(self) -> Iterator[LabeledPoint]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int | slice) -> LabeledPoint | tuple[LabeledPoint, ...]:
        """Point i as a new `LabeledPoint`, or a tuple of them for a slice;
        indices behave as on a tuple of the points."""
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return tuple(map(self.__getitem__, picked))
        return LabeledPoint(
            tuple(self._coords[picked].tolist()),
            self._classes[self._label_codes[picked]],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._classes == other._classes
            and np.array_equal(self._label_codes, other._label_codes)
            and np.array_equal(self._coords, other._coords)
        )

    def __hash__(self) -> int:
        # adding 0.0 folds -0.0 into 0.0, which compare equal
        folded = self._coords + 0.0
        return hash((self._classes, self._label_codes.tobytes(), folded.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Dataset(n={len(self)}, dim={self.dim}, "
            f"classes={list(self._classes)!r})"
        )


def load_csv(path: str | Path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Load a dataset from a comma-separated UTF-8 file, BOM or not, with a header row.

    All columns except `label_column` are parsed as float features, in file
    order. Parse failures report the 1-based data row and the column name, a
    cell the CSV reader refuses its file line. A byte that is not UTF-8 is
    named without a line, as the file is decoded in chunks.
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
            if header.count(label_column) > 1:
                raise DatasetError(
                    f"{path}: header {header!r} names the label column "
                    f"{label_column!r} more than once"
                )
            label_pos = header.index(label_column)
            feature_cols = [
                (j, name) for j, name in enumerate(header) if j != label_pos
            ]
            if not feature_cols:
                raise DatasetError(f"{path}: no feature columns besides the label")
            codes: list[int] = []
            alphabet: dict[str, int] = {}

            def parsed_rows() -> Iterator[list[float]]:
                """Each row's coordinates, its label code appended to `codes`."""
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
                    label = row[label_pos].strip()
                    codes.append(alphabet.setdefault(label, len(alphabet)))
                    yield coords

            # numpy grows one row-major array as the rows are parsed, so no
            # Python float outlives its row
            rows = np.fromiter(parsed_rows(), np.dtype((np.float64, len(feature_cols))))
    except OSError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: not UTF-8 text: {exc.reason} "
            f"(byte {exc.object[exc.start]:#04x})"
        ) from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    if not codes:
        raise DatasetError(f"{path}: no data rows")
    coords = _coord_buffer(*rows.shape)
    coords[:] = rows
    del rows
    try:
        return Dataset._from_arrays(
            coords,
            np.array(codes, dtype=np.int64),
            tuple(alphabet),
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


def _check_reloadable(dataset: Dataset, source_index: bool = False) -> None:
    """Refuse, with `DatasetError`, a header cell (feature or label column
    name) or a label of `dataset` that `load_csv` would read back changed
    from a file written by `_write_points`, with a leading `source_index`
    column if `source_index` is set.

    `load_csv` strips every cell, and before Python 3.13 `csv.writer` leaves
    a carriage return unquoted, which the reader takes for a row end. So a
    cell with leading or trailing whitespace or a carriage return would
    come back changed, or split its row. `load_csv` also drops a byte-order
    mark, U+FEFF, that begins the file, and so the first header cell's. A
    feature column named like the label column would make `load_csv`
    refuse the header.
    """
    features = (("source_index",) if source_index else ()) + dataset.feature_names
    names = (*features, dataset.label_name)
    if names[0].startswith("\ufeff"):
        raise DatasetError(
            f"column name {names[0]!r} would not load back unchanged: it "
            f"begins the file with a byte-order mark"
        )
    for kind, cells in (("column name", names), ("label", dataset.classes)):
        for cell in cells:
            if cell != cell.strip() or "\r" in cell:
                raise DatasetError(
                    f"{kind} {cell!r} would not load back unchanged: it has "
                    f"leading or trailing whitespace or a carriage return"
                )
    if dataset.label_name in features:
        raise DatasetError(
            f"column name {dataset.label_name!r} would not load back "
            f"unchanged: it names both a feature and the label column"
        )


def _write_points(
    dataset: Dataset, path: str | Path, indices: Sequence[int] | None = None
) -> None:
    """Write the points of `dataset` as CSV that `load_csv` reads back, one
    row per line ending in "\n": every point, or with `indices` those points
    in that order, each row led by its `source_index`. A header cell or
    label that would come back changed (`_check_reloadable`) is refused
    with `DatasetError` before the file is opened."""
    _check_reloadable(dataset, source_index=indices is not None)
    header = [*dataset.feature_names, dataset.label_name]
    picked = range(len(dataset)) if indices is None else indices
    coords, codes, classes = dataset.coords, dataset.label_codes, dataset.classes
    rows = ([*map(repr, coords[i].tolist()), classes[codes[i]]] for i in picked)
    if indices is not None:
        header = ["source_index", *header]
        rows = ([i, *row] for i, row in zip(indices, rows))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset so that `load_csv` round-trips to an equal Dataset,
    one row per line ending in "\n".

    A header cell or label that would come back changed
    (`_check_reloadable`) is refused with `DatasetError` before the file is
    opened.
    """
    _write_points(dataset, path)


def _checked_count(name: str, value, minimum: int = 1) -> int:
    """`value` as an int, refused with DatasetError before a generator draws
    anything unless it is an integer of at least `minimum`."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise DatasetError(
            f"{name} must be an integer of at least {minimum}, got {value!r}"
        )
    return int(value)


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

    Deterministic for a fixed seed: each class is `center + spread * z` for
    one (n_per_class, d) standard-normal draw, centers in order. In the
    measure-zero event that two blobs emit the exact same coordinates with
    different labels, `Dataset` raises `ConflictingDuplicateError`.
    """
    n_per_class = _checked_count("n_per_class", n_per_class)
    if not (spread > 0 and math.isfinite(spread)):
        raise DatasetError(f"spread must be positive and finite, got {spread!r}")
    centers = _validated_centers(centers)
    rng = np.random.default_rng(seed)
    dim = centers[0][0].size
    coords = _coord_buffer(len(centers) * n_per_class, dim)
    for k, (center, _) in enumerate(centers):
        draws = center + spread * rng.standard_normal((n_per_class, dim))
        coords[k * n_per_class : (k + 1) * n_per_class] = draws
    labels = [label for _, label in centers]
    alphabet = list(dict.fromkeys(labels))
    codes = np.repeat([alphabet.index(label) for label in labels], n_per_class)
    return Dataset._from_arrays(coords, codes, alphabet)


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
        integers, standard_normal = rng.integers, rng.standard_normal
        while True:
            center, label = validated[int(integers(len(validated)))]
            noise = standard_normal(dim).tolist()
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
    n_points = _checked_count("n_points", n_points)
    dim = _checked_count("dim", dim)
    n_classes = _checked_count("n_classes", n_classes)
    n_classes = min(n_classes, n_points, len(_CLASS_NAMES))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_classes, size=n_points)
    # Guarantee every class shows up at least once.
    slots = rng.choice(n_points, size=n_classes, replace=False)
    codes[slots] = rng.permutation(n_classes)
    coords = _coord_buffer(n_points, dim)
    coords[:] = rng.uniform(*_BOX, size=(n_points, dim))
    return Dataset._from_arrays(coords, codes, _CLASS_NAMES[:n_classes])


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
    max_n = _checked_count("max_n", max_n, _FUZZ_MIN_POINTS)
    max_dim = _checked_count("max_dim", max_dim)
    max_classes = _checked_count("max_classes", max_classes, 2)
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
