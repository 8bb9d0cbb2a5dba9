"""Training-set ingestion, validation, synthetic data, and the distance kernel.

A dataset is an immutable, ordered list of labeled points in R^d. The class
alphabet is derived from the data: labels in order of first appearance.
Entries with identical coordinates but different labels are rejected at
construction time because every consumer downstream assumes the nearest
neighbor of a training point with distance zero has that point's own label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_LABEL_COLUMN = "label"


def sq_dists_to(coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each row of `coords` to `x`; for `x`
    of shape (q, d), one such row per query, shape (q, len(coords)).

    This is the single distance kernel for the whole package; everything that
    must agree bit-for-bit on distances routes through it.
    """
    diff = coords - np.asarray(x)[..., None, :]
    return np.sum(diff * diff, axis=-1)


def pairwise_sq_dists(coords: np.ndarray) -> np.ndarray:
    """The n x n matrix whose row q is `sq_dists_to(coords, coords[q])`."""
    out = np.empty((len(coords), len(coords)), dtype=np.float64)
    for q, x in enumerate(coords):
        out[q] = sq_dists_to(coords, x)
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


class Dataset:
    """Immutable training set with a deterministic class alphabet.

    The alphabet orders labels by first appearance in the point list;
    `extra_classes` appends classes that carry no points yet (useful when a
    classifier must consider a label the data does not exhibit).
    """

    def __init__(
        self,
        points: Iterable[LabeledPoint | tuple],
        extra_classes: Sequence[str] | None = None,
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
        for c in extra_classes or ():
            c = str(c)
            if c not in classes:
                classes.append(c)

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
        coords = np.array([p.coords for p in pts], dtype=np.float64)
        coords.flags.writeable = False
        self._coords = coords
        codes = np.array([self._class_code[p.label] for p in pts], dtype=np.int64)
        codes.flags.writeable = False
        self._label_codes = codes

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
        """Read-only (n, d) float64 coordinate matrix, in point order."""
        return self._coords

    @property
    def label_codes(self) -> np.ndarray:
        """Read-only (n,) array of class-alphabet positions, in point order."""
        return self._label_codes

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
            max(float(sq_dists_to(self._coords, x).max()) for x in self._coords)
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
        return self._points == other._points and self._classes == other._classes

    def __hash__(self) -> int:
        return hash((self._points, self._classes))

    def __repr__(self) -> str:
        return (
            f"Dataset(n={len(self)}, dim={self._dim}, "
            f"classes={list(self._classes)!r})"
        )


def load_csv(path: str | Path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Load a dataset from a UTF-8, comma-separated file with a header row.

    All columns except `label_column` are parsed as float features, in file
    order. Parse failures report the 1-based data row and the column name.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
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
    Deterministic for a fixed seed.
    """
    if not (spread > 0 and math.isfinite(spread)):
        raise DatasetError(f"spread must be positive and finite, got {spread!r}")
    validated = _validated_centers(centers)
    rng = np.random.default_rng(seed)
    while True:
        center, label = validated[int(rng.integers(len(validated)))]
        coords = tuple(
            float(v) for v in center + spread * rng.standard_normal(center.size)
        )
        yield LabeledPoint(coords, label)


_CLASS_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H")


def random_dataset(
    seed: int,
    n_points: int,
    dim: int,
    n_classes: int,
    box: tuple[float, float] = (-10.0, 10.0),
) -> Dataset:
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
    coords = rng.uniform(box[0], box[1], size=(n_points, dim))
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
    min_n: int = 2,
) -> Dataset:
    """Random dataset with seed-derived size, dimension, and shape.

    Mixes uniformly scattered labels with blob-structured data so fuzz runs
    cover both noisy and separable regimes.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_n, max_n + 1))
    d = int(rng.integers(1, max_dim + 1))
    k = min(int(rng.integers(2, max_classes + 1)), n)
    child = int(rng.integers(2**63))
    if rng.random() < 0.5:
        return random_dataset(child, n, d, k)
    centers = [
        (rng.uniform(-10.0, 10.0, size=d), _CLASS_NAMES[i]) for i in range(k)
    ]
    spread = float(rng.uniform(0.2, 2.0))
    return generate_blobs(child, max(1, n // k), centers, spread)
