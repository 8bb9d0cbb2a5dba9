"""Kernel multiclass perceptron in dual form with underflow-safe scoring.

The feature space is one Gaussian-kernel copy of the input space per class
("channels"). Inner products between channeled features vanish unless the
channels match, so a weight vector is fully described by its update records:
each update adds the feature of a point on its true-class channel and
subtracts it on one other channel. Scores are therefore signed sums of
Gaussian kernel values per class.

Numerics policy: raw kernel values exp(-||x - x'||^2 / (2 sigma^2)) underflow
to zero for small sigma, which would erase the very comparisons that matter.
Ranking is computed in an exponent-shifted form instead: the largest
log-kernel value over the records is factored out, so the surviving ratios
are exact in [0, 1] with at least one equal to 1. Shifting rescales every
class score by the same positive factor and leaves the argmax unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, sq_dists_to
from .nn_rule import PrototypeSet, UpdateEvent, UpdateTrace, _doubled


class PassBudgetError(Exception):
    """Training exceeded its pass budget; partial results are attached."""

    def __init__(self, message: str, trace, weights):
        super().__init__(message)
        self.trace = trace
        self.weights = weights


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth of the Gaussian channel kernel."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


def log_kernel_row(coords: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    """Log kernel value from each row of `coords` to `x`. Always finite."""
    return -sq_dists_to(coords, x) / (2.0 * sigma * sigma)


def kernel_log_eval(cfg: KernelConfig, x, y) -> float:
    """log k(x, y); finite even where k itself underflows."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return float(log_kernel_row(a, np.asarray(y, dtype=np.float64), cfg.sigma)[0])


def kernel_eval(cfg: KernelConfig, x, y) -> float:
    """Gaussian kernel value in (0, 1]; may underflow to 0.0 in float64."""
    return math.exp(kernel_log_eval(cfg, x, y))


@dataclass(frozen=True)
class UpdateRecord:
    """One perceptron update: +1 on channel `c`, -1 on channel `y` at `x`.

    `index` is the source row of `x` when it came from a dataset. `y` is None
    only when the alphabet has a single class and there is nothing to
    subtract.
    """

    index: int | None
    x: tuple[float, ...]
    c: str
    y: str | None


class DualWeightVector:
    """Weight vector represented by its update records.

    Materializing the feature space is never needed: scores against any query
    are kernel sums over the records. The records are kept as growing arrays
    so the per-query scan stays vectorized; `records` rebuilds them as
    `UpdateRecord`s on demand.
    """

    def __init__(self, kernel: KernelConfig, classes: Sequence[str], dim: int):
        if not classes:
            raise ValueError("the class alphabet cannot be empty")
        self.kernel = kernel
        self.classes = tuple(str(c) for c in classes)
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate labels in the class alphabet")
        self.dim = int(dim)
        self._code = {c: k for k, c in enumerate(self.classes)}
        self._size = 0
        self._coords = np.empty((8, self.dim), dtype=np.float64)
        self._c_codes = np.empty(8, dtype=np.int64)
        self._y_codes = np.empty(8, dtype=np.int64)
        self._indices = np.empty(8, dtype=np.int64)

    @property
    def records(self) -> tuple[UpdateRecord, ...]:
        n = self._size
        return tuple(
            UpdateRecord(
                None if i < 0 else i,
                tuple(x),
                self.classes[c],
                None if y < 0 else self.classes[y],
            )
            for i, x, c, y in zip(
                self._indices[:n].tolist(),
                self._coords[:n].tolist(),
                self._c_codes[:n].tolist(),
                self._y_codes[:n].tolist(),
            )
        )

    @property
    def coords(self) -> np.ndarray:
        return self._coords[: self._size]

    @property
    def c_codes(self) -> np.ndarray:
        return self._c_codes[: self._size]

    @property
    def y_codes(self) -> np.ndarray:
        """Subtracted-channel codes; -1 stands for no subtraction."""
        return self._y_codes[: self._size]

    def append(self, index: int | None, x, c: str, y: str | None) -> None:
        if index is not None and index < 0:
            raise ValueError(f"source index must be nonnegative, got {index}")
        if c not in self._code:
            raise ValueError(f"unknown class {c!r}")
        if y is not None and y not in self._code:
            raise ValueError(f"unknown class {y!r}")
        if y == c:
            raise ValueError("the subtracted channel must differ from the true class")
        coords = tuple(float(v) for v in x)
        if len(coords) != self.dim:
            raise ValueError(f"point has dimension {len(coords)}, expected {self.dim}")
        n = self._size
        if n == len(self._indices):
            self._coords = _doubled(self._coords)
            self._c_codes = _doubled(self._c_codes)
            self._y_codes = _doubled(self._y_codes)
            self._indices = _doubled(self._indices)
        self._coords[n] = coords
        self._c_codes[n] = self._code[c]
        self._y_codes[n] = -1 if y is None else self._code[y]
        self._indices[n] = -1 if index is None else index
        self._size = n + 1

    def __len__(self) -> int:
        return self._size

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.kernel.sigma,
            "classes": list(self.classes),
            "records": [
                {"index": r.index, "x": list(r.x), "c": r.c, "y": r.y}
                for r in self.records
            ],
        }


def _scores_from_ratios(
    ratios: np.ndarray,
    c_codes: np.ndarray,
    y_rows: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Per-class signed sums of shifted kernel ratios, shape (q, A, k): one
    row of ratios (q, P) per query, one row of subtracted-channel codes
    (A, P) per assignment (-1 for no subtraction).

    Record j adds ratios[i, j] to class c_codes[j] and subtracts it from
    class y_rows[r, j] in row r. The added channels ride along as row 0, and
    all rows of all queries go through one flat bincount, which sums each
    bin in record order; each row's column 0 collects its -1 codes and is
    dropped.
    """
    rows = np.concatenate((c_codes[None], y_rows))
    n_queries, n_rows = len(ratios), len(rows)
    width = n_classes + 1
    offsets = np.arange(1, n_queries * n_rows * width, width)
    bins = rows + offsets.reshape(n_queries, n_rows, 1)
    weights = ratios[:, None, :].repeat(n_rows, axis=1)
    sums = np.bincount(
        bins.ravel(), weights=weights.ravel(), minlength=len(offsets) * width
    ).reshape(n_queries, n_rows, width)[..., 1:]
    return sums[:, :1] - sums[:, 1:]


def _argmax_codes(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First maximal position along the last axis and whether that maximum
    is tied."""
    tops = scores.max(axis=-1, keepdims=True)
    return scores.argmax(axis=-1), (scores == tops).sum(axis=-1) > 1


def shifted_class_scores(w: DualWeightVector, x) -> np.ndarray:
    """Exponent-shifted class scores: every true score divided by the largest
    kernel value over the records. Safe down to arbitrarily small sigma."""
    if len(w) == 0:
        return np.zeros(len(w.classes), dtype=np.float64)
    q = np.asarray(x, dtype=np.float64)
    logk = log_kernel_row(w.coords, q[None], w.kernel.sigma)
    ratios = np.exp(logk - logk.max())
    scores = _scores_from_ratios(ratios, w.c_codes, w.y_codes[None], len(w.classes))
    return scores[0, 0]


def argmax_class(w: DualWeightVector, x) -> tuple[str, bool]:
    """Highest-scoring class for the query, plus a degeneracy flag.

    The flag is set when the maximum is not unique, including the all-zero
    scores of an empty weight vector. A degenerate maximum resolves to the
    earliest class in the alphabet so callers stay deterministic, but they
    should treat the answer as a non-prediction.
    """
    if len(w) == 0:
        return w.classes[0], True
    code, degenerate = _argmax_codes(shifted_class_scores(w, x))
    return w.classes[int(code)], bool(degenerate)


def _first_other_class(classes: Sequence[str], c: str) -> str | None:
    for candidate in classes:
        if candidate != c:
            return candidate
    return None


DEFAULT_MAX_PASSES = 1000


def run_mp(
    dataset: Dataset,
    cfg: KernelConfig,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> tuple[UpdateTrace, DualWeightVector]:
    """Multiclass perceptron: sweep until a full pass makes no update.

    A degenerate argmax counts as a mistake, so the first point always
    triggers an update. When the degenerate resolution happens to name the
    true class, the update subtracts the earliest other class instead (with a
    single-class alphabet there is nothing to subtract). Each update is also
    logged as a prototype addition, so the returned trace has the same shape
    as the condensation trace.

    Termination is not guaranteed for arbitrary bandwidths; `max_passes`
    bounds the loop and the raised error carries the partial trace. Fewer
    than one pass could never finish, so it is refused.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")
    w = DualWeightVector(cfg, dataset.classes, dataset.dim)
    prototypes = PrototypeSet(dataset)
    events: list[UpdateEvent] = []
    pass_no = 0
    while True:
        if pass_no >= max_passes:
            raise PassBudgetError(
                f"no stable pass within {max_passes} passes",
                UpdateTrace(events, prototypes, pass_no),
                w,
            )
        pass_no += 1
        updated = False
        for i, point in enumerate(dataset):
            was_empty = len(w) == 0
            predicted, degenerate = argmax_class(w, dataset.coords[i])
            if predicted == point.label and not degenerate:
                continue
            subtracted = (
                predicted
                if predicted != point.label
                else _first_other_class(w.classes, point.label)
            )
            w.append(i, point.coords, point.label, subtracted)
            if i not in prototypes:  # set union: repeat updates cannot re-add
                prototypes.add(i)
            events.append(
                UpdateEvent(pass_no, i, point.label, None if was_empty else predicted)
            )
            updated = True
        if not updated:
            break
    return UpdateTrace(events, prototypes, pass_no), w
