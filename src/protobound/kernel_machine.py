"""Kernel multiclass perceptron in dual form with underflow-safe scoring.

The feature space is one Gaussian-kernel copy of the input space per class
("channels"). Inner products between channeled features vanish unless the
channels match, so a weight vector is fully described by its update records:
each update adds the feature of a point on its true-class channel and
subtracts it on one other channel. Scores are therefore signed sums of
Gaussian kernel values per class.

Numerics policy: `KernelConfig.kernel` is the package's one producer of
Gaussian kernel values exp(-d2 / (2 sigma^2)); scoring here, the margin's
gram and its kernel components all read it, so they agree on every entry,
0.0 included. Raw kernel values underflow to zero for small sigma, which
would erase the very comparisons that matter. Ranking therefore feeds the
producer shifted squared distances: the smallest squared distance over the
records is subtracted first, so the surviving ratios lie in [0, 1] with the
nearest record's exactly 1. Shifting rescales every class score by the same
positive factor and leaves the argmax unchanged. This holds for every sigma
whose 2 sigma^2 is a positive float; `KernelConfig` refuses the smaller ones
(below about 1.5e-162), where the scale itself underflows to 0.0.

The perceptron does not score per test: its sweep's scorer, `_SweepScores`,
keeps every point's shift and per-class sums current, the very floats of
the per-query scoring, and skips the entries past `_zero_cut`, whose ratio
is exactly 0.0. The per-query scoring drops its zero ratios too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, _coord_buffer, _doubled, _query_blocks, sq_dists_to
from .nn_rule import UpdateTrace, _sweep


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
        if 2.0 * self.sigma * self.sigma == 0.0:
            raise ValueError(
                f"sigma={self.sigma!r} is too small: the kernel scale "
                f"2 sigma^2 underflows to 0.0"
            )

    def kernel(self, d2):
        """Gaussian kernel values exp(-d2 / (2 sigma^2)) over squared
        distances `d2`. Where d2 / (2 sigma^2) overflows, as it can at sigma
        near 1e-155, the value is 0.0, without a warning."""
        with np.errstate(over="ignore"):
            return np.exp(-d2 / (2.0 * self.sigma * self.sigma))


def _shifted_kernel(d2: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Kernel values over squared distances `d2`, each divided by the largest
    in its row (last axis): exp(-(d2 - min d2) / (2 sigma^2)).

    The shift is taken on the distances, so the nearest record's ratio is
    exactly 1 even where every -d2 / (2 sigma^2) overflows to -inf; the
    other ratios then underflow to 0.0."""
    return cfg.kernel(d2 - d2.min(axis=-1, keepdims=True))


class DualWeightVector:
    """Weight vector represented by its update records.

    Materializing the feature space is never needed: scores against any query
    are kernel sums over the records. The records are kept as growing arrays
    so the per-query scan stays vectorized.
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
        self._coords = _coord_buffer(8, self.dim)
        self._c_codes = np.empty(8, dtype=np.int64)
        self._y_codes = np.empty(8, dtype=np.int64)
        self._indices = np.empty(8, dtype=np.int64)

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
                {
                    "index": None if i < 0 else i,
                    "x": x,
                    "c": self.classes[c],
                    "y": None if y < 0 else self.classes[y],
                }
                for i, x, c, y in zip(
                    self._indices[: self._size].tolist(),
                    self.coords.tolist(),
                    self.c_codes.tolist(),
                    self.y_codes.tolist(),
                )
            ],
        }


def _class_sums(
    ratios: np.ndarray, queries: np.ndarray, codes: np.ndarray, n_queries: int,
    n_classes: int,
) -> np.ndarray:
    """Per-class sums of shifted kernel ratios, shape (q, R, k), over kernel
    entries: entry t is the ratio of one (query, record) pair, `ratios[t]`
    for query `queries[t]`, and row r of `codes` (R, entries) holds the class
    it goes to in that query's row r (-1 for none).

    All rows of all queries go through one flat bincount, which sums each bin
    in entry order, so entries given in (query, record) order, as np.nonzero
    yields them, are summed in record order. Each row's column 0 collects its
    -1 codes and is dropped; a query with no entries sums to +0.0.
    """
    n_rows = len(codes)
    width = n_classes + 1
    offsets = (queries * n_rows + np.arange(n_rows)[:, None]) * width + 1
    return np.bincount(
        (codes + offsets).ravel(),
        weights=ratios[None].repeat(n_rows, axis=0).ravel(),
        minlength=n_queries * n_rows * width,
    ).reshape(n_queries, n_rows, width)[..., 1:]


def _scores_from_ratios(
    ratios: np.ndarray,
    c_codes: np.ndarray,
    y_rows: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Per-class signed sums of shifted kernel ratios, shape (q, A, k): one
    row of ratios (q, P) per query, one row of subtracted-channel codes
    (A, P) per assignment (-1 for no subtraction). Record j adds
    ratios[i, j] to class c_codes[j] and subtracts it from class y_rows[r, j]
    in row r; the added channels ride along in `_class_sums` as row 0.

    Only the nonzero ratios are summed: every sum starts at +0.0 and adds
    non-negative ratios, so a 0.0 term changes no float.
    """
    queries, records = np.nonzero(ratios)
    codes = np.concatenate((c_codes[None], y_rows))[:, records]
    sums = _class_sums(ratios[queries, records], queries, codes, len(ratios), n_classes)
    return sums[:, :1] - sums[:, 1:]


def _argmax_codes(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First maximal position along the last axis and whether that maximum
    is tied."""
    tops = scores.max(axis=-1, keepdims=True)
    return scores.argmax(axis=-1), (scores == tops).sum(axis=-1) > 1


def shifted_class_scores(w: DualWeightVector, x) -> np.ndarray:
    """Exponent-shifted class scores: every true score divided by the largest
    kernel value over the records. Safe for every sigma `KernelConfig`
    accepts, that is down to where 2 sigma^2 would underflow to 0.0."""
    if len(w) == 0:
        return np.zeros(len(w.classes), dtype=np.float64)
    q = np.asarray(x, dtype=np.float64)
    ratios = _shifted_kernel(sq_dists_to(w.coords, q[None]), w.kernel)
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


DEFAULT_MAX_PASSES = 1000


def run_mp(
    dataset: Dataset,
    cfg: KernelConfig,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> tuple[UpdateTrace, DualWeightVector]:
    """Multiclass perceptron: `nn_rule._sweep` in dataset order, with
    `_SweepScores`, which appends each update to the weights, as its scorer.

    A degenerate argmax counts as a mistake. When the degenerate resolution
    happens to name the true class, the update subtracts the earliest other
    class instead (with a single-class alphabet there is nothing to
    subtract).

    Termination is not guaranteed for arbitrary bandwidths; `max_passes`
    bounds the sweep and the raised error carries the partial trace. Fewer
    than one pass could never finish, so it is refused.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")
    w = DualWeightVector(cfg, dataset.classes, dataset.dim)
    scores = _SweepScores(dataset, w)
    trace, clean = _sweep(dataset, scores, range(len(dataset)), max_passes)
    if not clean:
        raise PassBudgetError(f"no stable pass within {max_passes} passes", trace, w)
    return trace, w


# exp(-t) is exactly 0.0 for t > 1075 ln 2 ~ 745.13, where the true value is
# below half the smallest subnormal, 2^-1075. The sweep skips an entry whose
# shifted squared distance x exceeds cut = fl(s * 800), with s = fl(2 sigma^2)
# the kernel's own scale. That product is exact while subnormal and within a
# relative 2^-53 otherwise, and the kernel's quotient fl(x / s) rounds once
# more, so the exponent it is fed is at least 800 (1 - 2^-52) > 799.99, or
# inf. Its exp is then a factor e^-54 below 2^-1075, far past any libm's
# error. The margin costs only the entries in (745.13, 800], which are
# evaluated and are 0.0. Where cut overflows to inf (sigma above ~3.35e152),
# no finite x exceeds it and nothing is skipped.
def _zero_cut(cfg: KernelConfig) -> float:
    """Shifted squared distance above which `cfg.kernel` is exactly 0.0."""
    return 2.0 * cfg.sigma * cfg.sigma * 800.0


class _SweepScores:
    """`argmax_class(w, x)` for every point x of a dataset, kept current as
    records are appended to `w`, one distance row per record:
    `nn_rule._sweep`'s scorer for the perceptron.

    Per point, it keeps the shift (the smallest squared distance to a record)
    and the per-class sums of added and subtracted shifted ratios, class-major
    (k, n). The record's distance row over the points holds the floats each
    point's own query would, as (a - b)^2 and (b - a)^2 are equal. A new
    record that is no nearer than a point's shift leaves the shift, and so
    every earlier ratio, as it was; its own ratio is added to the two sums.
    That is the float `_class_sums`' bincount gives, since it adds each
    bin's ratios in record order. Where the new record is nearer, every
    ratio changes: those points are re-derived from all records exactly as
    `shifted_class_scores` derives them, batched in query blocks.

    Both steps skip the (point, record) entries whose shifted squared
    distance exceeds `_zero_cut`: their ratio is exactly 0.0, and adding 0.0
    to a sum that starts at +0.0 and grows by non-negative ratios changes no
    float. Only the row's kept points get a ratio, and a re-derivation sums
    only its kept entries, in record order.
    """

    def __init__(self, dataset: Dataset, w: DualWeightVector):
        n, k = len(dataset), len(w.classes)
        self._coords = dataset.coords
        self._label_codes = dataset.label_codes
        self._wrong = dataset.wrong_codes
        self._w = w
        self._cut = _zero_cut(w.kernel)
        self._shift = np.full(n, np.inf)
        self._added = np.zeros((k, n))
        self._subtracted = np.zeros((k, n))
        # an empty weight vector's argmax is the first class, degenerately
        self.argmax_codes = np.zeros(n, dtype=np.int64)
        self.mistaken = np.ones(n, dtype=bool)

    def add(self, i: int) -> None:
        """Append the update at point i to `w`, as `run_mp` sets out, and
        absorb it."""
        code, label = self.argmax_codes[i], self._label_codes[i]
        if code == label:  # a single class has no wrong one to subtract
            code = self._wrong[i, 0] if self._wrong.size else None
        y = None if code is None else self._w.classes[code]
        self._w.append(i, self._coords[i], self._w.classes[label], y)
        self.absorb(i)

    def absorb(self, i: int) -> None:
        """Take in the record just appended to `w`, at point i."""
        w = self._w
        d2 = sq_dists_to(self._coords, self._coords[i])
        # the nearer points, with d2 - shift < 0, are all kept
        keep = np.flatnonzero(d2 - self._shift <= self._cut)
        d2 = d2[keep]
        shift = self._shift[keep]
        nearer = keep[d2 < shift]
        np.minimum(shift, d2, out=shift)
        self._shift[keep] = shift
        ratios = w.kernel.kernel(d2 - shift)
        self._added[w.c_codes[-1], keep] += ratios
        if w.y_codes[-1] >= 0:
            self._subtracted[w.y_codes[-1], keep] += ratios
        for block in _query_blocks(len(nearer), w.coords.size):
            q = nearer[block]
            shifted = sq_dists_to(w.coords, self._coords[q])
            shifted -= shifted.min(axis=1, keepdims=True)
            queries, records = np.nonzero(shifted <= self._cut)
            codes = np.stack((w.c_codes[records], w.y_codes[records]))
            sums = _class_sums(
                w.kernel.kernel(shifted[queries, records]), queries, codes,
                len(q), len(w.classes),
            )
            self._added[:, q] = sums[:, 0].T
            self._subtracted[:, q] = sums[:, 1].T
        # a zero ratio changes no sum, and every re-derived point's is 1
        changed = keep[np.flatnonzero(ratios)]
        scores = self._added[:, changed] - self._subtracted[:, changed]
        codes, degenerate = _argmax_codes(scores.T)
        self.argmax_codes[changed] = codes
        self.mistaken[changed] = degenerate | (codes != self._label_codes[changed])
