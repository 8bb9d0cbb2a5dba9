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
is exactly 0.0. A new record meets each point in one of three cases. No
nearer than the point's shift, it adds its own ratio to the sums. Nearer,
with the old shift more than the cut above it, it leaves every earlier
record past the cut too, since float subtraction is monotone: the sums are
its own ratio, 1.0, alone. Nearer by less, it changes every ratio, and the
point is re-derived from all records. The per-query scores, the
re-derivations and the neighborly violation search all sum through one
function, `_shifted_class_sums`, which skips the same entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, _coord_buffer, _grown, _row_blocks, sq_dists_to
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


class DualWeightVector:
    """Weight vector represented by its update records.

    Materializing the feature space is never needed: scores against any query
    are kernel sums over the records. The records are kept as growing arrays
    so the per-query scan stays vectorized: the coordinates, and one (3, n)
    code array whose contiguous rows hold each record's true class,
    subtracted class and source index.
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
        self._codes = np.empty((3, 8), dtype=np.int64)

    @property
    def coords(self) -> np.ndarray:
        return self._coords[: self._size]

    @property
    def c_codes(self) -> np.ndarray:
        return self._codes[0, : self._size]

    @property
    def y_codes(self) -> np.ndarray:
        """Subtracted-channel codes; -1 stands for no subtraction."""
        return self._codes[1, : self._size]

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
        if n == len(self._coords):
            self._coords = _grown(self._coords, (2 * n, self.dim))
            self._codes = _grown(self._codes, (3, 2 * n))
        self._coords[n] = coords
        self._codes[:, n] = (self._code[c], self._code.get(y, -1),
                             -1 if index is None else index)
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
                    self._codes[2, : self._size].tolist(),
                    self.coords.tolist(),
                    self.c_codes.tolist(),
                    self.y_codes.tolist(),
                )
            ],
        }


# exp(-t) is exactly 0.0 for t > 1075 ln 2 ~ 745.13, where the true value is
# below half the smallest subnormal, 2^-1075. Scoring skips an entry whose
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


def _shifted_class_sums(
    d2: np.ndarray, codes: np.ndarray, cfg: KernelConfig, n_classes: int
) -> np.ndarray:
    """Per-class sums of shifted kernel ratios, shape (q, R, k): `d2` (q, P)
    holds the squared distances from q queries to P records, and row r of
    `codes` (R, P) the class each record goes to in every query's row r (-1
    for none). The package's one scoring path.

    Each row of `d2` is shifted by its minimum, so the nearest record's
    ratio is exactly 1 even where every -d2 / (2 sigma^2) overflows to -inf.
    Only the entries whose shifted squared distance is within `_zero_cut`
    get a ratio: the others' is exactly 0.0, and a sum that starts at +0.0
    and adds non-negative ratios is not changed by a 0.0 term. The kept
    entries, in (query, record) order as np.nonzero yields them, go through
    one flat bincount, which sums each bin in entry order, so in record
    order; each row's column 0 collects its -1 codes and is dropped.
    """
    shifted = d2 - d2.min(axis=1, keepdims=True)
    queries, records = np.nonzero(shifted <= _zero_cut(cfg))
    ratios = cfg.kernel(shifted[queries, records])
    n_rows = len(codes)
    width = n_classes + 1
    offsets = (queries * n_rows + np.arange(n_rows)[:, None]) * width + 1
    return np.bincount(
        (codes[:, records] + offsets).ravel(),
        weights=ratios[None].repeat(n_rows, axis=0).ravel(),
        minlength=len(d2) * n_rows * width,
    ).reshape(len(d2), n_rows, width)[..., 1:]


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
    d2 = sq_dists_to(w.coords, np.asarray(x, dtype=np.float64)[None])
    sums = _shifted_class_sums(d2, w._codes[:2, : len(w)], w.kernel, len(w.classes))
    return sums[0, 0] - sums[0, 1]


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


def _check_budget(name: str, value) -> None:
    """Refuse, with ValueError, a budget of passes or solver steps that is
    not an integer of at least 1: fewer than one could never finish."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


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
    bounds the sweep and the raised error carries the partial trace. A
    budget that is not an integer of at least 1 raises ValueError.
    """
    _check_budget("max_passes", max_passes)
    w = DualWeightVector(cfg, dataset.classes, dataset.dim)
    scores = _SweepScores(dataset, w)
    trace, clean = _sweep(dataset, scores, range(len(dataset)), max_passes)
    if not clean:
        raise PassBudgetError(f"no stable pass within {max_passes} passes", trace, w)
    return trace, w


def _replay(dataset: Dataset, cfg: KernelConfig, trace: UpdateTrace) -> UpdateTrace:
    """The perceptron's trace at `cfg`, stopped after condensation's
    `trace.n_passes` passes: the package's one check of the paper's
    identity. The runs agree exactly when the events are equal: equal events
    end in the same clean pass, and a run out of passes has an update in its
    last pass, where condensation's is clean. The perceptron scans in dataset
    order, so a shuffled `trace` is replayed only where that scan happens to
    log the same events."""
    try:
        return run_mp(dataset, cfg, max_passes=trace.n_passes)[0]
    except PassBudgetError as exc:
        return exc.trace


class _SweepScores:
    """`argmax_class(w, x)` for every point x of a dataset, kept current as
    records are appended to `w`, one distance row per record, written into
    one n-float buffer: `nn_rule._sweep`'s scorer for the perceptron.

    Per point, it keeps the shift (the smallest squared distance to a record)
    and the per-class sums of added and subtracted shifted ratios, class-major
    (k, n). The record's distance row over the points holds the floats each
    point's own query would, as (a - b)^2 and (b - a)^2 are equal. A new
    record at squared distance d2 from a point whose shift is `old` meets it
    in one of three cases:

    - d2 >= old: the shift, and so every earlier ratio, stays as it was; the
      record's own ratio is added to the two sums. That is the float
      `_shifted_class_sums`' bincount gives, since it adds each bin's
      ratios in record order.
    - old - d2 > cut: the point moves, and every earlier record lies past
      the cut. Each earlier record's squared distance D is at least `old`,
      the float minimum of them all, and float subtraction is monotone, so
      fl(D - d2) >= fl(old - d2) > cut. A re-derivation would skip them all
      and keep only the new record, at fl(d2 - d2) = 0.0, whose ratio is
      kernel(0.0) = 1.0; its bincount gives 0.0 + 1.0 on the record's two
      channels and +0.0 on the others. Zeroing the point's sums and adding
      the ratio gives those floats in closed form. A point that no record
      reached yet (old = inf) is here too, unless the cut itself is inf.
    - otherwise, a near tie: every ratio changes, and the point is
      re-derived from all records exactly as `shifted_class_scores` derives
      them, batched in `_row_blocks`.

    The row skips the points whose shifted squared distance to the record
    exceeds `_zero_cut`, as `_shifted_class_sums` skips such entries in the
    re-derivations: their ratio is exactly 0.0, and adding 0.0 to a sum that
    starts at +0.0 and grows by non-negative ratios changes no float.
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
        self._row = np.empty(n)

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
        d2 = sq_dists_to(self._coords, self._coords[i], out=self._row)
        # the nearer points, with d2 - shift < 0, are all kept
        keep = np.flatnonzero(d2 - self._shift <= self._cut)
        d2 = d2[keep]
        shift = self._shift[keep]
        # the old shift, and so every earlier record, lies past the cut
        alone = shift - d2 > self._cut
        nearer = keep[(d2 < shift) & ~alone]
        self._added[:, keep[alone]] = 0.0
        self._subtracted[:, keep[alone]] = 0.0
        np.minimum(shift, d2, out=shift)
        self._shift[keep] = shift
        ratios = w.kernel.kernel(d2 - shift)
        self._added[w.c_codes[-1], keep] += ratios
        if w.y_codes[-1] >= 0:
            self._subtracted[w.y_codes[-1], keep] += ratios
        if len(nearer):  # most records leave no near tie to re-derive
            codes = w._codes[:2, : len(w)]
            for block, d2 in _row_blocks(w.coords, self._coords[nearer]):
                sums = _shifted_class_sums(d2, codes, w.kernel, len(w.classes))
                self._added[:, nearer[block]] = sums[:, 0].T
                self._subtracted[:, nearer[block]] = sums[:, 1].T
        # a zero ratio changes no sum, and every moved point's is 1
        changed = keep[np.flatnonzero(ratios)]
        scores = self._added[:, changed] - self._subtracted[:, changed]
        codes, degenerate = _argmax_codes(scores.T)
        self.argmax_codes[changed] = codes
        self.mistaken[changed] = degenerate | (codes != self._label_codes[changed])
