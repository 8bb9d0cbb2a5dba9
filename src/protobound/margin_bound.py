"""Kernel margins and certified size bounds for condensed prototype sets.

For each training point and each wrong class y, form the difference between
the point's true-class feature and its y-channel feature. Any weight vector
that scores every training point's true class highest must separate the
origin from the convex hull of these difference vectors, so the hull's
distance to the origin is the best attainable margin delta. All geometry here
lives in gram space: inner products between difference vectors reduce to
channel algebra times Gaussian kernel values, every difference vector has
squared norm exactly 2, and the update count of the perceptron (equivalently,
the size of the condensed prototype set at a certified bandwidth) is at most
R^2 / delta^2 with R = sqrt(2).

The solver reports a feasible margin delta_hat = min_v (p . v) / ||p|| for
its current hull point p. Feasibility makes 2 / delta_hat^2 a valid bound
regardless of how far the solver converged; the duality gap ||p|| - delta_hat
quantifies the remaining slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cnn import run_cnn
from .dataset import Dataset, pairwise_sq_dists
from .kernel_machine import KernelConfig
from .neighborly import (
    ExhaustiveCapError,
    GammaDegenerateError,
    SigmaCertificate,
    sufficient_sigma,
    verify_neighborly,
)
from .nn_rule import UpdateTrace

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 100_000
# Every difference vector has squared norm exactly 2 (the gram diagonal), so
# the radius is this constant rather than anything computed from the data.
RADIUS = math.sqrt(2.0)


class VacuousBoundError(Exception):
    """A single-class alphabet has no wrong classes and no margin geometry."""


class UncertifiedSigmaError(Exception):
    """The requested bandwidth carries no neighborliness certificate."""


class NoCertifiedSigmaError(Exception):
    """No bandwidth in the grid could be certified."""


class NotSeparableError(Exception):
    """The solver could not certify a positive margin."""


class DifferenceVectorSet:
    """The n * (|C| - 1) difference vectors of a dataset, as a gram oracle.

    Pair (i, y) stands for the feature of point i on its true channel minus
    the same feature on channel y. Inner products never touch feature space:

        <(i, y), (j, y')> = (e_{c_i} - e_y) . (e_{c_j} - e_{y'}) * k(x_i, x_j)

    so with E's rows the channel vectors e_{c_i} - e_y, the gram is E E^T
    times the kernel elementwise. E E^T holds small integers and is exact.
    """

    def __init__(self, dataset: Dataset, cfg: KernelConfig):
        if len(dataset.classes) < 2:
            raise VacuousBoundError(
                "a single-class alphabet admits no difference vectors"
            )
        self.pairs: list[tuple[int, str]] = [
            (i, y)
            for i in range(len(dataset))
            for y in dataset.classes
            if y != dataset[i].label
        ]
        pt = np.array([i for i, _ in self.pairs], dtype=np.int64)
        wc = np.array([dataset.class_code(y) for _, y in self.pairs], dtype=np.int64)
        eye = np.eye(len(dataset.classes))
        E = eye[dataset.label_codes[pt]] - eye[wc]
        d2 = pairwise_sq_dists(dataset.coords)
        kernel = np.exp(-d2 / (2.0 * cfg.sigma * cfg.sigma))
        self.matrix = kernel[np.ix_(pt, pt)]
        self.matrix *= E @ E.T

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class MarginCertificate:
    """Output of the hull-distance solver.

    `coefficients` are convex weights over `pairs` describing the hull point
    p. `delta_hat` is the feasible margin min_v (p . v) / ||p||; `bound` is
    radius^2 / delta_hat^2. `duality_gap` is ||p|| - delta_hat.
    """

    sigma: float
    delta_hat: float
    radius: float
    bound: float
    duality_gap: float
    coefficients: np.ndarray
    pairs: list[tuple[int, str]]
    converged: bool
    iterations: int
    history: list[float] = field(default_factory=list)

    @property
    def separable(self) -> bool:
        return self.delta_hat > 0.0

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "delta_hat": self.delta_hat,
            "radius": self.radius,
            "bound": self.bound,
            "duality_gap": self.duality_gap,
            "converged": self.converged,
            "iterations": self.iterations,
            "support": [
                {"index": i, "wrong_class": y, "coefficient": float(a)}
                for (i, y), a in zip(self.pairs, self.coefficients)
                if a > 0.0
            ],
        }


def _finalize(alpha: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Renormalize, then recompute the hull point's norm and worst score."""
    alpha = alpha / alpha.sum()
    g = G @ alpha
    norm2 = float(alpha @ g)
    return alpha, norm2, float(g.min())


def margin(
    dataset: Dataset,
    cfg: KernelConfig,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    keep_history: bool = False,
) -> MarginCertificate:
    """Distance from the origin to the difference-vector hull, certified from
    below.

    Iterates on the convex coefficients only, driven by gram evaluations:
    starting from the first difference vector (all have norm RADIUS), each
    step moves weight from the currently worst-scoring active vertex toward
    the vertex minimizing p . v, with an exact line search. Stops when the
    duality gap ||p|| - min_v (p . v) / ||p|| falls to `tol` or the
    iteration budget runs out; either way the reported delta_hat is feasible.
    """
    dvs = DifferenceVectorSet(dataset, cfg)
    G = dvs.matrix
    m = len(dvs)
    alpha = np.zeros(m, dtype=np.float64)
    alpha[0] = 1.0
    g = G @ alpha
    history: list[float] = []
    iterations = 0
    converged = False

    while iterations < max_iters:
        iterations += 1
        norm2 = float(alpha @ g)
        if keep_history:
            history.append(math.sqrt(max(norm2, 0.0)))
        if norm2 <= 0.0:
            break  # the origin itself; nothing further to certify
        fw = int(np.argmin(g))
        pnorm = math.sqrt(norm2)
        if pnorm - float(g[fw]) / pnorm <= tol:
            converged = True
            break
        away = int(np.argmax(np.where(alpha > 0.0, g, -np.inf)))
        num = float(g[away] - g[fw])
        denom = float(G[fw, fw] + G[away, away] - 2.0 * G[fw, away])
        if num <= 0.0 or denom <= 0.0:
            converged = True  # no movable mass improves: p is optimal over G
            break
        lam = min(num / denom, float(alpha[away]))
        alpha[fw] += lam
        if lam == float(alpha[away]):
            alpha[away] = 0.0
        else:
            alpha[away] -= lam
        # G is exactly symmetric, so its contiguous rows equal its columns
        g = g + lam * (G[fw] - G[away])
        if iterations % 256 == 0:
            g = G @ alpha  # refresh accumulated drift

    alpha, norm2, worst = _finalize(alpha, G)
    pnorm = math.sqrt(max(norm2, 0.0))
    if pnorm > 0.0:
        delta_hat = worst / pnorm
        gap = pnorm - delta_hat
    else:
        delta_hat = 0.0
        gap = 0.0
    converged = converged and gap <= tol
    bound = RADIUS * RADIUS / (delta_hat * delta_hat) if delta_hat > 0.0 else math.inf
    return MarginCertificate(
        cfg.sigma,
        delta_hat,
        RADIUS,
        bound,
        gap,
        alpha,
        dvs.pairs,
        converged,
        iterations,
        history,
    )


@dataclass
class BoundReport:
    """A certified (or vacuous) size bound for the condensed prototype set."""

    sigma: float
    sigma_certified: bool
    radius: float | None
    delta_hat: float | None
    duality_gap: float | None
    bound: float | None
    prototype_count: int
    satisfied: bool
    vacuous: bool = False

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "sigma_certified": self.sigma_certified,
            "R": self.radius,
            "delta_hat": self.delta_hat,
            "duality_gap": self.duality_gap,
            "bound": self.bound,
            "prototype_count": self.prototype_count,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
        }


def cnn_bound(
    dataset: Dataset,
    cfg: KernelConfig,
    certificate: SigmaCertificate | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    override: bool = False,
    trace: UpdateTrace | None = None,
) -> BoundReport:
    """Bound the condensed set size by 2 / delta_hat^2 and check it.

    The bound is only meaningful at a neighborly bandwidth, where the
    condensation run coincides with a perceptron run; the operation therefore
    refuses a sigma not covered by `certificate` unless `override` is set.
    A single-class dataset yields the vacuous report (one prototype, no
    geometry).
    """
    if trace is None:
        trace = run_cnn(dataset)
    count = len(trace.prototypes)
    if len(dataset.classes) < 2:
        return BoundReport(
            cfg.sigma, False, None, None, None, None, count, True, vacuous=True
        )
    certified = certificate is not None and certificate.covers(cfg.sigma)
    if not certified and not override:
        raise UncertifiedSigmaError(
            f"sigma={cfg.sigma} carries no neighborliness certificate; "
            f"pass override=True to compute an uncertified bound"
        )
    cert = margin(dataset, cfg, tol=tol, max_iters=max_iters)
    if not cert.separable:
        raise NotSeparableError(
            f"no positive margin certified at sigma={cfg.sigma}"
        )
    return BoundReport(
        cfg.sigma,
        certified,
        cert.radius,
        cert.delta_hat,
        cert.duality_gap,
        cert.bound,
        count,
        count <= cert.bound,
    )


def default_sigma_grid(sigma_star: float, size: int = 16) -> list[float]:
    """Geometric grid from sigma*/100 up to sigma* itself."""
    lo, hi = sigma_star / 100.0, sigma_star
    return [lo * (hi / lo) ** (i / (size - 1)) for i in range(size)]


@dataclass
class GridSearchReport:
    """Per-bandwidth bound reports and the best (smallest) certified bound."""

    best: BoundReport
    evaluated: list[BoundReport]
    skipped_sigmas: list[float]

    def to_json_dict(self) -> dict:
        return {
            "best": self.best.to_json_dict(),
            "evaluated": [r.to_json_dict() for r in self.evaluated],
            "skipped_sigmas": self.skipped_sigmas,
        }


def bound_infimum(
    dataset: Dataset,
    sigma_grid: list[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> GridSearchReport:
    """Smallest certified bound over a bandwidth grid.

    Grid points strictly below the analytic threshold are certified by it;
    other points are kept only if exhaustive verification fits its row
    budget and passes. The true optimum is an infimum
    over all neighborly bandwidths; a finite grid can only approach it, which
    is the scope of this search.
    """
    if len(dataset.classes) < 2:
        report = cnn_bound(dataset, KernelConfig(1.0))
        return GridSearchReport(report, [report], [])
    analytic: SigmaCertificate | None
    try:
        analytic = sufficient_sigma(dataset)
    except GammaDegenerateError:
        analytic = None
    if sigma_grid is None:
        if analytic is None:
            raise NoCertifiedSigmaError(
                "no analytic threshold exists (exact distance tie); "
                "supply an explicit sigma grid"
            )
        sigma_grid = default_sigma_grid(analytic.sigma_star)
    trace = run_cnn(dataset)
    evaluated: list[BoundReport] = []
    skipped: list[float] = []
    for sigma in sigma_grid:
        cfg = KernelConfig(sigma)
        if analytic is not None and analytic.covers(sigma):
            cert = analytic
        else:
            try:
                verified = verify_neighborly(dataset, cfg) is None
            except ExhaustiveCapError:
                verified = False  # too large to enumerate
            if not verified:
                skipped.append(sigma)
                continue
            cert = SigmaCertificate(sigma, 0.0, "empirical-bisection", True)
        evaluated.append(
            cnn_bound(dataset, cfg, cert, tol=tol, max_iters=max_iters, trace=trace)
        )
    if not evaluated:
        raise NoCertifiedSigmaError(
            f"none of the {len(sigma_grid)} grid bandwidths could be certified"
        )
    best = min(evaluated, key=lambda r: r.bound)
    return GridSearchReport(best, evaluated, skipped)
