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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cnn import run_cnn
from .dataset import Dataset, pairwise_sq_dists, sq_dists_to
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
# Largest gram, in bytes, that `margin` allocates for one kernel component.
# Building and solving it holds up to three more arrays of at most its size.
GRAM_BYTE_BUDGET = 2**30
_EPS = float(np.finfo(np.float64).eps)


class VacuousBoundError(Exception):
    """A single-class alphabet has no wrong classes and no margin geometry."""


class UncertifiedSigmaError(Exception):
    """The requested bandwidth carries no neighborliness certificate."""


class NoCertifiedSigmaError(Exception):
    """No bandwidth in the grid could be certified."""


class NotSeparableError(Exception):
    """The solver could not certify a positive margin."""


class GramBudgetError(Exception):
    """The largest kernel component's gram would exceed GRAM_BYTE_BUDGET."""


def _pair_codes(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Point index and wrong-class code of every pair (i, y), in the order
    point by point, then the wrong classes in alphabet order. Point i owns
    the pairs i*q .. i*q + q - 1, where q = |C| - 1."""
    if len(dataset.classes) < 2:
        raise VacuousBoundError(
            "a single-class alphabet admits no difference vectors"
        )
    wrong = dataset.wrong_codes
    return np.repeat(np.arange(len(dataset)), wrong.shape[1]), wrong.ravel()


def _pair_list(
    dataset: Dataset, point: np.ndarray, wrong: np.ndarray
) -> list[tuple[int, str]]:
    classes = dataset.classes
    return [(int(i), classes[w]) for i, w in zip(point, wrong)]


def _pair_rows(points: np.ndarray, q: int) -> np.ndarray:
    """Global pair indices of the given points, in pair order."""
    return (points[:, None] * q + np.arange(q)).ravel()


def _pair_gram(
    kernel: np.ndarray, point: np.ndarray, true: np.ndarray, wrong: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """kernel[point, point] times E E^T, elementwise, where row a of E is
    e_{true[a]} - e_{wrong[a]}."""
    eye = np.eye(n_classes)
    E = eye[true] - eye[wrong]
    gram = kernel[np.ix_(point, point)]
    gram *= E @ E.T
    return gram


class DifferenceVectorSet:
    """The n * (|C| - 1) difference vectors of a dataset, as a gram oracle.

    Pair (i, y) stands for the feature of point i on its true channel minus
    the same feature on channel y. Inner products never touch feature space:

        <(i, y), (j, y')> = (e_{c_i} - e_y) . (e_{c_j} - e_{y'}) * k(x_i, x_j)

    so with E's rows the channel vectors e_{c_i} - e_y, the gram is E E^T
    times the kernel elementwise. E E^T holds small integers and is exact.
    """

    def __init__(self, dataset: Dataset, cfg: KernelConfig):
        point, wrong = _pair_codes(dataset)
        self.pairs: list[tuple[int, str]] = _pair_list(dataset, point, wrong)
        d2 = pairwise_sq_dists(dataset.coords)
        kernel = np.exp(-d2 / (2.0 * cfg.sigma * cfg.sigma))
        self.matrix = _pair_gram(
            kernel, point, dataset.label_codes[point], wrong, len(dataset.classes)
        )

    def __len__(self) -> int:
        return len(self.pairs)


def _kernel_components(
    dataset: Dataset, sigma: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split the points by the graph that links i and j when
    `np.exp(-d2[i, j] / (2 sigma^2)) > 0.0`, the kernel entry the gram holds.

    Returns the isolated points, then the other components as sorted index
    arrays of at least two points each, ordered by their first point. exp is
    monotone, so a point is isolated exactly when the kernel of its nearest
    other point is 0.0; only the remaining points are searched, breadth
    first, with one row of squared distances per frontier point. Those rows
    are `pairwise_sq_dists`' own entries, which are exactly symmetric, so
    the links are too.
    """
    coords = dataset.coords
    scale = 2.0 * sigma * sigma
    isolated = np.exp(-dataset.nearest_sq_dists / scale) == 0.0
    unseen = np.flatnonzero(~isolated)
    components = []
    while len(unseen):
        frontier, unseen = unseen[:1], unseen[1:]
        members = [frontier]
        while len(frontier) and len(unseen):
            rest = coords[unseen]
            linked = np.zeros(len(unseen), dtype=bool)
            for i in frontier:
                linked |= np.exp(-sq_dists_to(rest, coords[i]) / scale) > 0.0
            frontier, unseen = unseen[linked], unseen[~linked]
            members.append(frontier)
        components.append(np.sort(np.concatenate(members)))
    return np.flatnonzero(isolated), components


@dataclass
class MarginCertificate:
    """Output of the hull-distance solver.

    `coefficients` are convex weights over `pairs` describing the hull point
    p. `delta_hat` is the feasible margin min_v (p . v) / ||p||; `bound` is
    radius^2 / delta_hat^2. `duality_gap` is ||p|| - delta_hat. `iterations`
    sums the solver steps over the kernel components; `components` counts
    them, isolated points included, and `largest_component` is the point
    count of the largest.
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
    components: int
    largest_component: int

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
            "components": self.components,
            "largest_component": self.largest_component,
            "support": [
                {"index": i, "wrong_class": y, "coefficient": float(a)}
                for (i, y), a in zip(self.pairs, self.coefficients)
                if a > 0.0
            ],
        }


class _Block(NamedTuple):
    """The hull point of one orthogonal block of pairs, before weighting."""

    rows: np.ndarray  # global pair indices
    alpha: np.ndarray  # convex weights over `rows`
    scores: np.ndarray  # the block's gram times alpha
    norm2: float
    iterations: int
    converged: bool


def _hull_descent(
    G: np.ndarray, tol: float, max_iters: int
) -> tuple[np.ndarray, int, bool]:
    """Away-step descent on the convex weights over the gram G, from its
    first vertex; returns the weights, the step count and whether the gap
    closed to `tol`."""
    alpha = np.zeros(len(G), dtype=np.float64)
    alpha[0] = 1.0
    g = G @ alpha
    iterations = 0
    converged = False

    while iterations < max_iters:
        iterations += 1
        norm2 = float(alpha @ g)
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
    return alpha, iterations, converged


def _component_block(
    dataset: Dataset,
    points: np.ndarray,
    sigma: float,
    tol: float,
    max_iters: int,
) -> _Block:
    """Solve one kernel component of two or more points on its own gram."""
    q = len(dataset.classes) - 1
    rows = _pair_rows(points, q)
    d2 = pairwise_sq_dists(dataset.coords[points])
    kernel = np.exp(-d2 / (2.0 * sigma * sigma))
    local = np.repeat(np.arange(len(points)), q)
    G = _pair_gram(
        kernel, local, dataset.label_codes[points][local],
        dataset.wrong_codes[points].ravel(),
        len(dataset.classes),
    )
    alpha, iterations, converged = _hull_descent(G, tol, max_iters)
    alpha = alpha / alpha.sum()  # renormalize, then rescore from scratch
    g = G @ alpha
    return _Block(rows, alpha, g, float(alpha @ g), iterations, converged)


def _isolated_block(points: np.ndarray, q: int) -> _Block:
    """Every isolated point at once, in closed form. Each point's gram block
    is I + J of size q; uniform weights score all its vertices alike, so
    they give its hull point nearest the origin, and the points are
    mutually orthogonal with equal norms, so they share the weight evenly."""
    rows = _pair_rows(points, q)
    alpha = np.full(len(rows), 1.0 / len(rows))
    per_point = alpha.reshape(-1, q)
    scores = (per_point + per_point.sum(axis=1, keepdims=True)).ravel()
    return _Block(rows, alpha, scores, float(alpha @ scores), 0, True)


def margin(
    dataset: Dataset,
    cfg: KernelConfig,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MarginCertificate:
    """Distance from the origin to the difference-vector hull, certified from
    below, one kernel component at a time.

    Two points whose Gaussian kernel entry is exactly 0.0 have exactly
    orthogonal difference vectors, so the pairs split into mutually
    orthogonal blocks along the components of the graph of nonzero kernel
    entries. Let p_k be the point of block k's hull H_k nearest the origin.
    A point of the whole hull is p = sum_k t_k x_k with x_k in H_k and t a
    distribution, and ||p||^2 = sum_k t_k^2 ||x_k||^2 by orthogonality. It is
    smallest at x_k = p_k and t_k proportional to 1 / ||p_k||^2, so

        1 / ||p||^2 = sum_k 1 / ||p_k||^2  and  bound = sum_k bound_k.

    An isolated point's q = |C| - 1 pairs have the gram I + J, whose nearest
    hull point has uniform weights and squared norm 1 + 1/q, so its bound is
    2q / (q + 1) = 2(|C| - 1) / |C| with no iterations; all isolated points
    form one closed-form block. Every other component runs the iterative
    solver on its own gram: starting from its first difference vector (all
    have norm RADIUS), each step moves weight from the currently
    worst-scoring active vertex toward the vertex minimizing p . v, with an
    exact line search, until the component's duality gap falls to `tol` or
    `max_iters` steps run out. A set that is one component thus builds the
    dense gram and takes the same steps as a single solve.

    The certificate weights the blocks' hull points by t_k as above and
    scatters them into the global pair order. That p is a hull point however
    far each solve got, and it scores a vertex v of block k as
    t_k (p_k . v), so delta_hat = min_k t_k min_{v in k} (p_k . v) / ||p|| is
    feasible. With delta_k the block's own feasible margin and
    t_k = ||p||^2 / ||p_k||^2, the gap is

        ||p|| - delta_hat = max_k (||p|| / ||p_k||) (||p_k|| - delta_k),

    at most the largest block gap since ||p|| <= ||p_k||: every component
    converging to `tol` makes the whole certificate converge.

    A set that is one component keeps its solve's own certificate, bit for
    bit. Any other certificate comes from the closed form and the assembly,
    which can reach the exact optimum (two classes of isolated points have
    the exact bound n), so their rounding alone would decide on which side
    of it the float lands. A separable certificate scores every pair
    positively, so that arithmetic, whose longest sum is the m = n(|C| - 1)
    positive terms of alpha . g, moves delta_hat relatively by less than
    (3m/2 + 5) eps / 2. Lowering delta_hat by (m + 4) eps therefore keeps it
    below the exact margin of the assembled hull point, and the bound above
    that point's exact bound. A component's scores count as its solve
    computed them, as they do for a single solve.

    Raises GramBudgetError, before allocating any gram, when the largest
    component's gram of 8 m^2 bytes (m of its pairs) exceeds
    GRAM_BYTE_BUDGET.
    """
    point, wrong = _pair_codes(dataset)
    q = len(dataset.classes) - 1
    isolated, components = _kernel_components(dataset, cfg.sigma)
    largest = max((len(c) for c in components), default=1)
    gram_bytes = 8 * (largest * q) ** 2
    if components and gram_bytes > GRAM_BYTE_BUDGET:
        raise GramBudgetError(
            f"at sigma={cfg.sigma} the largest kernel component has {largest} "
            f"points; its gram needs an estimated {gram_bytes:,} bytes, past "
            f"the budget of {GRAM_BYTE_BUDGET:,} bytes"
        )
    blocks = [
        _component_block(dataset, c, cfg.sigma, tol, max_iters)
        for c in components
    ]
    if len(isolated):
        blocks.append(_isolated_block(isolated, q))

    norms = [b.norm2 for b in blocks]
    if min(norms) > 0.0:
        inverse = [1.0 / n2 for n2 in norms]
        total = sum(inverse)
        weights = [v / total for v in inverse]
    else:  # the origin lies in one block's hull, hence in the whole hull
        origin = next(k for k, n2 in enumerate(norms) if n2 <= 0.0)
        weights = [float(k == origin) for k in range(len(blocks))]
    alpha = np.zeros(len(point), dtype=np.float64)
    g = np.zeros(len(point), dtype=np.float64)
    for block, t in zip(blocks, weights):
        alpha[block.rows] = t * block.alpha
        g[block.rows] = t * block.scores
    norm2 = float(alpha @ g)
    pnorm = math.sqrt(max(norm2, 0.0))
    if pnorm > 0.0:
        delta_hat = float(g.min()) / pnorm
        if len(isolated) or len(components) > 1:
            delta_hat *= 1.0 - (len(point) + 4) * _EPS  # see the docstring
        gap = pnorm - delta_hat
    else:
        delta_hat = 0.0
        gap = 0.0
    converged = all(b.converged for b in blocks) and gap <= tol
    bound = RADIUS * RADIUS / (delta_hat * delta_hat) if delta_hat > 0.0 else math.inf
    return MarginCertificate(
        cfg.sigma,
        delta_hat,
        RADIUS,
        bound,
        gap,
        alpha,
        _pair_list(dataset, point, wrong),
        converged,
        sum(b.iterations for b in blocks),
        len(components) + len(isolated),
        largest,
    )


@dataclass
class BoundReport:
    """A certified (or vacuous) size bound for the condensed prototype set.

    `trivial` says whether the bound is no better than |P| <= n; it and
    `bound_over_n` are None for a vacuous report, as are the solver fields.
    """

    sigma: float
    sigma_certified: bool
    radius: float | None
    delta_hat: float | None
    duality_gap: float | None
    bound: float | None
    prototype_count: int
    satisfied: bool
    n_points: int
    vacuous: bool = False
    iterations: int | None = None
    converged: bool | None = None
    components: int | None = None
    largest_component: int | None = None

    @property
    def bound_over_n(self) -> float | None:
        return None if self.bound is None else self.bound / self.n_points

    @property
    def trivial(self) -> bool | None:
        return None if self.bound is None else self.bound >= self.n_points

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
            "iterations": self.iterations,
            "converged": self.converged,
            "components": self.components,
            "largest_component": self.largest_component,
            "bound_over_n": self.bound_over_n,
            "trivial": self.trivial,
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
            cfg.sigma, False, None, None, None, None, count, True, len(dataset),
            vacuous=True,
        )
    certified = certificate is not None and certificate.covers(cfg.sigma)
    if not certified and not override:
        raise UncertifiedSigmaError(
            f"sigma={cfg.sigma} carries no neighborliness certificate; "
            f"pass override=True to compute an uncertified bound"
        )
    return _bound_report(dataset, cfg, certified, count, tol, max_iters)


def _bound_report(
    dataset: Dataset,
    cfg: KernelConfig,
    certified: bool,
    count: int,
    tol: float,
    max_iters: int,
) -> BoundReport:
    cert = margin(dataset, cfg, tol, max_iters)
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
        len(dataset),
        iterations=cert.iterations,
        converged=cert.converged,
        components=cert.components,
        largest_component=cert.largest_component,
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
    is the scope of this search. Each point's nearest squared distance is
    found once per dataset (`Dataset.nearest_sq_dists`) and shared by every
    grid point's margin.
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
    count = len(run_cnn(dataset).prototypes)
    evaluated: list[BoundReport] = []
    skipped: list[float] = []
    for sigma in sigma_grid:
        cfg = KernelConfig(sigma)
        if analytic is None or not analytic.covers(sigma):
            try:
                verified = verify_neighborly(dataset, cfg) is None
            except ExhaustiveCapError:
                verified = False  # too large to enumerate
            if not verified:
                skipped.append(sigma)
                continue
        evaluated.append(
            _bound_report(dataset, cfg, True, count, tol, max_iters)
        )
    if not evaluated:
        raise NoCertifiedSigmaError(
            f"none of the {len(sigma_grid)} grid bandwidths could be certified"
        )
    best = min(evaluated, key=lambda r: r.bound)
    return GridSearchReport(best, evaluated, skipped)
