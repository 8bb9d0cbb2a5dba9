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

The solver is Wolfe's nearest-point algorithm (P. Wolfe, "Finding the
nearest point in a polytope", Math. Programming 11, 1976) in gram form, run
on each kernel component from one kernel row per corral point; its
`iterations` count major steps, and so does `max_iters`. It reports a
feasible margin delta_hat = min_v (p . v) / ||p|| for its current hull point
p. Feasibility makes 2 / delta_hat^2 a valid bound regardless of how far the
solver converged; the duality gap ||p|| - delta_hat quantifies the remaining
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .cnn import run_cnn
from .dataset import Dataset, _grown, _row_blocks, _take_rows, sq_dists_to
from .kernel_machine import KernelConfig, _check_budget, _replay
from .neighborly import GammaDegenerateError, SigmaCertificate, sufficient_sigma
from .nn_rule import UpdateTrace

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 100_000
# Every difference vector has squared norm exactly 2 (the gram diagonal), so
# the radius is this constant rather than anything computed from the data.
RADIUS = math.sqrt(2.0)
# Bytes the solver of one kernel component may hold in its slot table of
# kernel rows, its corral inverse and the inverse's pending terms, a growing
# buffer's former copy included; it is charged at each growth. Not charged:
# the stall rebuild's transient k x k arrays (about four, k <= the inverse's
# size) and the solve's vectors of one entry per pair or point.
GRAM_BYTE_BUDGET = 2**30
SIGMA_GRID_SIZE = 16
# Rank-one terms `_hull_descent` holds before folding them into its inverse.
_PENDING = 32
_EPS = float(np.finfo(np.float64).eps)


class VacuousBoundError(Exception):
    """A single-class alphabet has no wrong classes and no margin geometry."""


class UncertifiedSigmaError(Exception):
    """No certificate covers the bandwidth, and no trace replay verifies it."""


class NoCertifiedSigmaError(Exception):
    """No bandwidth in the grid could be certified."""


class NotSeparableError(Exception):
    """The solver could not certify a positive margin."""


class GramBudgetError(Exception):
    """A kernel component's solve would hold more than GRAM_BYTE_BUDGET."""


def _pair_rows(points: np.ndarray, q: int) -> np.ndarray:
    """Global pair indices of the given points, in pair order."""
    return (points[:, None] * q + np.arange(q)).ravel()


def _point_kernel_rows(
    dataset: Dataset, points: np.ndarray, cfg: KernelConfig
) -> tuple[Callable[[int], np.ndarray], np.ndarray, np.ndarray]:
    """The kernel rows of the given points, from which the gram of their
    difference vectors follows: the returned `row(j)` makes local point j's
    row, and E and `local` give each pair, in pair order, its channel vector
    and its point.

    Pair (i, y) stands for the feature of point i on its true channel minus
    the same feature on channel y. Inner products never touch feature space:

        <(i, y), (j, y')> = (e_{c_i} - e_y) . (e_{c_j} - e_{y'}) * k(x_i, x_j)

    so with E's rows the channel vectors e_{c_i} - e_y, gram entry (a, b) is
    row(local[a])[local[b]] * (E[a] . E[b]). E[a] . E[b] is a small integer
    and exact, and the kernel row is one `sq_dists_to` row, whose entries are
    exactly symmetric; so the gram is exactly symmetric, and its diagonal is
    exactly 2.
    """
    q = len(dataset.classes) - 1
    coords = _take_rows(dataset.coords, points)
    local = np.repeat(np.arange(len(points)), q)
    eye = np.eye(len(dataset.classes))
    true = dataset.label_codes[points][local]
    E = eye[true] - eye[dataset.wrong_codes[points].ravel()]

    def row(j: int) -> np.ndarray:
        return cfg.kernel(sq_dists_to(coords, coords[j]))

    return row, E, local


def _kernel_components(
    dataset: Dataset, cfg: KernelConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split the points by the graph that links i and j when
    `cfg.kernel(d2[i, j]) > 0.0`, the kernel entry the gram holds.

    Returns the isolated points, then the other components as sorted index
    arrays of at least two points each, ordered by their first point. exp is
    monotone, so a point is isolated exactly when the kernel of its nearest
    other point is 0.0; only the remaining points are searched, breadth
    first, one wave of frontier rows at a time (`_row_blocks`). Those rows
    are `sq_dists_to`'s, like the gram's kernel rows, and exactly symmetric,
    so the links are too.
    """
    coords = dataset.coords
    isolated = cfg.kernel(dataset.nearest_sq_dists) == 0.0
    unseen = np.flatnonzero(~isolated)
    components = []
    while len(unseen):
        frontier, unseen = unseen[:1], unseen[1:]
        members = [frontier]
        while len(frontier) and len(unseen):
            rest = _take_rows(coords, unseen)
            linked = np.zeros(len(unseen), dtype=bool)
            for _, rows in _row_blocks(rest, coords[frontier]):
                linked |= (cfg.kernel(rows) > 0.0).any(axis=0)
            frontier, unseen = unseen[linked], unseen[~linked]
            members.append(frontier)
        components.append(np.sort(np.concatenate(members)))
    return np.flatnonzero(isolated), components


@dataclass
class MarginCertificate:
    """Output of the hull-distance solver.

    `coefficients` are convex weights over `pairs` describing the hull point
    p. `delta_hat` is the feasible margin min_v (p . v) / ||p||; `bound` is
    radius^2 / delta_hat^2, or inf where delta_hat^2 is not positive.
    `duality_gap` is ||p|| - delta_hat. `iterations` sums the solver's major
    steps over the kernel components; `components` counts them, isolated
    points included, and `largest_component` is the point count of the
    largest.
    """

    radius: ClassVar[float] = RADIUS
    sigma: float
    delta_hat: float
    bound: float
    duality_gap: float
    coefficients: np.ndarray
    converged: bool
    iterations: int
    components: int
    largest_component: int
    _dataset: Dataset = field(repr=False, compare=False)

    @cached_property
    def pairs(self) -> list[tuple[int, str]]:
        """(point index, wrong class) of each coefficient: point by point,
        each point's wrong classes in alphabet order. Made on first read,
        as a grid search never reads it, and kept; each certificate has its
        own list. The benchmark's `perfbench/workloads.recomputed_delta`
        reads it to rebuild a dense gram and check `delta_hat`."""
        wrong = self._dataset.wrong_codes
        points = np.repeat(np.arange(len(wrong)), wrong.shape[1])
        names = np.array(self._dataset.classes, dtype=object)[wrong]
        return list(zip(points.tolist(), names.ravel().tolist()))

    @property
    def separable(self) -> bool:
        """Whether the certificate bounds the prototype count: a positive
        margin whose square is positive too, so the bound is finite."""
        return math.isfinite(self.bound)


class _Block(NamedTuple):
    """The hull point of one orthogonal block of pairs, before weighting."""

    rows: np.ndarray  # global pair indices
    alpha: np.ndarray  # convex weights over `rows`
    scores: np.ndarray  # the block's gram times alpha
    norm2: float
    iterations: int
    converged: bool


def _hull_descent(
    row: Callable[[int], np.ndarray],
    E: np.ndarray,
    local: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Wolfe's nearest-point algorithm on the convex weights over the pairs
    of `_point_kernel_rows`, from pair 0, reading the kernel only through
    `row`; returns the last point's weights, renormalized, its scores
    rescored from scratch, the major-step count and whether the gap closed
    to `tol`.

    The corral S holds affinely independent vertices with positive weights
    `lam`. Each major step adds the vertex fw minimizing p . v; minor cycles
    then move to the affine minimizer of S, whose weights are proportional
    to (G_SS + J)^-1 1, stopping at the hull boundary and dropping the
    members that reach zero whenever an affine weight is negative.

    Only the corral's kernel rows are kept, one per corral point in a slot
    table: a point's row is made when its first pair enters and swap-removed
    when its last pair leaves. Everything the solve reads comes from them.
    The scores are p . v = E_v . W[:, j_v] for v on point j_v, where
    W = V^T rows and V holds each slot's channel sums of lam. E_v sums to
    zero, so measuring every channel from the last leaves the scores as
    they are and zeroes the last channel: V and W keep the others, each
    from one scatter and one row product. The column G[S, fw] is fw's point
    row at S's points times E_S . E_fw, as the kernel is exactly symmetric;
    the stall rebuild's G_SS is gathered from the rows alike; and the final
    rescoring reads the kept rows and remakes only those of points the last
    minor cycles dropped.

    The inverse of G_SS + J changes by one rank-one term per member that
    enters (a bordered update) or leaves (a Schur downdate of the last row
    and column, after a swap puts it there). It is kept as
    base + U diag(d) U^T, and the terms in U are folded into `base`
    _PENDING at a time, by one matrix product instead of one pass over its
    |S|^2 entries each. Its row sums `w` are kept current directly. The
    inverse and U grow by a quarter of |S| at a time, never past the pair
    count, and the slot table likewise, never past the point count. Each
    growth, and each first allocation, goes through `grow`, which raises
    GramBudgetError before allocating where the bytes the three hold, with
    the new buffer's, would pass GRAM_BYTE_BUDGET.

    An affine minimizer scores its corral alike, so fw in S is rounding, and
    so is a Schur complement s <= 0, which puts fw in S's affine hull. On
    either stall the inverse is rebuilt from the kept rows' G_SS + J, its
    row sums solved afresh, and the step retried; a second stall before the
    next step ends the solve.
    A step must lower ||p||^2 and keep it above `tol`, or the solve ends at
    the last point: rounding has stalled the corral, or p has reached the
    rounding level of the origin, where every hull point has margin at most
    sqrt(tol) and min_v (p . v) / ||p|| no longer recomputes stably.
    """
    m, channels = E.shape
    n = int(local[-1]) + 1
    q = m // n  # pairs run point by point, q to a point
    true, wrong = E.argmax(axis=1), E.argmin(axis=1)
    F = E[:, :-1].T - E[:, -1]  # each pair's channels, measured from the last
    W = np.zeros((channels, n))  # so W's last row stays zero
    flat = W.ravel()
    at_true, at_wrong = true * n + local, wrong * n + local  # places in W
    corral = np.zeros(1, dtype=np.intp)
    owner: list[int] = []  # the point of each slot in use
    slot = np.full(n, -1, dtype=np.intp)
    table = base = U = np.empty((0, 0))

    def grow(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """`_grown(buf, shape)`, charged with what the table, the inverse
        and U hold, `buf` among them, and the new buffer."""
        held = table.nbytes + base.nbytes + U.nbytes + 8 * shape[0] * shape[1]
        if held > GRAM_BYTE_BUDGET:
            raise GramBudgetError(
                f"a kernel component of {n} points, at a corral of "
                f"{len(corral)} pairs on {len(owner)} points, would hold "
                f"{held:,} bytes, past the budget of {GRAM_BYTE_BUDGET:,} bytes"
            )
        return _grown(buf, shape)

    def admit(j: int, kernel_row: np.ndarray) -> None:
        """Give point j the next slot, holding `kernel_row`."""
        nonlocal table
        if len(owner) == len(table):
            table = grow(table, (min(n, len(table) + len(table) // 4), n))
        slot[j] = len(owner)
        table[len(owner)] = kernel_row
        owner.append(j)

    def evict(j: int) -> None:
        """Free point j's slot, moving the last slot's row into it."""
        last = owner.pop()
        if last != j:
            table[slot[j]] = table[len(owner)]
            owner[slot[j]] = last
            slot[last] = slot[j]
        slot[j] = -1

    def scores(pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """G @ x for the x with `weights` on `pairs`, whose points all hold
        slots."""
        at = slot[local[pairs]]
        for ch in range(channels - 1):
            v = np.zeros(len(owner))
            np.add.at(v, at, weights * F[ch, pairs])
            np.matmul(v, table[: len(owner)], out=W[ch])
        return flat[at_true] - flat[at_wrong]

    lam = np.ones(1)
    table = grow(table, (min(n, 64), n))
    admit(0, row(0))
    w = np.array([1.0 / (2.0 * table[0, 0] + 1.0)])
    size = min(m, 64)
    base = grow(base, (size, size))
    base[0, 0] = w[0]
    U = grow(U, (size, _PENDING))
    d = np.empty(_PENDING)
    r = 0  # terms pending in U and d
    in_corral = np.zeros(m, dtype=bool)
    in_corral[0] = True
    support, weights = corral.copy(), lam  # the last point p
    g = scores(corral, lam)
    norm2 = float(lam @ g[corral])
    iterations = 0
    converged = rebuilt = False

    def push(v: np.ndarray, coefficient: float) -> None:
        """Add coefficient * v v^T to the inverse's first len(v) rows and
        columns."""
        nonlocal r
        if r == _PENDING:
            base[: len(v), : len(v)] += (U[: len(v)] * d) @ U[: len(v)].T
            r = 0
        U[: len(v), r], d[r] = v, coefficient
        r += 1

    def schur(c: np.ndarray, diagonal: float) -> tuple[np.ndarray, float]:
        """(G_SS + J)^-1 c and the Schur complement of bordering by c."""
        k = len(c)
        u = base[:k, :k] @ c + U[:k, :r] @ (d[:r] * (c @ U[:k, :r]))
        return u, float(diagonal + 1.0 - c @ u)

    while iterations < max_iters:
        iterations += 1
        fw = int(np.argmin(g))
        pnorm = math.sqrt(norm2)
        if pnorm - float(g[fw]) / pnorm <= tol:
            converged = True
            break
        k = len(corral)
        s = 0.0
        if not in_corral[fw]:
            j = int(local[fw])
            new = row(j) if slot[j] < 0 else table[slot[j]]
            # E_S . E_fw is E_S's channel c less its channel y, for
            # E_fw = e_c - e_y; so E_fw . E_fw = 2
            c = E[corral, true[fw]] - E[corral, wrong[fw]]
            c *= new[local[corral]]
            c += 1.0
            diagonal = 2.0 * new[j]
            u, s = schur(c, diagonal)
        if s <= 0.0:
            if rebuilt:
                break
            rebuilt = True
            # w from a backward-stable solve, so that the corral's scores
            # agree to rounding, where the inverse's row sums need not
            points = local[corral]
            gram_j = table[np.ix_(slot[points], points)] * (
                E[corral] @ E[corral].T
            ) + 1.0
            try:
                base[:k, :k] = np.linalg.inv(gram_j)
                w = np.linalg.solve(gram_j, np.ones(k))
            except np.linalg.LinAlgError:
                break
            r = 0
            if not in_corral[fw]:
                u, s = schur(c, diagonal)
        if s > 0.0:
            if k == len(base):
                size = min(m, k + k // 4)
                base = grow(base, (size, size))
                U = grow(U, (size, _PENDING))
            if slot[j] < 0:
                admit(j, new)
            # bordered update: the old inverse padded with a zero row and
            # column, plus [u; -1] [u; -1]^T / s
            base[k, : k + 1] = base[:k, k] = 0.0
            U[k, :r] = 0.0
            push(np.append(u, -1.0), 1.0 / s)
            su = float(u.sum())
            w = np.append(w + u * ((su - 1.0) / s), (1.0 - su) / s)
            corral = np.append(corral, fw)
            lam = np.append(lam, 0.0)
            in_corral[fw] = True
            k += 1
        while True:  # minor cycles
            mu = w / w.sum()
            out = np.flatnonzero(mu < 0.0)
            if not len(out):
                lam = mu
                break
            ratio = lam[out] / (lam[out] - mu[out])
            lam = lam + float(ratio.min()) * (mu - lam)
            lam[out[np.argmin(ratio)]] = 0.0  # the blocking member, exactly
            # from the back, so that the swapped-in last member always stays
            for i in np.flatnonzero(lam <= 0.0)[::-1]:
                k -= 1
                order, swap = [i, k], [k, i]
                corral[order], lam[order], w[order] = (
                    corral[swap], lam[swap], w[swap]
                )
                base[order, : k + 1] = base[swap, : k + 1]
                base[: k + 1, order] = base[: k + 1, swap]
                U[order, :r] = U[swap, :r]
                # Schur downdate: the leading block less b b^T / beta, where
                # [b; beta] is the inverse's last column
                col = base[: k + 1, k] + U[: k + 1, :r] @ (d[:r] * U[k, :r])
                push(col[:k], -1.0 / col[k])
                w = w[:k] - col[:k] * (w[k] / col[k])
                in_corral[corral[k]] = False
                gone = int(local[corral[k]])
                if not in_corral[gone * q : (gone + 1) * q].any():
                    evict(gone)
                corral, lam = corral[:k], lam[:k]
        g_step = scores(corral, lam)
        norm2_step = float(lam @ g_step[corral])
        if not tol < norm2_step < norm2:
            break
        support, weights = corral.copy(), lam.copy()
        g, norm2, rebuilt = g_step, norm2_step, False
    alpha = np.zeros(m, dtype=np.float64)
    alpha[support] = weights / weights.sum()
    for j in np.unique(local[support]):
        if slot[j] < 0:  # dropped since p was reached
            admit(int(j), row(int(j)))
    return alpha, scores(support, alpha[support]), iterations, converged


def _component_block(
    dataset: Dataset,
    points: np.ndarray,
    cfg: KernelConfig,
    tol: float,
    max_iters: int,
) -> _Block:
    """Solve one kernel component of two or more points from its kernel
    rows."""
    rows = _pair_rows(points, len(dataset.classes) - 1)
    alpha, g, iterations, converged = _hull_descent(
        *_point_kernel_rows(dataset, points, cfg), tol, max_iters
    )
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


def _check_solver(tol: float, max_iters: int) -> None:
    """Refuse, with ValueError, a negative or non-finite `tol` or a
    `max_iters` that is not an integer of at least 1."""
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    _check_budget("max_iters", max_iters)


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
    form one closed-form block. Every other component runs Wolfe's
    nearest-point algorithm on its own gram (`_hull_descent`): starting from
    its first difference vector (all have norm RADIUS), each major step adds
    the vertex minimizing p . v to a corral of vertices and moves p to the
    point of the corral's hull nearest the origin, until the component's
    duality gap falls to `tol`, `max_iters` major steps run out, or rounding
    stops the descent. `iterations` counts those major steps. The solve
    makes a point's kernel row only when the point's first pair enters the
    corral, and keeps one row per corral point, from which it derives the
    gram entries it reads, so no m x m gram is formed; a set that is one
    component takes the same steps as a single solve.

    The certificate weights the blocks' hull points by t_k as above and
    scatters them into the global pair order. That p is a hull point however
    far each solve got, and it scores a vertex v of block k as
    t_k (p_k . v), so delta_hat = min_k t_k min_{v in k} (p_k . v) / ||p|| is
    feasible. With delta_k the block's own feasible margin and
    t_k = ||p||^2 / ||p_k||^2, the gap is

        ||p|| - delta_hat = max_k (||p|| / ||p_k||) (||p_k|| - delta_k),

    at most the largest block gap since ||p|| <= ||p_k||: every component
    converging to `tol` makes the whole certificate converge.

    Both the closed form and the solver can reach the exact optimum (two
    classes of isolated points have the exact bound n; two points of
    different classes converge to their exact midpoint), so rounding alone
    would decide on which side of it the float lands. A separable
    certificate scores every pair positively, so the assembly, whose longest
    sum is the m = n(|C| - 1) positive terms of alpha . g, moves delta_hat
    relatively by less than (3m/2 + 5) eps / 2. Lowering delta_hat by
    (m + 4) eps therefore keeps it below the exact margin of the hull point,
    and the bound above that point's exact bound. A component's scores count
    as its solve computed them.

    Raises ValueError as `_check_solver` does, before any other work, and
    GramBudgetError where a component's solve would grow what it holds past
    GRAM_BYTE_BUDGET: its slot table of kernel rows, its corral inverse and
    the inverse's pending terms. The solve charges them as they grow, so a
    refusal can come after some of its steps.
    """
    _check_solver(tol, max_iters)
    if len(dataset.classes) < 2:
        raise VacuousBoundError(
            "a single-class alphabet admits no difference vectors"
        )
    wrong = dataset.wrong_codes
    m, q = wrong.size, wrong.shape[1]
    isolated, components = _kernel_components(dataset, cfg)
    try:
        blocks = [
            _component_block(dataset, c, cfg, tol, max_iters) for c in components
        ]
    except GramBudgetError as exc:
        raise GramBudgetError(f"at sigma={cfg.sigma}, {exc}") from None
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
    alpha = np.zeros(m, dtype=np.float64)
    g = np.zeros(m, dtype=np.float64)
    for block, t in zip(blocks, weights):
        alpha[block.rows] = t * block.alpha
        g[block.rows] = t * block.scores
    norm2 = float(alpha @ g)
    pnorm = math.sqrt(max(norm2, 0.0))
    if pnorm > 0.0:
        delta_hat = float(g.min()) / pnorm * (1.0 - (m + 4) * _EPS)
        gap = pnorm - delta_hat
    else:
        delta_hat = 0.0
        gap = 0.0
    converged = all(b.converged for b in blocks) and gap <= tol
    # a positive delta_hat below about 1.5e-162 squares to 0.0: no finite bound
    bound = math.inf
    if delta_hat > 0.0 and delta_hat * delta_hat > 0.0:
        bound = RADIUS * RADIUS / (delta_hat * delta_hat)
    return MarginCertificate(
        cfg.sigma,
        delta_hat,
        bound,
        gap,
        alpha,
        converged,
        sum(b.iterations for b in blocks),
        len(components) + len(isolated),
        max((len(c) for c in components), default=1),
        dataset,
    )


@dataclass
class BoundReport:
    """A certified (or vacuous) size bound for the condensed prototype set:
    the margin certificate at `sigma` and the prototype count it bounds.

    `trivial` says whether the bound is no better than |P| <= n. A vacuous
    report, for single-class data, has no certificate: what it reads from
    one is None, and its one prototype satisfies it.
    """

    sigma: float
    sigma_certified: bool
    prototype_count: int
    n_points: int
    certificate: MarginCertificate | None

    def _read(self, name: str):
        """The certificate's `name`, or None for a vacuous report."""
        return None if self.certificate is None else getattr(self.certificate, name)

    @property
    def vacuous(self) -> bool:
        return self.certificate is None

    @property
    def bound(self) -> float | None:
        return self._read("bound")

    @property
    def delta_hat(self) -> float | None:
        return self._read("delta_hat")

    @property
    def satisfied(self) -> bool:
        return self.vacuous or self.prototype_count <= self.bound

    @property
    def bound_over_n(self) -> float | None:
        return None if self.vacuous else self.bound / self.n_points

    @property
    def trivial(self) -> bool | None:
        return None if self.vacuous else self.bound >= self.n_points

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "sigma_certified": self.sigma_certified,
            "R": self._read("radius"),
            "delta_hat": self.delta_hat,
            "duality_gap": self._read("duality_gap"),
            "bound": self.bound,
            "prototype_count": self.prototype_count,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "iterations": self._read("iterations"),
            "converged": self._read("converged"),
            "components": self._read("components"),
            "largest_component": self._read("largest_component"),
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

    The bound counts perceptron updates (Novikoff), so it holds for the
    condensed set where condensation's run is a perceptron run: where
    `certificate` covers sigma, or else where the perceptron replays
    condensation's `trace` (trace verification, `kernel_machine._replay`; a
    neighborly sigma always passes). The perceptron scans in dataset order,
    so above the certificate a `trace` of a shuffled scan is certified only
    where the dataset-order perceptron happens to log the same events.
    Either way the updates counted are the float perceptron's; one
    made where the true class's exact score led by less than rounding is
    not accounted for. An uncertified sigma is refused unless `override` is
    set, which skips the trace check. A single-class dataset yields the
    vacuous report (one prototype).

    `trace` must be a condensation of `dataset` itself, and `certificate`
    equal to `sufficient_sigma(dataset)`; either drawn from another dataset
    raises ValueError. Tied data and a single point have no certificate, so
    any certificate given for them is refused, and so, before any other
    work, are the `tol` and `max_iters` that `margin` refuses.
    """
    _check_solver(tol, max_iters)
    if trace is None:
        trace = run_cnn(dataset)
    elif trace.prototypes.parent is not dataset:
        raise ValueError("trace was not drawn from this dataset")
    if certificate is not None and not _is_own_certificate(certificate, dataset):
        raise ValueError("certificate is not this dataset's sufficient_sigma")
    count = len(trace.prototypes)
    if len(dataset.classes) < 2:
        return BoundReport(cfg.sigma, False, count, len(dataset), None)
    covered = certificate is not None and certificate.covers(cfg.sigma)
    certified = covered or (
        not override and _replay(dataset, cfg, trace).events == trace.events
    )
    if not (certified or override):
        raise UncertifiedSigmaError(
            f"sigma={cfg.sigma} is neither analytically certified nor "
            f"trace-verified; pass override=True to compute an uncertified bound"
        )
    cert = margin(dataset, cfg, tol, max_iters)
    if not cert.separable:
        raise NotSeparableError(
            f"no positive margin certified at sigma={cfg.sigma}"
            if cert.delta_hat <= 0.0 else
            f"delta_hat={cert.delta_hat!r} at sigma={cfg.sigma} squares to "
            f"0.0, so no finite bound is certified"
        )
    return BoundReport(cfg.sigma, certified, count, len(dataset), cert)


def _is_own_certificate(certificate: SigmaCertificate, dataset: Dataset) -> bool:
    """Whether `certificate` is `sufficient_sigma(dataset)`, read from the
    dataset's cached squared-distance gap."""
    try:
        return certificate == sufficient_sigma(dataset)
    except (GammaDegenerateError, ValueError):  # a tie, or a single point
        return False


def default_sigma_grid(sigma_star: float) -> list[float]:
    """Geometric grid of SIGMA_GRID_SIZE points from sigma*/100 up to the
    largest float below sigma*, which the analytic certificate, strict at
    sigma* itself, still covers."""
    lo, hi = sigma_star / 100.0, sigma_star
    last = SIGMA_GRID_SIZE - 1
    grid = [lo * (hi / lo) ** (i / last) for i in range(last)]
    return grid + [math.nextafter(sigma_star, 0.0)]


@dataclass
class GridSearchReport:
    """Per-bandwidth bound reports, and the bandwidths skipped uncertified."""

    evaluated: list[BoundReport]
    skipped_sigmas: list[float]

    @property
    def best(self) -> BoundReport:
        """The smallest bound, the first of equals. A vacuous report, whose
        bound is None, is only evaluated alone, so it is never compared."""
        return min(self.evaluated, key=lambda r: r.bound)

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

    Each grid point is certified as `cnn_bound` certifies it: by the
    analytic threshold, or else by the perceptron replaying condensation's
    trace; the points it refuses are skipped. The true optimum is an infimum
    over all certified bandwidths; a finite grid can only approach it, which
    is the scope of this search. The analytic threshold's sorting pass over
    all pairs also finds each point's nearest squared distance
    (`Dataset.nearest_sq_dists`), which every grid point's margin shares, so
    the search runs one all-pairs pass. The `tol` and `max_iters` that
    `margin` refuses, an empty grid and a grid point that `KernelConfig`
    refuses are refused first, with ValueError.
    """
    _check_solver(tol, max_iters)
    configs = None if sigma_grid is None else [KernelConfig(s) for s in sigma_grid]
    if configs == []:
        raise ValueError("the sigma grid needs at least one bandwidth")
    if len(dataset.classes) < 2:
        vacuous = cnn_bound(dataset, KernelConfig(1.0), tol=tol, max_iters=max_iters)
        return GridSearchReport([vacuous], [])
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
        configs = [KernelConfig(s) for s in default_sigma_grid(analytic.sigma_star)]
    cnn = run_cnn(dataset)
    evaluated: list[BoundReport] = []
    skipped: list[float] = []
    for cfg in configs:
        try:
            evaluated.append(
                cnn_bound(dataset, cfg, analytic, tol, max_iters, trace=cnn)
            )
        except UncertifiedSigmaError:
            skipped.append(cfg.sigma)
    if not evaluated:
        raise NoCertifiedSigmaError(
            f"none of the {len(configs)} grid bandwidths could be certified"
        )
    return GridSearchReport(evaluated, skipped)
