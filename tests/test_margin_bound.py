"""Gram-space margin geometry, the hull-distance solver, and size bounds."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

import protobound as pb
from conftest import TINY_SIGMAS
from sweep_oracles import oracle_pairwise_sq_dists
from protobound import margin_bound
from protobound.kernel_machine import _replay


def two_point(d=2.0):
    return pb.Dataset([((0.0,), "A"), ((d,), "B")])


def sigma_for_kernel(k, d=2.0):
    # solve exp(-d^2 / (2 sigma^2)) = k
    return d / math.sqrt(2.0 * math.log(1.0 / k))


def full_run_agrees(dataset, sigma):
    """Whether a full perceptron run at sigma, up to its default 1,000
    passes, replays condensation's events: trace verification's oracle."""
    try:
        mp_trace, _ = pb.run_mp(dataset, pb.KernelConfig(sigma))
    except pb.PassBudgetError:
        return False
    return mp_trace.events == pb.run_cnn(dataset).events


def full_gram(dataset, cfg):
    """The producer's kernel rows over every point, expanded to the whole
    set's pair gram in pair order: entry (a, b) is the kernel row of a's
    point at b's point times E[a] . E[b], the floats the solver reads."""
    row, E, local = margin_bound._point_kernel_rows(
        dataset, np.arange(len(dataset)), cfg
    )
    K = np.array([row(j) for j in range(len(dataset))]).reshape(len(dataset), -1)
    return K[np.ix_(local, local)] * (E @ E.T)


def four_mask_gram(dataset, cfg):
    """The gram as four m x m indicator masks times the kernel: the
    construction the channel identity replaced, kept as its oracle. Pairs run
    point by point, then over each point's wrong classes in alphabet order."""
    wrong = dataset.wrong_codes
    pt = np.repeat(np.arange(len(dataset)), wrong.shape[1])
    wc = wrong.ravel()
    lc = dataset.label_codes[pt]
    d2 = oracle_pairwise_sq_dists(dataset.coords)
    kernel = np.exp(-d2 / (2.0 * cfg.sigma * cfg.sigma))
    signs = (
        (lc[:, None] == lc[None, :]).astype(np.float64)
        - (lc[:, None] == wc[None, :])
        - (wc[:, None] == lc[None, :])
        + (wc[:, None] == wc[None, :])
    )
    return signs * kernel[np.ix_(pt, pt)]


class DenseMargin(NamedTuple):
    delta_hat: float
    bound: float
    duality_gap: float
    coefficients: np.ndarray
    converged: bool
    iterations: int
    norm: float  # ||p||, the hull point's norm


def dense_margin(dataset, cfg, tol=pb.DEFAULT_TOL, max_iters=pb.DEFAULT_MAX_ITERS):
    """One away-step descent over the whole m x m gram: the solver that
    per-component solving and then Wolfe's algorithm replaced, kept as their
    oracle. It reports the solve's own rounding, without the allowance
    `margin` takes off delta_hat."""
    G = four_mask_gram(dataset, cfg)
    alpha = np.zeros(len(G), dtype=np.float64)
    alpha[0] = 1.0
    g = G @ alpha
    iterations = 0
    converged = False
    while iterations < max_iters:
        iterations += 1
        norm2 = float(alpha @ g)
        if norm2 <= 0.0:
            break
        fw = int(np.argmin(g))
        pnorm = math.sqrt(norm2)
        if pnorm - float(g[fw]) / pnorm <= tol:
            converged = True
            break
        away = int(np.argmax(np.where(alpha > 0.0, g, -np.inf)))
        num = float(g[away] - g[fw])
        denom = float(G[fw, fw] + G[away, away] - 2.0 * G[fw, away])
        if num <= 0.0 or denom <= 0.0:
            converged = True
            break
        lam = min(num / denom, float(alpha[away]))
        alpha[fw] += lam
        if lam == float(alpha[away]):
            alpha[away] = 0.0
        else:
            alpha[away] -= lam
        g = g + lam * (G[fw] - G[away])
        if iterations % 256 == 0:
            g = G @ alpha
    alpha = alpha / alpha.sum()
    g = G @ alpha
    pnorm = math.sqrt(max(float(alpha @ g), 0.0))
    delta_hat = float(g.min()) / pnorm if pnorm > 0.0 else 0.0
    gap = pnorm - delta_hat if pnorm > 0.0 else 0.0
    bound = math.inf
    if delta_hat > 0.0:
        bound = pb.RADIUS * pb.RADIUS / (delta_hat * delta_hat)
    return DenseMargin(
        delta_hat, bound, gap, alpha, converged and gap <= tol, iterations, pnorm
    )


PENDING = 32  # rank-one terms the oracle holds before folding them


def dense_hull_descent(G, tol, max_iters):
    """Wolfe's nearest-point algorithm over a dense m x m gram, scoring every
    vertex with one `G @ step` per major step and ending at its first stall:
    `_hull_descent` as it was before the row store, kept as its oracle.
    Returns the weights, the major-step count and whether the gap closed to
    `tol`."""
    m = len(G)
    corral = np.zeros(1, dtype=np.intp)
    lam = np.ones(1)
    w = np.array([1.0 / (G[0, 0] + 1.0)])
    base = np.zeros((min(m, 64), min(m, 64)))
    base[0, 0] = w[0]
    U = np.empty((len(base), PENDING))
    d = np.empty(PENDING)
    r = 0  # terms pending in U and d
    in_corral = np.zeros(m, dtype=bool)
    in_corral[0] = True
    alpha = np.zeros(m, dtype=np.float64)
    alpha[0] = 1.0
    g = G @ alpha
    norm2 = float(alpha @ g)
    iterations = 0

    def push(v: np.ndarray, coefficient: float) -> None:
        """Add coefficient * v v^T to the inverse's first len(v) rows and
        columns."""
        nonlocal r
        if r == PENDING:
            base[: len(v), : len(v)] += (U[: len(v)] * d) @ U[: len(v)].T
            r = 0
        U[: len(v), r], d[r] = v, coefficient
        r += 1

    while iterations < max_iters:
        iterations += 1
        fw = int(np.argmin(g))
        pnorm = math.sqrt(norm2)
        if pnorm - float(g[fw]) / pnorm <= tol:
            return alpha, iterations, True
        # an affine minimizer scores its corral alike, so fw in S is rounding
        if in_corral[fw]:
            break
        k = len(corral)
        # G is exactly symmetric, so its contiguous rows equal its columns
        c = G[fw, corral] + 1.0
        u = base[:k, :k] @ c + U[:k, :r] @ (d[:r] * (c @ U[:k, :r]))
        s = float(G[fw, fw] + 1.0 - c @ u)
        if s <= 0.0:
            break  # fw lies in S's affine hull to rounding
        if k == len(base):
            size = min(m, 2 * k)
            base = np.pad(base, (0, size - k))
            U = np.pad(U, ((0, size - k), (0, 0)))
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
                corral, lam = corral[:k], lam[:k]
        step = np.zeros(m, dtype=np.float64)
        step[corral] = lam
        g_step = G @ step
        norm2_step = float(step @ g_step)
        if not tol < norm2_step < norm2:
            break
        alpha, g, norm2 = step, g_step, norm2_step
    return alpha, iterations, False


def component_grams(cases):
    """(dataset, cfg, points, the component's four-mask gram) for every
    kernel component of two or more points in `cases`."""
    for ds, cfg in cases:
        G = four_mask_gram(ds, cfg)
        q = len(ds.classes) - 1
        for points in margin_bound._kernel_components(ds, cfg)[1]:
            rows = margin_bound._pair_rows(points, q)
            yield ds, cfg, points, G[np.ix_(rows, rows)]


def assert_kkt(dataset, cfg, cert, tol=pb.DEFAULT_TOL):
    """Optimality of a converged certificate on every kernel component: the
    component's own hull point p scores each of its vertices at least
    ||p||^2 - tol ||p||, the gap test a converged solve stops on."""
    G = four_mask_gram(dataset, cfg)
    point = np.array([i for i, _ in cert.pairs])
    for members in union_find_components(dataset, cfg.sigma):
        rows = np.flatnonzero(np.isin(point, list(members)))
        alpha = cert.coefficients[rows] / cert.coefficients[rows].sum()
        g = G[np.ix_(rows, rows)] @ alpha
        norm2 = float(alpha @ g)
        assert g.min() >= norm2 - tol * math.sqrt(norm2)


def union_find_components(dataset, sigma):
    """The kernel components by union-find over every off-diagonal pair."""
    d2 = oracle_pairwise_sq_dists(dataset.coords)
    linked = np.exp(-d2 / (2.0 * sigma * sigma)) > 0.0
    n = len(dataset)
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked[i, j]:
                parent[root(j)] = root(i)
    groups = {}
    for i in range(n):
        groups.setdefault(root(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def component_cases():
    """Fuzzed and blob sets from diameter/200 up to the diameter, where the
    kernel ranges from all-isolated through mixed to one component."""
    blobs = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]
    sets = [pb.fuzz_dataset(seed, max_n=16, max_classes=4) for seed in range(24)]
    sets += [pb.generate_blobs(seed, 4, blobs, 0.8) for seed in range(8)]
    for ds in sets:
        if len(ds.classes) < 2:
            continue
        diam = ds.diameter()
        for frac in (1 / 200, 1 / 50, 1 / 10, 1 / 3, 1.0):
            yield ds, pb.KernelConfig(frac * diam)


def gram_cases():
    """Fuzzed sets in d in {1, 2, 3, 9, 17} with 2-5 classes, each at a
    sparse, a mixed and a dense bandwidth."""
    for dim in (1, 2, 3, 9, 17):
        for seed in range(4):
            ds = pb.random_dataset(
                100 * dim + seed, 5 + 3 * seed, dim, 2 + (seed + dim) % 4
            )
            diam = ds.diameter()
            for sigma in (diam / 20, diam / 3, 2 * diam):
                yield ds, pb.KernelConfig(sigma)


class TestDifferenceVectorSet:
    """The difference vectors' gram, as `_point_kernel_rows`' kernel rows
    expand to it over every point, against the pair order `margin` reports."""

    def test_pairs_enumerate_point_wrong_class(self, line3):
        cert = pb.margin(line3, pb.KernelConfig(1.0))
        assert cert.pairs == [(0, "B"), (1, "A"), (2, "A")]
        assert len(full_gram(line3, pb.KernelConfig(1.0))) == 3

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_pairs_equal_the_per_pair_listing(self, k):
        # the alphabet runs in first-appearance order, here not sorted
        names = "EDCBA"[-k:]
        ds = pb.Dataset(
            [((float(i), float(i % 3)), names[(k - 1) * i % k]) for i in range(12)]
        )
        assert list(ds.classes) != sorted(ds.classes)
        cfg = pb.KernelConfig(0.8)
        cert = pb.margin(ds, cfg)
        want = [(i, ds.classes[y])
                for i, row in enumerate(ds.wrong_codes.tolist()) for y in row]
        assert cert.pairs == want
        assert {(type(i), type(y)) for i, y in cert.pairs} == {(int, str)}
        # each certificate owns its list
        other = pb.margin(ds, cfg)
        cert.pairs.clear()
        assert other.pairs == want

    def test_gram_matches_indicator_formula(self):
        cfg = pb.KernelConfig(1.3)
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=8, max_dim=2, max_classes=3)
            G = full_gram(ds, cfg)
            pairs = pb.margin(ds, cfg).pairs
            for a, (i, y) in enumerate(pairs):
                for b, (j, yp) in enumerate(pairs):
                    ci, cj = ds[i].label, ds[j].label
                    sign = (
                        (ci == cj) - (ci == yp) - (y == cj) + (y == yp)
                    )
                    d2 = sum((u - v) ** 2 for u, v in zip(ds[i].coords, ds[j].coords))
                    k = math.exp(-d2 / (2.0 * cfg.sigma * cfg.sigma))
                    want = sign * k
                    assert G[a, b] == pytest.approx(want, abs=1e-14)

    def test_gram_equals_four_mask_oracle_bit_for_bit(self):
        classes = set()
        for ds, cfg in gram_cases():
            G = full_gram(ds, cfg)
            assert G.tobytes() == four_mask_gram(ds, cfg).tobytes()
            classes.add(len(ds.classes))
        assert classes == {2, 3, 4, 5}

    def test_gram_is_exactly_symmetric(self):
        # the solver reads rows where the update needs columns
        for ds, cfg in gram_cases():
            G = full_gram(ds, cfg)
            assert np.array_equal(G, G.T)

    def test_diagonal_is_exactly_two(self):
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=3)
            G = full_gram(ds, pb.KernelConfig(0.7))
            assert list(np.diag(G)) == [2.0] * len(G)

    def test_gram_is_positive_semidefinite(self):
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=8, max_classes=3)
            G = full_gram(ds, pb.KernelConfig(1.0))
            assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_single_class_is_vacuous(self):
        ds = pb.Dataset([((0.0,), "A"), ((1.0,), "A")])
        with pytest.raises(pb.VacuousBoundError):
            pb.margin(ds, pb.KernelConfig(1.0))


class TestRadius:
    def test_sqrt_two_machine_exact(self):
        assert pb.RADIUS == math.sqrt(2)
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=4)
            cfg = pb.KernelConfig(0.3)
            # the constant is the largest difference-vector norm
            diag = np.diag(full_gram(ds, cfg))
            assert math.sqrt(diag.max()) == pb.RADIUS
            assert pb.margin(ds, cfg).radius == math.sqrt(2)


class TestMarginSolver:
    def test_two_point_closed_form(self):
        # the hull of the two difference vectors has its closest point at the
        # midpoint, giving delta = sqrt(1 - k)
        for k in (0.1, 0.5, 0.9):
            cfg = pb.KernelConfig(sigma_for_kernel(k))
            cert = pb.margin(two_point(), cfg)
            assert cert.delta_hat == pytest.approx(math.sqrt(1 - k), abs=1e-12)
            assert cert.bound == pytest.approx(2 / (1 - k), rel=1e-12)
            assert cert.converged
            assert cert.iterations == 2
            assert cert.duality_gap <= pb.DEFAULT_TOL
            assert cert.radius == math.sqrt(2)

    def test_two_point_certificates_never_optimistic(self):
        # the solver reaches the exact midpoint, whose margin is sqrt(1 - k)
        # for the gram's own kernel value k; the allowance must keep the
        # reported margin at or below it
        cfg = pb.KernelConfig(1.0)
        for d in np.linspace(0.5, 3.0, 400):
            ds = two_point(float(d))
            k = -full_gram(ds, cfg)[0, 1] / 2.0  # the entry is -2k exactly
            cert = pb.margin(ds, cfg)
            assert cert.components == 1 and cert.converged
            assert Fraction(cert.delta_hat) ** 2 <= 1 - Fraction(k)

    def test_isolated_where_every_log_kernel_overflows(self, gap3):
        for sigma in TINY_SIGMAS:
            cert = pb.margin(gap3, pb.KernelConfig(sigma))
            assert (cert.components, cert.largest_component) == (3, 1)
            assert 3.0 <= cert.bound <= 3.0 * (1 + 1e-12)

    def test_two_isolated_points(self):
        # exp(-1250) is 0.0, so the two difference vectors are orthogonal,
        # each of norm sqrt(2): the hull's nearest point is their midpoint
        cert = pb.margin(two_point(1.0), pb.KernelConfig(0.02))
        assert (cert.components, cert.largest_component) == (2, 1)
        assert cert.delta_hat == pytest.approx(1.0, abs=1e-14)
        assert cert.bound == pytest.approx(2.0, rel=1e-12)
        assert cert.iterations == 0  # isolated points need no solve

    def test_tiny_sigma_limit_is_pair_count(self, line3):
        # kernels vanish, the vectors go orthogonal, and the min-norm point
        # of m orthogonal vectors of squared norm 2 has delta^2 = 2/m
        cert = pb.margin(line3, pb.KernelConfig(1e-3))
        assert cert.bound == pytest.approx(3.0, rel=1e-6)

    def test_coefficients_are_a_distribution_on_support(self, line3):
        cfg = pb.KernelConfig(0.3)
        cert = pb.margin(line3, cfg)
        alpha = cert.coefficients
        assert np.all(alpha >= 0.0)
        assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_norm_never_increases_with_budget(self, line3):
        # ||p|| = delta_hat + duality_gap, for every budget of major steps up
        # to convergence
        cfg = pb.KernelConfig(0.3)
        certs = [pb.margin(line3, cfg, max_iters=k) for k in range(1, 31)]
        assert certs[-1].converged and not certs[0].converged
        norms = [c.delta_hat + c.duality_gap for c in certs]
        assert norms[0] <= math.sqrt(2)  # below the starting vertex's norm
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_budget_exhaustion_still_feasible(self, line3):
        cert = pb.margin(line3, pb.KernelConfig(0.3), max_iters=1)
        assert cert.iterations == 1 and not cert.converged
        assert cert.separable
        assert cert.duality_gap > pb.DEFAULT_TOL
        # feasibility: delta_hat never exceeds the converged value
        full = pb.margin(line3, pb.KernelConfig(0.3))
        assert cert.delta_hat <= full.delta_hat + 1e-12

    def test_overlapping_classes_are_not_separable(self):
        ds = pb.Dataset(
            [((0.0,), "A"), ((0.5,), "B"), ((0.6,), "A"), ((1.0,), "B")]
        )
        cert = pb.margin(ds, pb.KernelConfig(50.0))
        assert not cert.separable
        assert cert.bound == math.inf
        # an isolated point beside the overlap leaves the whole hull unseparable
        far = pb.Dataset(list(ds) + [pb.LabeledPoint((1e6,), "A")])
        cert = pb.margin(far, pb.KernelConfig(50.0), max_iters=1_000)
        assert (cert.components, cert.largest_component) == (2, 4)
        assert not cert.separable
        assert cert.bound == math.inf

    @pytest.mark.parametrize(
        "dataset, sigma",
        [
            (pb.Dataset([((0.0,), "A"), ((1.0,), "A"), ((2.0,), "A"),
                         ((100.0,), "B")]), math.sqrt(1 / 920)),
            (pb.fuzz_dataset(385, max_n=12, max_dim=2, max_classes=3), 1e-3),
        ],
        ids=["chain4", "fuzz385"],
    )
    def test_margin_squaring_to_zero_has_no_finite_bound(self, dataset, sigma):
        # one major step leaves a positive delta_hat below about 1.5e-162,
        # whose square is 0.0: the bound is inf, as for a non-positive margin
        cert = pb.margin(dataset, pb.KernelConfig(sigma), max_iters=1)
        assert 0.0 < cert.delta_hat and cert.delta_hat * cert.delta_hat == 0.0
        assert cert.bound == math.inf and not cert.separable
        with pytest.raises(pb.NotSeparableError, match="squares to 0.0"):
            pb.cnn_bound(dataset, pb.KernelConfig(sigma), max_iters=1,
                         override=True)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tol_must_be_nonnegative_and_finite(self, tol):
        # a negative tol once let the solver step to the origin and then
        # divide by its zero norm; nan and inf ran without complaint
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            pb.margin(two_point(1.0), pb.KernelConfig(1e9), tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        # no step would leave delta_hat at its starting vertex's -0.858,
        # and a fractional budget would run its ceiling in steps
        ds = pb.Dataset([((0.0,), "A"), ((1.0,), "B"), ((1.5,), "A")])
        with pytest.raises(ValueError, match="max_iters must be"):
            pb.margin(ds, pb.KernelConfig(1.0), max_iters=max_iters)

    def test_zero_tol_still_solves(self):
        cert = pb.margin(two_point(1.0), pb.KernelConfig(1.0), tol=0.0)
        default = pb.margin(two_point(1.0), pb.KernelConfig(1.0))
        assert cert.separable and cert.delta_hat == default.delta_hat

    def test_delta_hat_recomputable_from_reported_state(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=3)
            cfg = pb.KernelConfig(0.8)
            cert = pb.margin(ds, cfg)
            g = full_gram(ds, cfg) @ cert.coefficients
            pnorm = math.sqrt(cert.coefficients @ g)
            assert g.min() / pnorm == pytest.approx(cert.delta_hat, abs=1e-12)


class TestKernelComponents:
    def test_partition_equals_union_find(self):
        for ds, cfg in component_cases():
            isolated, components = margin_bound._kernel_components(ds, cfg)
            got = {frozenset([int(i)]) for i in isolated}
            got |= {frozenset(c.tolist()) for c in components}
            assert got == union_find_components(ds, cfg.sigma)
            assert all(len(c) >= 2 for c in components)

    @pytest.mark.parametrize("cap", [1, 24, 2**62],
                             ids=["one-row", "few-rows", "huge-cap"])
    def test_partition_equals_union_find_at_every_block_cap(self, monkeypatch, cap):
        # each breadth-first wave reads its frontier's rows in `_row_blocks`:
        # one row per block, a few (24 elements hold two rows against 12
        # unseen points), or the whole frontier in one
        monkeypatch.setattr(pb.dataset, "BLOCK_ELEMENTS", cap)
        self.test_partition_equals_union_find()

    def test_certificates_against_dense_oracle(self):
        # a budget of 2,000 steps leaves about a fifth of the away-step
        # oracle's one-component solves unconverged, which the feasibility
        # checks then cover; Wolfe's algorithm converges on more of them
        tol = pb.DEFAULT_TOL
        kinds = set()
        for ds, cfg in component_cases():
            cert = pb.margin(ds, cfg, tol=tol, max_iters=2_000)
            dense = dense_margin(ds, cfg, tol=tol, max_iters=2_000)
            partition = union_find_components(ds, cfg.sigma)
            assert cert.components == len(partition)
            assert cert.largest_component == max(len(c) for c in partition)
            if cert.components == 1:
                kinds.add("one")
                bound = math.inf
                if cert.delta_hat > 0.0:
                    bound = pb.RADIUS * pb.RADIUS / (cert.delta_hat * cert.delta_hat)
                assert cert.bound == bound
            else:
                kinds.add("isolated" if cert.largest_component == 1 else "mixed")
            # feasible: the reported margin recomputes from the four-mask gram
            g = four_mask_gram(ds, cfg) @ cert.coefficients
            norm = math.sqrt(float(cert.coefficients @ g))
            assert abs(float(g.min()) / norm - cert.delta_hat) <= 1e-9
            assert abs(norm - cert.delta_hat - cert.duality_gap) <= 1e-9
            # never optimistic: below the norm of the oracle's hull point
            assert cert.delta_hat <= dense.delta_hat + dense.duality_gap + 1e-12
            # on these sets each component converges within the budget
            # wherever the dense solve does, and so does their union, to a
            # margin within tol of the oracle's
            assert cert.converged or not dense.converged
            if dense.converged:
                assert cert.delta_hat >= dense.delta_hat - tol
            if cert.converged:
                assert_kkt(ds, cfg, cert, tol)
                kinds.add("converged")
            if cert.converged and dense.converged:
                assert abs(cert.delta_hat - dense.delta_hat) <= tol
        assert kinds == {"one", "isolated", "mixed", "converged"}

    def test_dense_component_converges_in_few_steps(self):
        # three blobs at sigma = 0.1 form one component with a dense,
        # ill-conditioned gram; the away-step oracle needs thousands of steps
        blobs = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]
        cfg = pb.KernelConfig(0.1)
        for seed in range(2):
            ds = pb.generate_blobs(seed, 30, blobs, 0.3)
            cert = pb.margin(ds, cfg)
            assert (cert.components, cert.largest_component) == (1, 90)
            assert cert.converged and cert.duality_gap <= pb.DEFAULT_TOL
            assert_kkt(ds, cfg, cert)
            assert cert.iterations < pb.DEFAULT_MAX_ITERS // 100
            dense = dense_margin(ds, cfg)
            assert dense.converged and cert.iterations < dense.iterations // 10
            assert cert.delta_hat >= dense.delta_hat - pb.DEFAULT_TOL
            # ||p|| falls with every major step the budget allows
            norms = [
                c.delta_hat + c.duality_gap
                for c in (pb.margin(ds, cfg, max_iters=k) for k in (1, 2, 4, 16, 64))
            ]
            assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_hull_holding_the_origin_stays_recomputable(self):
        # criterion 8's seed 29: a Wolfe loop left to run drives ||p|| to
        # about 5e-7, where min_v (p . v) / ||p|| no longer recomputes within
        # 1e-9; the solve keeps its last point with ||p||^2 above tol
        ds = pb.fuzz_dataset(29, max_n=10, max_dim=3, max_classes=3)
        rng = np.random.default_rng(1029)
        cfg = pb.KernelConfig(float(rng.uniform(0.1, 1.0)) * max(ds.diameter(), 1.0))
        cert = pb.margin(ds, cfg, max_iters=20_000)
        assert cert.components == 1
        assert not cert.separable and not cert.converged
        assert cert.bound == math.inf
        g = four_mask_gram(ds, cfg) @ cert.coefficients
        norm2 = float(cert.coefficients @ g)
        assert norm2 > pb.DEFAULT_TOL
        assert abs(float(g.min()) / math.sqrt(norm2) - cert.delta_hat) <= 1e-9

    def test_all_isolated_closed_form(self):
        for seed in range(24):
            ds = pb.fuzz_dataset(seed, max_n=16, max_classes=4)
            if len(ds.classes) < 2 or len(ds) < 2:
                continue
            d2 = oracle_pairwise_sq_dists(ds.coords)
            nearest = d2[~np.eye(len(ds), dtype=bool)].min()
            cfg = pb.KernelConfig(math.sqrt(nearest / 2000.0))  # exp(-1000)
            cert = pb.margin(ds, cfg)
            q = len(ds.classes) - 1
            assert (cert.components, cert.largest_component) == (len(ds), 1)
            assert cert.iterations == 0 and cert.converged
            want = 2 * len(ds) * q / (q + 1)
            assert cert.bound == pytest.approx(want, rel=1e-12, abs=0.0)
            assert cert.coefficients.min() == cert.coefficients.max()

    def test_nearest_sq_dists_are_row_minima(self):
        for ds, _ in gram_cases():
            d2 = oracle_pairwise_sq_dists(ds.coords)
            np.fill_diagonal(d2, np.inf)
            got = ds.nearest_sq_dists
            assert got.tobytes() == d2.min(axis=1).tobytes()
            assert not got.flags.writeable
            assert ds.nearest_sq_dists is got  # found once, then kept
        single = pb.Dataset([((1.0, 2.0), "A")])
        assert single.nearest_sq_dists.tolist() == [math.inf]

    def test_exact_bounds_never_round_below(self):
        # isolated points reach the exact optimum, delta^2 = (q+1) / (n q)
        # and bound 2nq / (q+1); the certificate must land on the safe side
        # of both. Two classes make the bound exactly n, and condensing an
        # alternating chain keeps every point, so the verdict rides on it.
        cfg = pb.KernelConfig(0.02)  # gaps of at least 1: exp(-1250) == 0.0
        for labels in ("AB", "ABC", "ABCD"):
            q = len(labels) - 1
            for n in range(len(labels), 161):
                ds = pb.Dataset(
                    [((i + 0.01 * i * i,), labels[i % len(labels)])
                     for i in range(n)]
                )
                report = pb.cnn_bound(ds, cfg, override=True)
                assert report.certificate.largest_component == 1
                assert Fraction(report.delta_hat) ** 2 <= Fraction(q + 1, n * q)
                exact = Fraction(2 * n * q, q + 1)
                assert exact <= Fraction(report.bound) <= exact * (1 + 1e-12)
                if q == 1:
                    assert report.prototype_count == n
                    assert report.satisfied and report.bound >= n

    def test_gram_budget_refuses_before_allocating(self, monkeypatch, line3):
        # 600 separated points at sigma=0.1 form one component of 1,200
        # pairs, whose full gram would take 11,520,000 bytes. The solve
        # charges only what it holds: at 4 MB it is refused as its corral
        # inverse grows past 378 pairs, before its traced peak passes
        # 4.3 MB, and at 8 MB it runs to the default budget's certificate
        blobs = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]
        ds = pb.generate_blobs(0, 200, blobs, 0.3)
        cfg = pb.KernelConfig(0.1)
        ds.nearest_sq_dists  # the all-pairs pass is the dataset's, not the solve's
        full = pb.margin(ds, cfg)
        monkeypatch.setattr(margin_bound, "GRAM_BYTE_BUDGET", 4_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(
                pb.GramBudgetError,
                match=r"at a corral of \d+ pairs .* would hold [\d,]+ bytes, "
                r"past the budget of 4,000,000 bytes",
            ):
                pb.margin(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.3e6, peak
        monkeypatch.setattr(margin_bound, "GRAM_BYTE_BUDGET", 8_000_000)
        cert = pb.margin(ds, cfg)
        assert (cert.delta_hat, cert.bound, cert.duality_gap, cert.iterations) == (
            full.delta_hat, full.bound, full.duality_gap, full.iterations
        )
        assert cert.coefficients.tobytes() == full.coefficients.tobytes()
        # isolated points build no gram, so the budget does not apply
        assert pb.margin(line3, pb.KernelConfig(1e-3)).bound == pytest.approx(3.0)


def stall_cases():
    """Tiny-margin hulls: random sets of 40 points in 1-4 dimensions and 2-4
    classes, each at three bandwidths up to the diameter."""
    for seed in range(30):
        ds = pb.random_dataset(seed, 40, 1 + seed % 4, 2 + seed % 3)
        diam = ds.diameter()
        for frac in (0.05, 0.2, 1.0):
            yield ds, pb.KernelConfig(frac * diam)


class TestRowStoreSolver:
    """`_hull_descent` keeps one kernel row per corral point, from which it
    derives the gram entries it reads; the dense solver it replaced is the
    oracle."""

    def test_converges_wherever_dense_oracle_does(self):
        tol = pb.DEFAULT_TOL
        outcomes = set()
        for ds, cfg, points, G in component_grams(
            itertools.chain(component_cases(), gram_cases())
        ):
            block = margin_bound._component_block(
                ds, points, cfg, tol, pb.DEFAULT_MAX_ITERS
            )
            alpha, _, converged = dense_hull_descent(G, tol, pb.DEFAULT_MAX_ITERS)
            assert block.converged or not converged
            if converged:
                alpha = alpha / alpha.sum()
                norm = math.sqrt(float(alpha @ G @ alpha))
                assert abs(math.sqrt(block.norm2) - norm) <= tol
            # the scores are the hull point's, whether its rows were kept or
            # remade for members the last minor cycles dropped
            assert np.abs(block.scores - G @ block.alpha).max() <= 1e-12
            outcomes.add((converged, block.converged))
        assert outcomes == {(True, True), (False, False), (False, True)}

    @pytest.mark.parametrize(
        "n_per_class, peak_mb, seconds", [(200, 9, None), (500, 40, 60)],
        ids=["600", "1500"],
    )
    def test_memory_peak_holds_one_row_per_corral_point(
        self, n_per_class, peak_mb, seconds
    ):
        # Separated points at sigma=0.1 form one kernel component. At 600
        # points its 1,200 pairs end in a corral of about 590 pairs on about
        # 296 points: one 600-wide kernel row per corral point stays below
        # 9 MB, where one 1,200-wide gram row per corral pair peaks near
        # 11.6 MB. At 1,500 points the full gram of 3,000 pairs would take
        # 72 MB, and the solve must converge within 60 s
        blobs = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]
        ds = pb.generate_blobs(0, n_per_class, blobs, 0.3)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            cert = pb.margin(ds, pb.KernelConfig(0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert (cert.components, cert.largest_component, cert.converged) == (
            1, len(ds), True
        )
        assert peak < peak_mb * 2**20, peak
        assert seconds is None or elapsed < seconds, elapsed

    def test_stalls_retry_from_a_rebuilt_inverse(self):
        # rounding in the corral inverse stalls the dense oracle on some of
        # these hulls; rebuilding the inverse from the kept rows closes some
        # of those solves, and no solve the oracle closes is lost
        tol = pb.DEFAULT_TOL
        closed = 0
        for ds, cfg, points, G in component_grams(stall_cases()):
            block = margin_bound._component_block(
                ds, points, cfg, tol, pb.DEFAULT_MAX_ITERS
            )
            converged = dense_hull_descent(G, tol, pb.DEFAULT_MAX_ITERS)[2]
            assert block.converged or not converged
            closed += block.converged and not converged
        assert closed > 0
        for seed in (2, 6, 10):  # three of the stalls it closes
            ds = pb.random_dataset(seed, 40, 1 + seed % 4, 2 + seed % 3)
            cfg = pb.KernelConfig(ds.diameter())
            ((*_, G),) = component_grams([(ds, cfg)])
            assert not dense_hull_descent(G, tol, pb.DEFAULT_MAX_ITERS)[2]
            cert = pb.margin(ds, cfg)
            assert cert.converged
            assert_kkt(ds, cfg, cert)


class TestCnnBound:
    def test_certified_line(self, line3):
        analytic = pb.sufficient_sigma(line3)
        cfg = pb.KernelConfig(analytic.sigma_star / 2)
        report = pb.cnn_bound(line3, cfg, analytic)
        assert report.sigma_certified
        assert report.certificate.radius == math.sqrt(2)
        assert report.prototype_count == 2
        assert report.satisfied
        assert report.prototype_count <= report.bound
        assert not report.vacuous
        d = report.to_json_dict()
        assert set(d) == {
            "sigma", "sigma_certified", "R", "delta_hat", "duality_gap",
            "bound", "prototype_count", "satisfied", "vacuous",
            "iterations", "converged", "components", "largest_component",
            "bound_over_n", "trivial",
        }
        assert d["bound_over_n"] == report.bound / 3
        assert d["trivial"] == (report.bound >= 3)

    def test_refuses_uncertified_sigma(self, gap3):
        # gap3's perceptron leaves condensation's trace from sigma = 2 on,
        # far above what the analytic certificate covers
        analytic = pb.sufficient_sigma(gap3)
        assert not full_run_agrees(gap3, 2.0)
        with pytest.raises(pb.UncertifiedSigmaError, match="override"):
            pb.cnn_bound(gap3, pb.KernelConfig(2.0), analytic)
        with pytest.raises(pb.UncertifiedSigmaError):
            pb.cnn_bound(gap3, pb.KernelConfig(2.0))  # no certificate at all

    @pytest.mark.parametrize("sigma, bound", [(15.0, 10.04), (20.0, 17.02)])
    def test_trace_verified_line(self, line3, sigma, bound):
        # far above sigma*, line3's perceptron still replays condensation
        analytic = pb.sufficient_sigma(line3)
        assert not analytic.covers(sigma) and full_run_agrees(line3, sigma)
        report = pb.cnn_bound(line3, pb.KernelConfig(sigma), analytic)
        assert report.sigma_certified
        assert report.prototype_count == 2
        assert report.bound == pytest.approx(bound, abs=0.005)
        # override skips the check: the same bound, uncertified
        forced = pb.cnn_bound(line3, pb.KernelConfig(sigma), override=True)
        assert not forced.sigma_certified and forced.bound == report.bound

    def test_shuffled_trace_is_replayed_in_dataset_order(self, line3):
        # the replay scans in dataset order: above sigma*, a shuffled
        # condensation is certified only where that scan logs its events
        analytic = pb.sufficient_sigma(line3)
        for seed in range(4):
            trace = pb.run_cnn(line3, shuffle_seed=seed)
            if seed == 1:
                report = pb.cnn_bound(
                    line3, pb.KernelConfig(15.0), analytic, trace=trace
                )
                assert report.sigma_certified
            else:
                with pytest.raises(pb.UncertifiedSigmaError):
                    pb.cnn_bound(line3, pb.KernelConfig(15.0), analytic, trace=trace)
            cfg = pb.KernelConfig(analytic.sigma_star / 2)
            report = pb.cnn_bound(line3, cfg, analytic, trace=trace)
            assert report.sigma_certified and report.prototype_count == 2

    def test_override_computes_anyway(self, line3):
        report = pb.cnn_bound(line3, pb.KernelConfig(15.0), override=True)
        assert not report.sigma_certified
        assert report.bound == pytest.approx(10.037006589676247, rel=1e-9)
        assert report.satisfied  # 2 prototypes under a loose bound

    def test_not_separable_raises(self):
        ds = pb.Dataset(
            [((0.0,), "A"), ((0.5,), "B"), ((0.6,), "A"), ((1.0,), "B")]
        )
        with pytest.raises(pb.NotSeparableError):
            pb.cnn_bound(ds, pb.KernelConfig(50.0), override=True)

    def test_single_class_vacuous_report(self):
        ds = pb.Dataset([((0.0,), "A"), ((9.0,), "A")])
        report = pb.cnn_bound(ds, pb.KernelConfig(1.0))
        assert report.vacuous and report.satisfied
        assert report.prototype_count == 1
        assert report.bound is None and report.certificate is None

    def test_reuses_supplied_trace(self, line3):
        analytic = pb.sufficient_sigma(line3)
        trace = pb.run_cnn(line3)
        cfg = pb.KernelConfig(analytic.sigma_star / 2)
        report = pb.cnn_bound(line3, cfg, analytic, trace=trace)
        assert report.prototype_count == len(trace.prototypes)

    def test_refuses_another_datasets_trace(self):
        # b's condensation keeps 13 prototypes, a's own keeps 2; counting
        # b's would bound a set that a's condensation never made
        a = pb.fuzz_dataset(3, max_n=20, max_classes=3)
        b = pb.fuzz_dataset(4, max_n=20, max_classes=3)
        analytic = pb.sufficient_sigma(a)
        cfg = pb.KernelConfig(analytic.sigma_star / 2)
        with pytest.raises(ValueError, match="trace was not drawn from this dataset"):
            pb.cnn_bound(a, cfg, analytic, trace=pb.run_cnn(b))
        assert pb.cnn_bound(a, cfg, analytic).prototype_count == 2

    def test_refuses_another_datasets_certificate(self, line3):
        # the foreign certificate covers sigma = 0.5126, where a's sigma* is
        # 0.0758 and a's perceptron leaves condensation's trace
        a = pb.fuzz_dataset(0, max_n=20, max_classes=3)
        foreign = pb.sufficient_sigma(pb.fuzz_dataset(1000, max_n=20, max_classes=3))
        cfg = pb.KernelConfig(0.5126)
        assert foreign.covers(cfg.sigma)
        with pytest.raises(ValueError, match="not this dataset's sufficient_sigma"):
            pb.cnn_bound(a, cfg, foreign)
        with pytest.raises(pb.UncertifiedSigmaError):
            pb.cnn_bound(a, cfg, pb.sufficient_sigma(a))
        # tied data and a single point have no certificate of their own
        tied = pb.Dataset([((-1.0,), "A"), ((0.0,), "B"), ((1.0,), "A")])
        single = pb.Dataset([((0.0,), "A")])
        for ds in (tied, single):
            with pytest.raises(ValueError, match="sufficient_sigma"):
                pb.cnn_bound(ds, pb.KernelConfig(0.05), pb.sufficient_sigma(line3))


class TestSolverArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": 0}, {"max_iters": 2.5}, {"tol": -1.0}, {"tol": math.nan}],
        ids=["0-steps", "2.5-steps", "tol-1", "tol-nan"],
    )
    @pytest.mark.parametrize("labels", ["AA", "AB"], ids=["one-class", "two-class"])
    def test_every_entry_point_refuses_before_an_all_pairs_pass(
        self, monkeypatch, labels, kwargs
    ):
        # one class once took any budget, since its vacuous report never
        # reached margin; two classes paid sufficient_sigma's sorting pass,
        # run_cnn and a replay before the grid search refused
        ds = pb.Dataset([((0.0,), labels[0]), ((1.0,), labels[1])])

        def no_pass(self, sort):
            raise AssertionError("an all-pairs pass ran before the refusal")

        monkeypatch.setattr(pb.Dataset, "_all_pairs", no_pass)
        cfg = pb.KernelConfig(1.0)
        for solve in (
            lambda: pb.margin(ds, cfg, **kwargs),
            lambda: pb.cnn_bound(ds, cfg, **kwargs),
            lambda: pb.bound_infimum(ds, **kwargs),
            lambda: pb.bound_infimum(ds, sigma_grid=[1.0], **kwargs),
        ):
            with pytest.raises(ValueError, match="(tol|max_iters) must be"):
                solve()

    @pytest.mark.parametrize(
        "grid, message",
        [([1.0, -1.0], "positive and finite"), ([math.nan], "positive and finite"),
         ([0.1, math.inf], "positive and finite"), ([], "at least one bandwidth")],
        ids=["negative", "nan", "inf", "empty"],
    )
    @pytest.mark.parametrize("labels", ["AA", "AB"], ids=["one-class", "two-class"])
    def test_bad_or_empty_grid_refused_before_any_pass(
        self, monkeypatch, labels, grid, message
    ):
        # checked inside the search, a bad point would be found only after
        # sufficient_sigma's sorting pass, run_cnn and the replays and solves
        # of the grid points before it; an empty grid after all of them
        ds = pb.Dataset([((0.0,), labels[0]), ((1.0,), labels[1])])

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the refusal")

        monkeypatch.setattr(pb.Dataset, "_all_pairs", no_pass)
        monkeypatch.setattr(margin_bound, "run_cnn", no_pass)
        with pytest.raises(ValueError, match=message):
            pb.bound_infimum(ds, sigma_grid=grid)


class TestBoundInfimum:
    def test_default_grid_on_line(self, line3):
        star = pb.sufficient_sigma(line3).sigma_star
        gs = pb.bound_infimum(line3)
        assert len(gs.evaluated) == 16
        assert gs.skipped_sigmas == []
        # the last point is the largest float below sigma*, so the analytic
        # certificate (strict at sigma* itself) covers the whole grid
        assert gs.best.sigma == math.nextafter(star, 0.0)
        assert gs.best.bound == pytest.approx(2.6, rel=1e-6)
        assert gs.best.prototype_count == 2
        assert gs.best.satisfied
        # the small-sigma end approaches the orthogonal limit of 3 vectors
        assert gs.evaluated[0].bound == pytest.approx(3.0, rel=1e-6)
        assert gs.best.bound == min(r.bound for r in gs.evaluated)

    def test_grid_endpoints(self):
        for star in (1.0, 0.6005612043932249, 3e-150):
            grid = pb.default_sigma_grid(star)
            assert len(grid) == margin_bound.SIGMA_GRID_SIZE == 16
            assert grid[0] == pytest.approx(star / 100)
            # strictly below sigma*, so the analytic certificate covers it
            assert grid[-1] == math.nextafter(star, 0.0) < star
            # the other points are the geometric grid from sigma*/100
            lo = star / 100.0
            assert grid[:-1] == [lo * (star / lo) ** (i / 15) for i in range(15)]
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_uncertifiable_points_are_skipped(self, gap3):
        star = pb.sufficient_sigma(gap3).sigma_star
        gs = pb.bound_infimum(gap3, sigma_grid=[star / 2, 2.0])
        assert gs.skipped_sigmas == [2.0]
        assert [r.sigma for r in gs.evaluated] == [star / 2]
        assert all(r.sigma_certified for r in gs.evaluated)

    def test_points_past_the_exhaustive_budget_are_trace_verified(self):
        # n = 16 is past the exhaustive budget, yet a grid point the analytic
        # certificate misses is evaluated exactly when the traces agree
        ds = pb.random_dataset(0, n_points=16, dim=2, n_classes=2)
        with pytest.raises(pb.ExhaustiveCapError):
            pb.verify_neighborly(ds, pb.KernelConfig(1.0))
        analytic = pb.sufficient_sigma(ds)
        grid = [analytic.sigma_star * k for k in (0.5, 2.0, 10.0, 100.0, 1000.0)]
        gs = pb.bound_infimum(ds, sigma_grid=grid)
        agree = [s for s in grid if analytic.covers(s) or full_run_agrees(ds, s)]
        assert [r.sigma for r in gs.evaluated] == agree == grid[:3]
        assert gs.skipped_sigmas == grid[3:]
        assert all(r.sigma_certified and r.satisfied for r in gs.evaluated)

    def test_no_certifiable_grid_raises(self, gap3):
        with pytest.raises(pb.NoCertifiedSigmaError):
            pb.bound_infimum(gap3, sigma_grid=[2.0, 5.0])

    def test_tied_data_needs_explicit_grid(self):
        ds = pb.Dataset([((-1.0,), "A"), ((0.0,), "B"), ((1.0,), "A")])
        with pytest.raises(pb.NoCertifiedSigmaError, match="tie"):
            pb.bound_infimum(ds)
        gs = pb.bound_infimum(ds, sigma_grid=[0.05])
        assert gs.best.sigma == 0.05
        assert gs.best.sigma_certified
        # a cross-class tie: C's point is equidistant from A's and B's. At
        # small sigma its degenerate argmax resolves to A, the earliest
        # class, as the 1-NN rule's tie-break picks A's smaller index, so
        # the traces agree; at sigma = 1 and 10 they diverge
        ds = pb.Dataset([((0.0,), "A"), ((2.0,), "B"), ((1.0,), "C")])
        gs = pb.bound_infimum(ds, sigma_grid=[1e-3, 0.01, 0.1, 1.0, 10.0])
        assert [r.sigma for r in gs.evaluated] == [1e-3, 0.01, 0.1]
        assert gs.skipped_sigmas == [1.0, 10.0]
        assert all(r.sigma_certified for r in gs.evaluated)
        with pytest.raises(pb.NoCertifiedSigmaError):
            pb.bound_infimum(ds, sigma_grid=[1.0, 10.0])

    def test_single_class_short_circuit(self):
        ds = pb.Dataset([((0.0,), "A"), ((9.0,), "A")])
        gs = pb.bound_infimum(ds)
        assert gs.best.vacuous and gs.best.satisfied


def criterion3_cases():
    """The acceptance suite's criterion 3 corpora at bandwidths below,
    around and far above sigma*, in units of sigma* and of the diameter."""
    for seed in range(30):
        ds = pb.fuzz_dataset(seed, max_n=8, max_dim=3, max_classes=3)
        star = pb.sufficient_sigma(ds).sigma_star
        diam = ds.diameter()
        for sigma in (star / 2, 0.99 * star, 2 * star, 10 * star,
                      0.05 * diam, 0.2 * diam, diam, 5 * diam):
            yield ds, sigma


def uniform_disks(n, seed=0):
    """n // 2 points uniform in each of two unit disks, centres 2.5 apart."""
    rng = np.random.default_rng(seed)
    points = []
    for cx, label in ((0.0, "A"), (2.5, "B")):
        r = np.sqrt(rng.uniform(size=n // 2))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n // 2)
        points += [((float(x), float(y)), label)
                   for x, y in zip(cx + r * np.cos(theta), r * np.sin(theta))]
    return pb.Dataset(points)


class TestTraceVerification:
    def test_every_neighborly_sigma_is_trace_verified(self):
        # a neighborly sigma makes every perceptron decision the 1-NN
        # rule's, so exhaustive verification never accepts a sigma that
        # trace verification refuses
        passed = verified = 0
        for ds, sigma in criterion3_cases():
            cfg = pb.KernelConfig(sigma)
            cnn = pb.run_cnn(ds)
            agree = _replay(ds, cfg, cnn).events == cnn.events
            verified += agree
            if pb.verify_neighborly(ds, cfg) is None:
                passed += 1
                assert agree, (ds, sigma)
        assert 0 < passed < verified

    def test_condensation_pass_budget_gives_the_full_verdict(self):
        for ds, sigma in criterion3_cases():
            cnn = pb.run_cnn(ds)
            got = _replay(ds, pb.KernelConfig(sigma), cnn).events == cnn.events
            assert got == full_run_agrees(ds, sigma), (ds, sigma)

    def test_a_replay_out_of_passes_differs_in_its_last_pass(self):
        # condensation's last pass is clean, so a replay that runs out of
        # condensation's passes, with an update in the last of them, can
        # never have its events
        exhausted = 0
        for ds, sigma in criterion3_cases():
            cfg = pb.KernelConfig(sigma)
            cnn = pb.run_cnn(ds)
            replay = _replay(ds, cfg, cnn)
            try:
                pb.run_mp(ds, cfg, max_passes=cnn.n_passes)
            except pb.PassBudgetError as exc:
                exhausted += 1
                assert replay.events == exc.trace.events
                assert replay.n_passes == cnn.n_passes
                assert replay.events[-1].pass_number == cnn.n_passes
                assert replay.events != cnn.events, (ds, sigma)
        assert exhausted > 0

    def test_bound_holds_at_every_trace_verified_sigma(self):
        verified = 0
        for seed in range(60):
            ds = pb.fuzz_dataset(seed, max_n=30)
            cnn = pb.run_cnn(ds)
            diam = ds.diameter()
            for sigma in np.geomspace(1e-3 * diam, 2.0 * diam, 12):
                cfg = pb.KernelConfig(float(sigma))
                if _replay(ds, cfg, cnn).events != cnn.events:
                    continue
                verified += 1
                cert = pb.margin(ds, cfg)
                assert cert.separable, (seed, sigma)
                assert len(cnn.prototypes) <= cert.bound, (seed, sigma)
        assert verified > 0

    def test_disk_bound_holds_past_the_full_gram_budget(self):
        # one component of 20,000 pairs, whose full gram would take 3.2 GB,
        # solves in a few dozen steps: the budget charges what the solve
        # holds, not that gram
        cert = pb.margin(uniform_disks(20_000), pb.KernelConfig(0.66))
        assert cert.components == 1 and cert.converged
        assert cert.bound < 12

    @pytest.mark.parametrize("n", [600, 1500, 3000])
    def test_disk_bound_does_not_grow_with_n(self, n):
        # the paper's claim: at a fixed trace-verified sigma the bound
        # depends on the margin, not on the training set's size
        gs = pb.bound_infimum(uniform_disks(n), sigma_grid=[0.5])
        assert gs.skipped_sigmas == []
        assert gs.best.sigma_certified and gs.best.satisfied
        assert gs.best.bound < 20
