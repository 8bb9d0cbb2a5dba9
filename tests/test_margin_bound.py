"""Gram-space margin geometry, the hull-distance solver, and size bounds."""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

import protobound as pb
from protobound import margin_bound


def two_point(d=2.0):
    return pb.Dataset([((0.0,), "A"), ((d,), "B")])


def sigma_for_kernel(k, d=2.0):
    # solve exp(-d^2 / (2 sigma^2)) = k
    return d / math.sqrt(2.0 * math.log(1.0 / k))


def four_mask_gram(dataset, cfg):
    """The gram as four m x m indicator masks times the kernel: the
    construction the channel identity replaced, kept as its oracle."""
    pairs = pb.DifferenceVectorSet(dataset, cfg).pairs
    pt = np.array([i for i, _ in pairs], dtype=np.int64)
    wc = np.array([dataset.class_code(y) for _, y in pairs], dtype=np.int64)
    lc = dataset.label_codes[pt]
    d2 = pb.pairwise_sq_dists(dataset.coords)
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


def dense_margin(dataset, cfg, tol=pb.DEFAULT_TOL, max_iters=pb.DEFAULT_MAX_ITERS):
    """One solve over the whole m x m gram: the solver that per-component
    solving replaced, kept as its oracle."""
    G = pb.DifferenceVectorSet(dataset, cfg).matrix
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
        delta_hat, bound, gap, alpha, converged and gap <= tol, iterations
    )


def union_find_components(dataset, sigma):
    """The kernel components by union-find over every off-diagonal pair."""
    d2 = pb.pairwise_sq_dists(dataset.coords)
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
    def test_pairs_enumerate_point_wrong_class(self, line3):
        dvs = pb.DifferenceVectorSet(line3, pb.KernelConfig(1.0))
        assert dvs.pairs == [(0, "B"), (1, "A"), (2, "A")]
        assert len(dvs) == 3

    def test_gram_matches_indicator_formula(self):
        cfg = pb.KernelConfig(1.3)
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=8, max_dim=2, max_classes=3)
            dvs = pb.DifferenceVectorSet(ds, cfg)
            for a, (i, y) in enumerate(dvs.pairs):
                for b, (j, yp) in enumerate(dvs.pairs):
                    ci, cj = ds[i].label, ds[j].label
                    sign = (
                        (ci == cj) - (ci == yp) - (y == cj) + (y == yp)
                    )
                    k = math.exp(pb.kernel_log_eval(cfg, ds[i].coords, ds[j].coords))
                    want = sign * k
                    assert dvs.matrix[a, b] == pytest.approx(want, abs=1e-14)

    def test_gram_equals_four_mask_oracle_bit_for_bit(self):
        classes = set()
        for ds, cfg in gram_cases():
            G = pb.DifferenceVectorSet(ds, cfg).matrix
            assert G.tobytes() == four_mask_gram(ds, cfg).tobytes()
            classes.add(len(ds.classes))
        assert classes == {2, 3, 4, 5}

    def test_gram_is_exactly_symmetric(self):
        # the solver reads rows where the update needs columns
        for ds, cfg in gram_cases():
            G = pb.DifferenceVectorSet(ds, cfg).matrix
            assert np.array_equal(G, G.T)

    def test_diagonal_is_exactly_two(self):
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=3)
            dvs = pb.DifferenceVectorSet(ds, pb.KernelConfig(0.7))
            assert list(np.diag(dvs.matrix)) == [2.0] * len(dvs)

    def test_gram_is_positive_semidefinite(self):
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=8, max_classes=3)
            dvs = pb.DifferenceVectorSet(ds, pb.KernelConfig(1.0))
            assert np.linalg.eigvalsh(dvs.matrix).min() >= -1e-10

    def test_single_class_is_vacuous(self):
        ds = pb.Dataset([((0.0,), "A"), ((1.0,), "A")])
        with pytest.raises(pb.VacuousBoundError):
            pb.DifferenceVectorSet(ds, pb.KernelConfig(1.0))


class TestRadius:
    def test_sqrt_two_machine_exact(self):
        assert pb.RADIUS == math.sqrt(2)
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=4)
            cfg = pb.KernelConfig(0.3)
            # the constant is the largest difference-vector norm
            diag = np.diag(pb.DifferenceVectorSet(ds, cfg).matrix)
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

    def test_single_point_two_classes(self):
        # one difference vector: the hull is a point at distance sqrt(2)
        ds = pb.Dataset([pb.LabeledPoint((1.0, 2.0), "A")], extra_classes=["B"])
        cert = pb.margin(ds, pb.KernelConfig(1.0))
        assert cert.delta_hat == pytest.approx(math.sqrt(2), abs=1e-14)
        assert cert.bound == pytest.approx(1.0, rel=1e-12)
        assert cert.iterations == 0  # an isolated point needs no solve

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
        support = cert.to_json_dict()["support"]
        assert len(support) == int(np.count_nonzero(alpha))
        assert sum(s["coefficient"] for s in support) == pytest.approx(1.0)

    def test_norm_never_increases_with_budget(self, line3):
        # ||p|| = delta_hat + duality_gap, for every budget up to convergence
        cfg = pb.KernelConfig(0.3)
        certs = [pb.margin(line3, cfg, max_iters=k) for k in range(1, 31)]
        assert certs[-1].converged and not certs[0].converged
        norms = [c.delta_hat + c.duality_gap for c in certs]
        assert norms[0] <= math.sqrt(2)  # below the starting vertex's norm
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_budget_exhaustion_still_feasible(self, line3):
        cert = pb.margin(line3, pb.KernelConfig(0.3), max_iters=1)
        assert not cert.converged
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

    def test_delta_hat_recomputable_from_reported_state(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=3)
            cfg = pb.KernelConfig(0.8)
            cert = pb.margin(ds, cfg)
            G = pb.DifferenceVectorSet(ds, cfg).matrix
            g = G @ cert.coefficients
            pnorm = math.sqrt(cert.coefficients @ g)
            assert g.min() / pnorm == pytest.approx(cert.delta_hat, abs=1e-12)


class TestKernelComponents:
    def test_partition_equals_union_find(self):
        for ds, cfg in component_cases():
            isolated, components = margin_bound._kernel_components(ds, cfg.sigma)
            got = {frozenset([int(i)]) for i in isolated}
            got |= {frozenset(c.tolist()) for c in components}
            assert got == union_find_components(ds, cfg.sigma)
            assert all(len(c) >= 2 for c in components)

    def test_certificates_against_dense_oracle(self):
        # a budget of 2,000 steps leaves about a fifth of the one-component
        # solves unconverged, which the feasibility checks then cover
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
                assert cert.coefficients.tobytes() == dense.coefficients.tobytes()
                assert (cert.delta_hat, cert.bound, cert.duality_gap) == (
                    dense.delta_hat, dense.bound, dense.duality_gap
                )
                assert (cert.iterations, cert.converged) == (
                    dense.iterations, dense.converged
                )
            else:
                kinds.add("isolated" if cert.largest_component == 1 else "mixed")
            # feasible: the reported margin recomputes from the four-mask gram
            g = four_mask_gram(ds, cfg) @ cert.coefficients
            recomputed = float(g.min()) / math.sqrt(float(cert.coefficients @ g))
            assert abs(recomputed - cert.delta_hat) <= 1e-9
            # never optimistic: below the norm of the oracle's hull point
            assert cert.delta_hat <= dense.delta_hat + dense.duality_gap + 1e-12
            # on these sets each component converges within the budget
            # wherever the dense solve does, and so does their union
            assert cert.converged or not dense.converged
            if cert.converged and dense.converged:
                assert abs(cert.delta_hat - dense.delta_hat) <= tol
        assert kinds == {"one", "isolated", "mixed"}

    def test_all_isolated_closed_form(self):
        for seed in range(24):
            ds = pb.fuzz_dataset(seed, max_n=16, max_classes=4)
            if len(ds.classes) < 2 or len(ds) < 2:
                continue
            d2 = pb.pairwise_sq_dists(ds.coords)
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
            d2 = pb.pairwise_sq_dists(ds.coords)
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
            for n in range(1, 161):
                ds = pb.Dataset(
                    [((i + 0.01 * i * i,), labels[i % len(labels)])
                     for i in range(n)],
                    extra_classes=list(labels),
                )
                report = pb.cnn_bound(ds, cfg, override=True)
                assert report.largest_component == 1
                assert Fraction(report.delta_hat) ** 2 <= Fraction(q + 1, n * q)
                exact = Fraction(2 * n * q, q + 1)
                assert exact <= Fraction(report.bound) <= exact * (1 + 1e-12)
                if q == 1:
                    assert report.prototype_count == n
                    assert report.satisfied and report.bound >= n

    def test_gram_budget_refuses_before_allocating(self, monkeypatch, line3):
        cfg = pb.KernelConfig(3.0)  # one component of three points
        assert pb.margin(line3, cfg).largest_component == 3
        monkeypatch.setattr(margin_bound, "GRAM_BYTE_BUDGET", 8 * 3 * 3 - 1)
        with pytest.raises(pb.GramBudgetError, match="estimated 72 bytes"):
            pb.margin(line3, cfg)
        # isolated points build no gram, so the budget does not apply
        assert pb.margin(line3, pb.KernelConfig(1e-3)).bound == pytest.approx(3.0)


class TestCnnBound:
    def test_certified_line(self, line3):
        analytic = pb.sufficient_sigma(line3)
        cfg = pb.KernelConfig(analytic.sigma_star / 2)
        report = pb.cnn_bound(line3, cfg, analytic)
        assert report.sigma_certified
        assert report.radius == math.sqrt(2)
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

    def test_refuses_uncertified_sigma(self, line3):
        analytic = pb.sufficient_sigma(line3)
        with pytest.raises(pb.UncertifiedSigmaError, match="override"):
            pb.cnn_bound(line3, pb.KernelConfig(15.0), analytic)
        with pytest.raises(pb.UncertifiedSigmaError):
            pb.cnn_bound(line3, pb.KernelConfig(15.0))  # no certificate at all

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
        assert report.bound is None and report.radius is None

    def test_reuses_supplied_trace(self, line3):
        analytic = pb.sufficient_sigma(line3)
        trace = pb.run_cnn(line3)
        cfg = pb.KernelConfig(analytic.sigma_star / 2)
        report = pb.cnn_bound(line3, cfg, analytic, trace=trace)
        assert report.prototype_count == len(trace.prototypes)


class TestBoundInfimum:
    def test_default_grid_on_line(self, line3):
        star = pb.sufficient_sigma(line3).sigma_star
        gs = pb.bound_infimum(line3)
        assert len(gs.evaluated) == 16
        assert gs.skipped_sigmas == []
        # the endpoint sigma* is not covered analytically (strict inequality)
        # but passes exhaustive verification on this set
        assert gs.best.sigma == star
        assert gs.best.bound == pytest.approx(2.6, rel=1e-6)
        assert gs.best.prototype_count == 2
        assert gs.best.satisfied
        # the small-sigma end approaches the orthogonal limit of 3 vectors
        assert gs.evaluated[0].bound == pytest.approx(3.0, rel=1e-6)
        assert gs.best.bound == min(r.bound for r in gs.evaluated)

    def test_grid_endpoints(self):
        grid = pb.default_sigma_grid(1.0, size=16)
        assert len(grid) == 16
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1.0)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_uncertifiable_points_are_skipped(self, line3):
        star = pb.sufficient_sigma(line3).sigma_star
        gs = pb.bound_infimum(line3, sigma_grid=[star / 2, 15.0])
        assert gs.skipped_sigmas == [15.0]
        assert [r.sigma for r in gs.evaluated] == [star / 2]

    def test_points_too_large_to_verify_are_skipped(self):
        # past the work budget, a grid point the analytic certificate misses
        # cannot be verified
        ds = pb.random_dataset(0, n_points=16, dim=2, n_classes=2)
        star = pb.sufficient_sigma(ds).sigma_star
        gs = pb.bound_infimum(ds, sigma_grid=[star / 2, 10 * star])
        assert gs.skipped_sigmas == [10 * star]
        assert [r.sigma for r in gs.evaluated] == [star / 2]
        # within it, that point is kept exactly when exhaustive mode passes
        ds = pb.random_dataset(0, n_points=9, dim=2, n_classes=2)
        star = pb.sufficient_sigma(ds).sigma_star
        gs = pb.bound_infimum(ds, sigma_grid=[star / 2, 10 * star])
        passes = pb.verify_neighborly(ds, pb.KernelConfig(10 * star)) is None
        assert gs.skipped_sigmas == ([] if passes else [10 * star])
        assert len(gs.evaluated) == (2 if passes else 1)

    def test_no_certifiable_grid_raises(self, line3):
        with pytest.raises(pb.NoCertifiedSigmaError):
            pb.bound_infimum(line3, sigma_grid=[15.0, 20.0])

    def test_tied_data_needs_explicit_grid(self):
        ds = pb.Dataset([((-1.0,), "A"), ((0.0,), "B"), ((1.0,), "A")])
        with pytest.raises(pb.NoCertifiedSigmaError, match="tie"):
            pb.bound_infimum(ds)
        gs = pb.bound_infimum(ds, sigma_grid=[0.05])
        assert gs.best.sigma == 0.05
        assert gs.best.sigma_certified

    def test_single_class_short_circuit(self):
        ds = pb.Dataset([((0.0,), "A"), ((9.0,), "A")])
        gs = pb.bound_infimum(ds)
        assert gs.best.vacuous and gs.best.satisfied
