"""Gram-space margin geometry, the hull-distance solver, and size bounds."""

import math

import numpy as np
import pytest

import protobound as pb


def two_point(d=2.0):
    return pb.Dataset([((0.0,), "A"), ((d,), "B")])


def sigma_for_kernel(k, d=2.0):
    # solve exp(-d^2 / (2 sigma^2)) = k
    return d / math.sqrt(2.0 * math.log(1.0 / k))


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
                    want = sign * pb.kernel_eval(cfg, ds[i].coords, ds[j].coords)
                    assert dvs.matrix[a, b] == pytest.approx(want, abs=1e-14)

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
        assert cert.iterations == 1

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

    def test_history_is_monotone(self, line3):
        cert = pb.margin(line3, pb.KernelConfig(0.3), keep_history=True)
        h = cert.history
        assert h[0] == math.sqrt(2)  # starts at a vertex of squared norm 2
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

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

    def test_delta_hat_recomputable_from_reported_state(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=10, max_classes=3)
            cfg = pb.KernelConfig(0.8)
            cert = pb.margin(ds, cfg)
            G = pb.DifferenceVectorSet(ds, cfg).matrix
            g = G @ cert.coefficients
            pnorm = math.sqrt(cert.coefficients @ g)
            assert g.min() / pnorm == pytest.approx(cert.delta_hat, abs=1e-12)


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
        }

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
