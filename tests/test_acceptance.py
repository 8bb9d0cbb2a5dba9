"""Acceptance gate: one test and one printed verdict line per criterion.

Every criterion runs on seeded data, so a failure here is reproducible by
seed. Tolerances sit inline next to the assertions they guard.
"""

import math

import numpy as np

import protobound as pb
from conftest import record_criterion


def test_1_condensation_is_consistent():
    # 200 fuzzed datasets (n <= 200, d <= 5, |C| <= 4): the condensed set
    # must classify its own training set perfectly
    failures = []
    for seed in range(200):
        ds = pb.fuzz_dataset(seed, max_n=200, max_dim=5, max_classes=4)
        trace = pb.run_cnn(ds)
        if not pb.is_consistent(trace.prototypes, ds):
            failures.append(seed)
    record_criterion(1, "condensed set consistent", 200 - len(failures), 200)
    assert not failures, f"inconsistent condensation for seeds {failures}"


def test_2_perceptron_equals_condensation():
    # 50 fuzzed datasets (n <= 30) at half the certified bandwidth: identical
    # update traces, and the perceptron never updates an index twice
    failures = []
    for seed in range(50):
        ds = pb.fuzz_dataset(seed, max_n=30)
        sigma = pb.sufficient_sigma(ds).sigma_star / 2.0
        cnn_trace = pb.run_cnn(ds)
        mp_trace, _ = pb.run_mp(ds, pb.KernelConfig(sigma))
        indices = [e.source_index for e in mp_trace.events]
        same = (
            mp_trace.events == cnn_trace.events
            and mp_trace.prototypes.indices == cnn_trace.prototypes.indices
            and mp_trace.n_passes == cnn_trace.n_passes
            and len(set(indices)) == len(indices)
        )
        if not same:
            failures.append(seed)
    record_criterion(2, "perceptron trace equals condensation", 50 - len(failures), 50)
    assert not failures, f"trace mismatch for seeds {failures}"


def test_3_certified_bandwidths_verify_exhaustively():
    # 30 fuzzed datasets (|T| <= 8), exhaustively checked at sigma*/2 and
    # 0.99 sigma*: zero violations across all subsets, assignments, queries
    failures = []
    for seed in range(30):
        ds = pb.fuzz_dataset(seed, max_n=8, max_dim=3, max_classes=3)
        star = pb.sufficient_sigma(ds).sigma_star
        for sigma in (star / 2.0, 0.99 * star):
            violation = pb.verify_neighborly(
                ds, pb.KernelConfig(sigma), mode="exhaustive"
            )
            if violation is not None:
                failures.append((seed, sigma, violation.describe()))
    record_criterion(
        3, "certificate verified exhaustively", 60 - len(failures), 60
    )
    assert not failures, f"violations below the threshold: {failures}"


def test_4_two_point_closed_form():
    # two points at distance 2 with kernel value k: the margin has the closed
    # form sqrt(1 - k) and the bound 2 / (1 - k)
    d = 2.0
    ds = pb.Dataset([((0.0,), "A"), ((d,), "B")])
    checks = []
    for k in (0.1, 0.5, 0.9):
        sigma = d / math.sqrt(2.0 * math.log(1.0 / k))
        cert = pb.margin(ds, pb.KernelConfig(sigma))
        checks.append(abs(cert.delta_hat - math.sqrt(1.0 - k)) <= 1e-6)
        want = 2.0 / (1.0 - k)
        checks.append(abs(cert.bound - want) <= 1e-5 * want)
        checks.append(2 <= cert.bound)  # |P| = 2 stays under the bound
    grid = pb.bound_infimum(ds)
    smallest = min(grid.evaluated, key=lambda r: r.sigma)
    checks.append(abs(smallest.bound - 2.0) <= 0.01 * 2.0)
    checks.append(all(r.prototype_count <= r.bound for r in grid.evaluated))
    record_criterion(4, "two-point margin closed form", sum(checks), len(checks))
    assert all(checks)


def test_5_bound_holds_at_certified_bandwidths():
    # 50 fuzzed datasets at sigma*/2: |P| <= R^2 / delta_hat^2 with R exactly
    # sqrt(2) in every run
    failures = []
    for seed in range(50):
        ds = pb.fuzz_dataset(seed, max_n=20, max_classes=3)
        analytic = pb.sufficient_sigma(ds)
        report = pb.cnn_bound(
            ds, pb.KernelConfig(analytic.sigma_star / 2.0), analytic
        )
        ok = (
            report.sigma_certified
            and report.radius == math.sqrt(2)  # machine-exact
            and report.prototype_count <= report.bound
            and report.satisfied
        )
        if not ok:
            failures.append(seed)
    record_criterion(5, "size bound holds when certified", 50 - len(failures), 50)
    assert not failures, f"bound violated for seeds {failures}"


def test_6_tiny_bandwidth_scoring_stays_sound():
    # sigma at 1e-6 of the data diameter: scores stay finite and the argmax
    # agrees with the nearest-neighbor rule on every training query
    failures = []
    for seed in range(20):
        ds = pb.fuzz_dataset(seed, max_n=25, max_classes=3)
        prototypes = pb.run_cnn(ds).prototypes
        cfg = pb.KernelConfig(1e-6 * ds.diameter())
        w = pb.DualWeightVector(cfg, ds.classes, ds.dim)
        for idx in prototypes.indices:
            point = ds[idx]
            wrong = next(c for c in ds.classes if c != point.label)
            w.append(idx, point.coords, point.label, wrong)
        for i in range(len(ds)):
            scores = pb.shifted_class_scores(w, ds.coords[i])
            label, degenerate = pb.argmax_class(w, ds.coords[i])
            if (
                not np.all(np.isfinite(scores))
                or degenerate
                or label != pb.classify(prototypes, ds.coords[i])
            ):
                failures.append((seed, i))
    record_criterion(6, "tiny-bandwidth scoring sound", 20 - len({s for s, _ in failures}), 20)
    assert not failures, f"unsound scoring at: {failures}"


def test_7_online_growth_regimes():
    # fully overlapping blobs keep forcing mistakes, so the prototype count
    # keeps climbing; well-separated blobs saturate almost immediately
    overlapping = [([0.0, 0.0], "A"), ([0.0, 0.0], "B")]
    separated = [([0.0, 0.0], "A"), ([30.0, 0.0], "B")]
    failures = []
    for seed in range(5):
        result = pb.run_cnn_online(pb.blob_stream(seed, overlapping, 1.0), 10_000)
        curve = dict(result.curve)
        if not curve[10_000] > 2 * curve[2_000]:
            failures.append(("overlapping", seed, result.curve))
    for seed in range(5):
        result = pb.run_cnn_online(pb.blob_stream(seed, separated, 1.0), 10_000)
        tail = [size for _, size in result.curve[-3:]]
        if len(set(tail)) != 1:
            failures.append(("separated", seed, result.curve))
    record_criterion(7, "online growth regimes", 10 - len(failures), 10)
    assert not failures, f"wrong growth shape: {failures}"


def test_8_solver_certificates_are_sound():
    # 100 fuzzed margin runs: coefficients form a distribution, the reported
    # feasible margin recomputes from scratch, and convergence implies a
    # closed duality gap
    tol = pb.DEFAULT_TOL
    failures = []
    for seed in range(100):
        ds = pb.fuzz_dataset(seed, max_n=10, max_dim=3, max_classes=3)
        rng = np.random.default_rng(seed + 1000)
        sigma = float(rng.uniform(0.1, 1.0)) * max(ds.diameter(), 1.0)
        cert = pb.margin(ds, pb.KernelConfig(sigma), tol=tol, max_iters=20_000)
        alpha = cert.coefficients
        m = len(cert.pairs)
        gram = np.empty((m, m))
        for a, (i, y) in enumerate(cert.pairs):
            ci = ds[i].label
            for b, (j, yp) in enumerate(cert.pairs):
                cj = ds[j].label
                sign = (ci == cj) - (ci == yp) - (y == cj) + (y == yp)
                d2 = sum(
                    (u - v) ** 2 for u, v in zip(ds[i].coords, ds[j].coords)
                )
                gram[a, b] = sign * math.exp(-d2 / (2.0 * sigma * sigma))
        g = gram @ alpha
        pnorm = math.sqrt(float(alpha @ g))
        recomputed = float(g.min()) / pnorm
        ok = (
            bool(np.all(alpha >= 0.0))
            and abs(float(alpha.sum()) - 1.0) <= 1e-10
            and abs(recomputed - cert.delta_hat) <= 1e-9
            and (not cert.converged or cert.duality_gap <= tol)
        )
        if not ok:
            failures.append(seed)
    record_criterion(8, "margin solver certificate sound", 100 - len(failures), 100)
    assert not failures, f"unsound solver output for seeds {failures}"
