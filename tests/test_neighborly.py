"""Bandwidth certificates and empirical verification of NN/argmax agreement."""

import itertools
import math

import numpy as np
import pytest

import protobound as pb
from conftest import CUT_SIGMA, TINY_SIGMAS, cut_set
from protobound.neighborly import _sampled_cases


def tie_set():
    # point 1 sits exactly between two same-label points: gamma degenerates
    # but the tie is benign for classification
    return pb.Dataset([((-1.0,), "A"), ((0.0,), "B"), ((1.0,), "A")])


def argsort_min_squared_gap(dataset):
    """`min_squared_gap` with a stable argsort of every row: the oracle for
    gamma and for the points a tie names."""
    coords = dataset.coords
    gamma = math.inf
    for q in range(len(dataset)):
        d2 = pb.sq_dists_to(coords, coords[q])
        order = np.argsort(d2, kind="stable")
        diffs = np.diff(d2[order])
        tied = np.nonzero(diffs == 0.0)[0]
        if tied.size:
            t = int(tied[0])
            return q, int(order[t]), int(order[t + 1])
        gamma = min(gamma, float(diffs.min()))
    return gamma


def lattice_dataset(seed, n, dim, side):
    """Distinct integer points in a small box, so exact distance ties are
    common; a few sets come out tie-free."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(side**dim, size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, (side,) * dim), axis=1)
    labels = rng.choice(["A", "B", "C"], size=n)
    return pb.Dataset(
        [(tuple(float(v) for v in c), str(y)) for c, y in zip(coords, labels)]
    )


def gap_or_tie(dataset):
    try:
        return pb.min_squared_gap(dataset)
    except pb.GammaDegenerateError as exc:
        return exc.query_index, exc.first, exc.second


class TestMinSquaredGap:
    def test_equals_argsort_oracle(self):
        sets = [pb.fuzz_dataset(s, max_n=60, max_dim=9) for s in range(30)]
        sets += [
            lattice_dataset(s, 3 + s % 9, 1 + s % 3, 12) for s in range(40)
        ]
        ties = 0
        for ds in sets:
            want = argsort_min_squared_gap(ds)
            assert gap_or_tie(ds) == want
            ties += isinstance(want, tuple)
        assert 10 <= ties < 40  # ties and tie-free lattices both occur

    def test_line_oracle(self, line3):
        # query 10 sees squared distances {0, 1, 100}: the smallest gap is 1
        assert pb.min_squared_gap(line3) == 1.0

    def test_two_points(self):
        ds = pb.Dataset([((0.0,), "A"), ((3.0,), "B")])
        assert pb.min_squared_gap(ds) == 9.0

    def test_exact_tie_raises_with_witnesses(self):
        with pytest.raises(pb.GammaDegenerateError) as exc:
            pb.min_squared_gap(tie_set())
        assert exc.value.query_index == 1
        assert {exc.value.first, exc.value.second} == {0, 2}

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            pb.min_squared_gap(pb.Dataset([((0.0,), "A")]))


class TestSufficientSigma:
    def test_line_oracle(self, line3):
        cert = pb.sufficient_sigma(line3)
        assert cert.gamma == 1.0
        assert cert.sigma_star == pytest.approx(0.6005612043932249, abs=1e-15)
        assert cert.method == "analytic-sufficient"

    def test_threshold_solves_the_half_equation(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=10)
            cert = pb.sufficient_sigma(ds)
            lhs = (len(ds) - 1) * math.exp(
                -cert.gamma / (2.0 * cert.sigma_star**2)
            )
            assert lhs == pytest.approx(0.5, rel=1e-12)

    def test_covers_is_strict(self, line3):
        cert = pb.sufficient_sigma(line3)
        assert cert.covers(cert.sigma_star / 2)
        assert cert.covers(cert.sigma_star * 0.999)
        assert not cert.covers(cert.sigma_star)
        assert not cert.covers(cert.sigma_star * 1.001)
        assert not cert.covers(0.0)

    def test_other_methods_cover_nothing(self):
        cert = pb.SigmaCertificate(0.5, 0.0, "empirical")
        assert not any(cert.covers(s) for s in (0.25, 0.5, 1.0))

    def test_json_dict(self, line3):
        d = pb.sufficient_sigma(line3).to_json_dict()
        assert set(d) == {"sigma_star", "gamma", "method"}

    def test_interference_chain_below_threshold(self):
        # the certificate rests on: for every query and subset, the summed
        # kernel ratios of non-nearest members stay below 1/2 because each
        # ratio is at most exp(-gamma / (2 sigma^2)) and there are at most
        # n - 1 of them
        for seed in range(20):
            ds = pb.fuzz_dataset(seed, max_n=7, max_dim=3, max_classes=3)
            cert = pb.sufficient_sigma(ds)
            n = len(ds)
            for sigma in (cert.sigma_star / 2, 0.99 * cert.sigma_star):
                per_term_cap = math.exp(-cert.gamma / (2 * sigma * sigma))
                assert (n - 1) * per_term_cap < 0.5
                for q in range(n):
                    d2 = pb.sq_dists_to(ds.coords, ds.coords[q])
                    for size in range(1, n + 1):
                        for subset in itertools.combinations(range(n), size):
                            sub = np.array(subset)
                            dmin = d2[sub].min()
                            ratios = np.exp(
                                (dmin - d2[sub]) / (2 * sigma * sigma)
                            )
                            interference = ratios.sum() - 1.0  # drop the nearest
                            # 1e-12 relative slack: exp is evaluated along two
                            # float paths that may differ in the last ulp
                            cap = (size - 1) * per_term_cap
                            assert interference <= cap * (1 + 1e-12)
                            assert interference < 0.5


class TestVerifyNeighborly:
    def test_passes_below_threshold(self, line3):
        sigma = pb.sufficient_sigma(line3).sigma_star / 2
        assert pb.verify_neighborly(line3, pb.KernelConfig(sigma)) is None

    def test_finds_first_violation_at_large_sigma(self, line3):
        violation = pb.verify_neighborly(line3, pb.KernelConfig(15.0))
        assert violation is not None
        assert violation.subset == (0, 1, 2)
        assert violation.assignment == {0: "B", 1: "A", 2: "A"}
        assert violation.query_index == 0
        assert (violation.argmax_label, violation.nn_label) == ("B", "A")
        assert not violation.degenerate
        assert violation.describe() == (
            "argmax mismatch: P=[0, 1, 2], o=(0->B, 1->A, 2->A), "
            "query=0, argmax='B', nn='A'"
        )

    def test_tied_argmax_counts_even_when_it_names_the_nn_label(self):
        # query 2 is equidistant from points 0 and 1; with 0->B and 1->A
        # their records cancel and every class scores 0
        ds = pb.Dataset([((0.0,), "A"), ((2.0,), "B"), ((1.0,), "C")])
        v = pb.verify_neighborly(ds, pb.KernelConfig(0.05))
        assert (v.subset, v.assignment, v.query_index) == (
            (0, 1), {0: "B", 1: "A"}, 2
        )
        assert v.degenerate and v.argmax_label == v.nn_label == "A"

    def test_violation_replays_through_public_api(self, line3):
        cfg = pb.KernelConfig(15.0)
        violation = pb.verify_neighborly(line3, cfg)
        label, degenerate, nn = pb.replay_violation(line3, cfg, violation)
        assert degenerate or label != nn
        assert (label, nn) == (violation.argmax_label, violation.nn_label)

    def test_sampled_mode_finds_the_same_witness(self, line3):
        violation = pb.verify_neighborly(
            line3, pb.KernelConfig(15.0), mode="sampled", seed=7, trials=500
        )
        assert violation is not None
        # only one violating triple exists for this set and bandwidth
        assert violation.subset == (0, 1, 2)
        assert violation.query_index == 0

    def test_sampled_mode_passes_below_threshold(self, line3):
        sigma = pb.sufficient_sigma(line3).sigma_star / 2
        assert (
            pb.verify_neighborly(
                line3, pb.KernelConfig(sigma), mode="sampled", trials=300
            )
            is None
        )

    def test_seed_names_its_golden_witness(self):
        # the witness the per-member draws named for this seed, so the
        # one-call draw keeps it; the 53rd of 100 trials is the first to
        # violate
        ds = pb.fuzz_dataset(12, max_n=40, max_dim=3, max_classes=8)
        assert (len(ds), len(ds.classes)) == (25, 8)
        cfg = pb.KernelConfig(10.0 * pb.sufficient_sigma(ds).sigma_star)
        for trials, want in ((52, False), (100, True)):
            got = pb.verify_neighborly(
                ds, cfg, mode="sampled", seed=3, trials=trials
            )
            assert (got is not None) == want
        assert got.describe() == (
            "argmax mismatch: P=[0, 1, 2, 4, 6, 7, 8, 9, 10, 12, 13, 16, 17, "
            "19, 20, 21, 22, 24], o=(0->B, 1->C, 2->G, 4->E, 6->G, 7->B, 8->H, "
            "9->B, 10->B, 12->F, 13->F, 16->D, 17->F, 19->G, 20->F, 21->A, "
            "22->C, 24->B), query=0, argmax='E', nn='F'"
        )

    def test_passes_where_every_log_kernel_overflows(self, gap3):
        cert = pb.sufficient_sigma(gap3)
        for sigma in TINY_SIGMAS:
            assert cert.covers(sigma)
            assert pb.verify_neighborly(gap3, pb.KernelConfig(sigma)) is None
            sampled = pb.verify_neighborly(
                gap3, pb.KernelConfig(sigma), mode="sampled", trials=200
            )
            assert sampled is None

    def test_single_class_has_no_restricted_vectors(self):
        ds = pb.Dataset([((0.0,), "A"), ((5.0,), "A")])
        assert pb.verify_neighborly(ds, pb.KernelConfig(100.0)) is None
        assert (
            pb.verify_neighborly(ds, pb.KernelConfig(100.0), mode="sampled")
            is None
        )

    def test_sets_within_the_budget_are_enumerated(self):
        # the budget is the only limit: 9 points in 2 classes are enumerated
        ds = pb.random_dataset(0, n_points=9, dim=2, n_classes=2)
        for sigma in (0.01, 1.0):
            cfg = pb.KernelConfig(sigma)
            got = pb.verify_neighborly(ds, cfg)
            assert got == loop_verify_exhaustive(ds, cfg)
            sampled = pb.verify_neighborly(ds, cfg, mode="sampled", trials=50)
            assert sampled is None or got is not None

    def test_cut_set_matches_loop(self):
        # the search skips the entries past the scoring cut, here on both
        # sides of it and of where the kernel underflows to 0.0
        ds = cut_set()
        outcomes = []
        for sigma in (CUT_SIGMA, ds.diameter() / 3.0):
            cfg = pb.KernelConfig(sigma)
            got = pb.verify_neighborly(ds, cfg, mode="exhaustive")
            assert got == loop_verify_exhaustive(ds, cfg), sigma
            outcomes.append(got is None)
        assert outcomes == [True, False]

    def test_work_budget_refuses_before_enumerating(self):
        # 30 points in 2 classes would score 30 * (2^30 - 1) rows
        ds = pb.random_dataset(0, n_points=30, dim=2, n_classes=2)
        with pytest.raises(pb.ExhaustiveCapError, match=r"30\*\(2\^30 - 1\)"):
            pb.verify_neighborly(ds, pb.KernelConfig(0.01))
        # 8 points in 8 classes: few points, but too many assignments
        ds = pb.random_dataset(0, n_points=8, dim=2, n_classes=8)
        with pytest.raises(pb.ExhaustiveCapError, match="budget"):
            pb.verify_neighborly(ds, pb.KernelConfig(0.01))
        # the first two-class size past the budget: 16 * (2^16 - 1) > 10^6
        ds = pb.random_dataset(0, n_points=16, dim=2, n_classes=2)
        assert 15 * (2**15 - 1) <= pb.neighborly.EXHAUSTIVE_ROW_BUDGET
        with pytest.raises(pb.ExhaustiveCapError, match="sampled"):
            pb.verify_neighborly(ds, pb.KernelConfig(0.01))
        # the largest sets the tests enumerate stay well inside it
        assert 10 * (3**10 - 1) <= pb.neighborly.EXHAUSTIVE_ROW_BUDGET

    def test_single_class_skips_the_enumeration(self):
        # no restricted vector exists, so 2^30 empty subsets are not walked
        ds = pb.Dataset([((float(i),), "A") for i in range(30)])
        assert pb.verify_neighborly(ds, pb.KernelConfig(1.0)) is None

    def test_unknown_mode(self, line3):
        with pytest.raises(ValueError, match="mode"):
            pb.verify_neighborly(line3, pb.KernelConfig(1.0), mode="all")

    def test_sampled_mode_refuses_no_trials(self, line3):
        # zero trials would check nothing and report a pass; a fractional
        # count would reach range() and raise TypeError
        for trials in (0, -5, 2.5):
            with pytest.raises(ValueError, match="at least one trial"):
                pb.verify_neighborly(
                    line3, pb.KernelConfig(15.0), mode="sampled", trials=trials
                )


def naive_verify(dataset, sigma):
    """Reference enumerator: plain python, raw kernels, same search order."""
    n = len(dataset)
    classes = dataset.classes
    coords = [p.coords for p in dataset]
    labels = [p.label for p in dataset]
    wrong = [[c for c in classes if c != lab] for lab in labels]
    for mask in range(1, 2**n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(not wrong[i] for i in members):
            continue
        for assignment in itertools.product(*(wrong[i] for i in members)):
            for q in range(n):
                d2 = [
                    sum((a - b) ** 2 for a, b in zip(coords[i], coords[q]))
                    for i in members
                ]
                nn_label = labels[members[d2.index(min(d2))]]
                scores = {}
                for cls in classes:
                    total = 0.0
                    for pos, i in enumerate(members):
                        k = math.exp(-d2[pos] / (2.0 * sigma * sigma))
                        if labels[i] == cls:
                            total += k
                        if assignment[pos] == cls:
                            total -= k
                    scores[cls] = total
                top = max(scores.values())
                winners = [c for c in classes if scores[c] == top]
                if len(winners) > 1 or winners[0] != nn_label:
                    return (
                        tuple(members),
                        dict(zip(members, assignment)),
                        q,
                    )
    return None


def loop_verify_exhaustive(dataset, cfg):
    """The exhaustive enumerator as it was before its scores were batched:
    per query, subtracted channels are accumulated one member at a time."""
    n = len(dataset)
    n_classes = len(dataset.classes)
    coords = dataset.coords
    label_codes = dataset.label_codes
    d2_rows = [pb.sq_dists_to(coords, coords[q]) for q in range(n)]
    scale = 2.0 * cfg.sigma * cfg.sigma
    logk_rows = [-d2 / scale for d2 in d2_rows]
    wrong = [
        [c for c in range(n_classes) if c != int(code)] for code in label_codes
    ]
    for mask in range(1, 2**n):
        members = [i for i in range(n) if mask >> i & 1]
        choice_lists = [wrong[i] for i in members]
        if any(not ch for ch in choice_lists):
            continue
        assignments = np.array(
            list(itertools.product(*choice_lists)), dtype=np.int64
        )
        members_arr = np.array(members, dtype=np.int64)
        member_codes = label_codes[members_arr]
        rows = np.arange(len(assignments))
        hit = None
        for q in range(n):
            logk = logk_rows[q][members_arr]
            ratios = np.exp(logk - logk.max())
            pos = np.bincount(member_codes, weights=ratios, minlength=n_classes)
            neg = np.zeros((len(assignments), n_classes), dtype=np.float64)
            for j in range(len(members)):
                neg[rows, assignments[:, j]] += ratios[j]
            scores = pos[None, :] - neg
            tops = scores.max(axis=1)
            degenerate = (scores == tops[:, None]).sum(axis=1) > 1
            argmaxes = scores.argmax(axis=1)
            # members ascend: the first minimum has the smallest source index
            nn_pos = int(np.argmin(d2_rows[q][members_arr]))
            bad = degenerate | (argmaxes != label_codes[members_arr[nn_pos]])
            if bad.any():
                rank = int(np.argmax(bad))
                if hit is None or (rank, q) < hit:
                    hit = (rank, q)
        if hit is not None:
            rank, q = hit
            assignment = {
                m: dataset.classes[int(assignments[rank, j])]
                for j, m in enumerate(members)
            }
            candidate = pb.Violation(tuple(members), assignment, q, "", "", False)
            label, degen, nn = pb.replay_violation(dataset, cfg, candidate)
            return pb.Violation(tuple(members), assignment, q, label, nn, degen)
    return None


def replay_verify_sampled(dataset, cfg, seed, trials):
    """Sampled verification as it was before the batched search: every
    trial is replayed through the public API."""
    n = len(dataset)
    if len(dataset.classes) < 2:
        return None
    rng = np.random.default_rng(seed)
    k = len(dataset.classes)
    wrong = [[c for c in range(k) if c != own] for own in dataset.label_codes]
    for _ in range(trials):
        while True:
            take = rng.random(n) < 0.5
            if take.any():
                break
        members = [i for i in range(n) if take[i]]
        assignment = {
            i: dataset.classes[wrong[i][int(rng.integers(len(wrong[i])))]]
            for i in members
        }
        q = int(rng.integers(n))
        candidate = pb.Violation(tuple(members), assignment, q, "", "", False)
        label, degen, nn = pb.replay_violation(dataset, cfg, candidate)
        if degen or label != nn:
            return pb.Violation(tuple(members), assignment, q, label, nn, degen)
    return None


class TestAgainstReplayOracle:
    def test_sampled_matches_on_fuzzed_sets(self):
        outcomes = []
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=40, max_dim=3, max_classes=3)
            star = pb.sufficient_sigma(ds).sigma_star
            for sigma in (star / 2.0, 10.0 * star, ds.diameter()):
                cfg = pb.KernelConfig(sigma)
                got = pb.verify_neighborly(
                    ds, cfg, mode="sampled", seed=seed, trials=200
                )
                assert got == replay_verify_sampled(ds, cfg, seed, 200), (
                    seed, sigma
                )
                assert got is None or all(
                    type(i) is int for i in (*got.subset, got.query_index)
                )
                outcomes.append(got is None)
        # the corpus mixes passes and violations
        assert any(outcomes) and not all(outcomes)

    def test_sampled_matches_past_three_classes(self):
        # up to 8 classes, so members draw from q = 1..7 wrong classes
        outcomes = []
        class_counts = set()
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=40, max_dim=3, max_classes=8)
            class_counts.add(len(ds.classes))
            star = pb.sufficient_sigma(ds).sigma_star
            for sigma in (star / 2.0, 10.0 * star, ds.diameter()):
                cfg = pb.KernelConfig(sigma)
                got = pb.verify_neighborly(
                    ds, cfg, mode="sampled", seed=seed, trials=200
                )
                assert got == replay_verify_sampled(ds, cfg, seed, 200), (
                    seed, sigma
                )
                outcomes.append(got is None)
        assert max(class_counts) >= 6
        # the corpus mixes passes and violations
        assert any(outcomes) and not all(outcomes)


def loop_sampled_cases(dataset, seed, trials):
    """`_sampled_cases` with one scalar `integers` draw per member, in index
    order: the oracle for its one-call draw of the wrong classes."""
    n = len(dataset)
    rng = np.random.default_rng(seed)
    wrong = dataset.wrong_codes.tolist()
    for _ in range(trials):
        while True:
            take = rng.random(n) < 0.5
            if take.any():
                break
        members = np.flatnonzero(take)
        row = [
            wrong[i][int(rng.integers(len(wrong[i])))] for i in members.tolist()
        ]
        yield members, np.array([row], dtype=np.int64), [int(rng.integers(n))]


class TestSampledCaseStream:
    def assert_same_stream(self, ds, seed, trials):
        got = list(_sampled_cases(ds, seed, trials))
        want = list(loop_sampled_cases(ds, seed, trials))
        assert len(got) == len(want) == trials
        for (members, rows, queries), (w_members, w_rows, w_queries) in zip(
            got, want
        ):
            assert np.array_equal(members, w_members)
            assert rows.dtype == w_rows.dtype == np.int64
            assert rows.shape == w_rows.shape == (1, len(members))
            assert np.array_equal(rows, w_rows)
            assert list(queries) == w_queries
        return [len(members) for members, _, _ in want]

    def test_matches_per_member_draws_for_every_class_count(self):
        # q = |C| - 1 wrong classes per point, from 1 to 7, and n from 2
        # (one point has one class and no stream) to 60; long runs of
        # trials, so an odd member count leaves numpy's buffered 32-bit
        # half-word to the next trial many times over
        counts = set()
        odd = 0
        for k in range(2, 9):
            for n in (2, 3, 5, 8, 13, 21, 34, 60):
                if n < k:
                    continue
                ds = pb.random_dataset(
                    100 * k + n, n_points=n, dim=2, n_classes=k
                )
                counts.add(ds.wrong_codes.shape[1])
                for seed in (0, 1, 12345):
                    sizes = self.assert_same_stream(ds, seed, 60)
                    odd += sum(size % 2 for size in sizes[:-1])
        assert counts == set(range(1, 8))
        assert odd > 1000

    def test_matches_on_a_large_blob_set(self):
        centers = [
            ((float(c), float(c % 2)), name) for c, name in enumerate("ABCDE")
        ]
        ds = pb.generate_blobs(0, 600, centers, 0.8)
        assert len(ds) == 3000 and ds.wrong_codes.shape[1] == 4
        for seed in (0, 7):
            sizes = self.assert_same_stream(ds, seed, 20)
            assert any(size % 2 for size in sizes)


class TestAgainstLoopEnumerator:
    def test_first_violation_matches_on_fuzzed_sets(self):
        corpus = [
            pb.fuzz_dataset(seed, max_n=7, max_dim=3, max_classes=4)
            for seed in range(12)
        ]
        # sets past the old default cap of 8 points, now within the budget
        corpus += [
            pb.random_dataset(seed, n_points=n, dim=2, n_classes=k)
            for seed, (n, k) in enumerate(((9, 2), (10, 2), (9, 3), (10, 3)))
        ]
        assert max(len(ds.classes) for ds in corpus) == 4
        outcomes = []
        for ds in corpus:
            star = pb.sufficient_sigma(ds).sigma_star
            for sigma in (star / 2.0, 10.0 * star, ds.diameter()):
                cfg = pb.KernelConfig(sigma)
                got = pb.verify_neighborly(ds, cfg, mode="exhaustive")
                assert got == loop_verify_exhaustive(ds, cfg), (len(ds), sigma)
                assert got is None or all(
                    type(i) is int for i in (*got.subset, got.query_index)
                )
                outcomes.append(got is None)
        # the corpus mixes passes and violations
        assert any(outcomes) and not all(outcomes)


class TestAgainstNaiveEnumerator:
    def test_line_at_both_regimes(self, line3):
        assert naive_verify(line3, 0.3) is None
        first = naive_verify(line3, 15.0)
        violation = pb.verify_neighborly(line3, pb.KernelConfig(15.0))
        assert first == (
            violation.subset,
            violation.assignment,
            violation.query_index,
        )

    def test_fuzzed_sets_at_moderate_bandwidths(self):
        # kernels stay far from underflow here, so the raw-domain reference
        # and the shifted implementation must agree exactly
        for seed in range(10):
            ds = pb.fuzz_dataset(seed, max_n=6, max_dim=2, max_classes=3)
            for factor in (0.4, 1.2):
                sigma = factor * ds.diameter()
                got = pb.verify_neighborly(ds, pb.KernelConfig(sigma))
                want = naive_verify(ds, sigma)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert want == (got.subset, got.assignment, got.query_index)

