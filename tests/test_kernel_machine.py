"""Dual-form kernel scoring, argmax semantics, and perceptron training."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import protobound as pb
from conftest import TINY_SIGMAS, UNDERFLOWING_SIGMA, naive_class_scores
from sweep_oracles import oracle_pairwise_sq_dists

finite_coords = st.lists(
    st.floats(min_value=-50, max_value=50), min_size=1, max_size=3
)


def kernel(cfg, x, y):
    """Gaussian kernel value in [0, 1] between two points, from the one
    producer."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return float(cfg.kernel(pb.sq_dists_to(a, np.asarray(y, dtype=np.float64)))[0])


def records(w):
    """The weight vector's update records, as its JSON report lists them."""
    return w.to_json_dict()["records"]


class TestKernel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            pb.KernelConfig(0.0)
        with pytest.raises(ValueError):
            pb.KernelConfig(-1.0)
        with pytest.raises(ValueError):
            pb.KernelConfig(float("inf"))

    def test_config_refuses_an_underflowing_scale(self):
        with pytest.raises(ValueError, match="underflows to 0.0"):
            pb.KernelConfig(UNDERFLOWING_SIGMA)
        for sigma in TINY_SIGMAS:
            assert pb.KernelConfig(sigma).sigma == sigma

    def test_known_values(self):
        cfg = pb.KernelConfig(1.0)
        assert kernel(cfg, [0.0], [0.0]) == 1.0
        assert kernel(cfg, [0.0], [1.0]) == pytest.approx(
            0.6065306597126334, abs=1e-15
        )
        # squared distance 2 at sigma 1 gives exactly exp(-1)
        assert kernel(cfg, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_kernel_underflows_where_its_exponent_is_finite(self):
        # -d2 / (2 sigma^2) is -5e11 here, finite, yet its exponential is 0.0
        assert kernel(pb.KernelConfig(1e-6), [0.0], [1.0]) == 0.0

    def test_kernel_is_the_gaussian_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for sigma in (1e-3, 0.05, 0.7, 1.0, 3.0, 40.0):
            scale = rng.choice([1e-6, 1e-2, 1.0, 1e2, 1e6], size=(40, 25))
            d2 = rng.exponential(sigma * sigma, size=(40, 25)) * scale
            d2[0, :5] = 0.0
            want = np.exp(-d2 / (2.0 * sigma * sigma))
            got = pb.KernelConfig(sigma).kernel(d2)
            assert got.shape == d2.shape
            assert got.tobytes() == want.tobytes()

    def test_kernel_at_tiny_sigma_is_zero_off_the_diagonal(self, gap3):
        # every off-diagonal d2 / (2 sigma^2) overflows to inf, silently
        d2 = oracle_pairwise_sq_dists(gap3.coords)
        for sigma in TINY_SIGMAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                k = pb.KernelConfig(sigma).kernel(d2)
            assert np.array_equal(k, np.eye(len(gap3)))

    @settings(max_examples=50, derandomize=True)
    @given(x=finite_coords, sigma=st.floats(min_value=0.1, max_value=10))
    def test_self_kernel_is_one(self, x, sigma):
        assert kernel(pb.KernelConfig(sigma), x, x) == 1.0

    @settings(max_examples=50, derandomize=True)
    @given(
        xy=st.tuples(finite_coords, finite_coords).filter(
            lambda t: len(t[0]) == len(t[1])
        ),
        sigma=st.floats(min_value=0.1, max_value=10),
    )
    def test_kernel_bounded_and_symmetric(self, xy, sigma):
        cfg = pb.KernelConfig(sigma)
        x, y = xy
        k = kernel(cfg, x, y)
        assert 0.0 <= k <= 1.0
        assert k == kernel(cfg, y, x)


class TestDualWeightVector:
    def test_append_validation(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B"), 2)
        with pytest.raises(ValueError, match="unknown class"):
            w.append(0, (0.0, 0.0), "Z", "A")
        with pytest.raises(ValueError, match="unknown class"):
            w.append(0, (0.0, 0.0), "A", "Z")
        with pytest.raises(ValueError, match="differ"):
            w.append(0, (0.0, 0.0), "A", "A")
        with pytest.raises(ValueError, match="dimension"):
            w.append(0, (0.0,), "A", "B")
        assert len(w) == 0

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            pb.DualWeightVector(pb.KernelConfig(1.0), (), 1)
        with pytest.raises(ValueError):
            pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "A"), 1)

    def test_growth_keeps_record_order(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B"), 1)
        for i in range(20):  # crosses the initial capacity twice
            w.append(i, (float(i),), "A" if i % 2 else "B", "B" if i % 2 else "A")
        assert len(w) == 20
        assert [r["index"] for r in records(w)] == list(range(20))
        assert np.array_equal(w.coords[:, 0], np.arange(20.0))

    def test_records_rebuild_the_appended_values(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B", "C"), 2)
        w.append(4, (1, 2.5), "C", "A")
        w.append(None, [np.float64(-0.5), 3.0], "A", None)
        assert records(w) == [
            {"index": 4, "x": [1.0, 2.5], "c": "C", "y": "A"},
            {"index": None, "x": [-0.5, 3.0], "c": "A", "y": None},
        ]
        assert all(type(v) is float for r in records(w) for v in r["x"])
        assert list(w.y_codes) == [0, -1]

    def test_negative_index_refused(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B"), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            w.append(-1, (0.0,), "A", "B")
        assert len(w) == 0

    def test_json_dict(self):
        w = pb.DualWeightVector(pb.KernelConfig(0.5), ("A", "B"), 1)
        w.append(3, (2.0,), "B", "A")
        w.append(None, (1.0,), "A", None)
        assert w.to_json_dict() == {
            "sigma": 0.5,
            "classes": ["A", "B"],
            "records": [
                {"index": 3, "x": [2.0], "c": "B", "y": "A"},
                {"index": None, "x": [1.0], "c": "A", "y": None},
            ],
        }


def singleton_w(sigma=1.0):
    w = pb.DualWeightVector(pb.KernelConfig(sigma), ("A", "B", "C"), 1)
    w.append(0, (0.0,), "A", "B")
    return w


class TestScoring:
    def test_singleton_scores(self):
        # one record: the shift divides every score by that record's kernel
        w = singleton_w()
        k = kernel(w.kernel, [1.0], [0.0])
        want = naive_class_scores(w.classes, [((0.0,), "A", "B")], [1.0], 1.0)
        shifted = pb.shifted_class_scores(w, [1.0])
        assert list(shifted) == [1.0, -1.0, 0.0]
        assert list(shifted * k) == pytest.approx(
            [want[c] for c in w.classes], abs=1e-15
        )

    def test_empty_vector_scores_zero(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B"), 1)
        assert list(pb.shifted_class_scores(w, [1.0])) == [0.0, 0.0]
        assert pb.argmax_class(w, [1.0]) == ("A", True)

    def test_shifted_scores_at_a_record_point(self):
        scores = pb.shifted_class_scores(singleton_w(), [0.0])
        assert list(scores) == [1.0, -1.0, 0.0]

    def test_scores_match_naive_oracle(self):
        rng = np.random.default_rng(0)
        classes = ("A", "B", "C")
        for trial in range(20):
            sigma = float(rng.uniform(0.5, 3.0))
            w = pb.DualWeightVector(pb.KernelConfig(sigma), classes, 2)
            records = []
            for i in range(int(rng.integers(1, 8))):
                x = tuple(float(v) for v in rng.uniform(-5, 5, size=2))
                c = classes[int(rng.integers(3))]
                y = next(cl for cl in classes if cl != c)
                w.append(i, x, c, y)
                records.append((x, c, y))
            q = rng.uniform(-5, 5, size=2)
            want = naive_class_scores(classes, records, q, sigma)
            # shifting rescales all classes by one positive factor
            shifted = pb.shifted_class_scores(w, q)
            linear = np.array([want[c] for c in classes])
            d2 = pb.sq_dists_to(w.coords, q)
            top = np.exp((-d2 / (2.0 * sigma * sigma)).max())
            assert np.allclose(shifted * top, linear, atol=1e-12)

    def test_tiny_sigma_stays_finite_and_ranked(self):
        w = singleton_w(sigma=1e-9)
        scores = pb.shifted_class_scores(w, [1.0])
        assert np.all(np.isfinite(scores))
        assert list(scores) == [1.0, -1.0, 0.0]  # raw kernels all underflow
        assert pb.argmax_class(w, [1.0]) == ("A", False)

    def test_scores_where_every_log_kernel_overflows(self, gap3):
        # d2 / (2 sigma^2) is inf for both records, so shifting the
        # log-kernels would give -inf - (-inf); the nearest record still wins
        for sigma in TINY_SIGMAS:
            w = pb.DualWeightVector(pb.KernelConfig(sigma), gap3.classes, 1)
            w.append(1, (1.0,), "B", "A")
            w.append(2, (2.5,), "A", "B")
            assert list(pb.shifted_class_scores(w, [0.0])) == [-1.0, 1.0]
            assert pb.argmax_class(w, [0.0]) == ("B", False)

    def test_degenerate_tie_resolves_to_first_class(self):
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("B", "A"), 1)
        w.append(0, (0.0,), "B", "A")
        w.append(1, (0.0,), "A", "B")  # cancels the first record exactly
        label, degenerate = pb.argmax_class(w, [0.3])
        assert (label, degenerate) == ("B", True)

    def test_a_query_of_another_dimension_is_refused(self):
        # a longer query must not be scored by its first two coordinates
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ("A", "B"), 2)
        w.append(0, (0.0, 0.0), "A", "B")
        w.append(1, (3.0, 4.0), "B", "A")
        assert pb.argmax_class(w, [3.0, 4.0]) == ("B", False)
        for x in ([3.0, 4.0, 100.0], [3.0]):
            with pytest.raises(ValueError, match="expected 2"):
                pb.argmax_class(w, x)


class TestRunMp:
    def test_two_point_hand_trace(self):
        ds = pb.Dataset([((0.0,), "A"), ((1.0,), "B")])
        trace, w = pb.run_mp(ds, pb.KernelConfig(0.3))
        assert trace.prototypes.indices == (0, 1)
        assert trace.n_passes == 2
        assert [
            (e.pass_number, e.source_index, e.true_class, e.predicted)
            for e in trace.events
        ] == [(1, 0, "A", None), (1, 1, "B", "A")]
        assert [(r["index"], r["c"], r["y"]) for r in records(w)] == [
            (0, "A", "B"),
            (1, "B", "A"),
        ]

    def test_matches_cnn_on_line(self, line3):
        sigma = pb.sufficient_sigma(line3).sigma_star / 2.0
        cnn_trace = pb.run_cnn(line3)
        mp_trace, w = pb.run_mp(line3, pb.KernelConfig(sigma))
        assert mp_trace.events == cnn_trace.events
        assert mp_trace.prototypes.indices == cnn_trace.prototypes.indices
        assert mp_trace.n_passes == cnn_trace.n_passes

    def test_matches_cnn_at_tiny_sigma(self, gap3):
        cnn_trace = pb.run_cnn(gap3)
        for sigma in TINY_SIGMAS:
            mp_trace, _ = pb.run_mp(gap3, pb.KernelConfig(sigma))
            assert mp_trace.events == cnn_trace.events
            assert mp_trace.prototypes.indices == cnn_trace.prototypes.indices

    def test_final_vector_classifies_training_set(self):
        for seed in range(8):
            ds = pb.fuzz_dataset(seed, max_n=20)
            sigma = pb.sufficient_sigma(ds).sigma_star / 2.0
            _, w = pb.run_mp(ds, pb.KernelConfig(sigma))
            for i, point in enumerate(ds):
                label, degenerate = pb.argmax_class(w, ds.coords[i])
                assert label == point.label and not degenerate

    def test_single_class_alphabet(self):
        ds = pb.Dataset([((0.0,), "A"), ((5.0,), "A")])
        trace, w = pb.run_mp(ds, pb.KernelConfig(1.0))
        assert trace.event_keys() == [(1, 0)]
        assert [(r["index"], r["c"], r["y"]) for r in records(w)] == [
            (0, "A", None)
        ]
        assert pb.argmax_class(w, [2.0]) == ("A", False)

    def test_pass_budget_error_carries_partials(self, line3):
        sigma = pb.sufficient_sigma(line3).sigma_star / 2.0
        with pytest.raises(pb.PassBudgetError) as exc:
            pb.run_mp(line3, pb.KernelConfig(sigma), max_passes=1)
        assert exc.value.trace.event_keys() == [(1, 0), (1, 1)]
        assert len(exc.value.weights) == 2

    def test_no_passes_is_refused(self, line3):
        # zero passes could never finish, and range() would raise TypeError
        # on a fraction; both are usage errors, not verdicts
        for max_passes, reason in ((0, "at least 1"), (-3, "at least 1"),
                                   (2.5, "an integer")):
            with pytest.raises(ValueError, match=f"max_passes must be {reason}"):
                pb.run_mp(line3, pb.KernelConfig(1.0), max_passes=max_passes)
