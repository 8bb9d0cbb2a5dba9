"""The incremental sweeps against their per-query oracles: `run_cnn`,
`run_mp` and `is_consistent` must give the same traces, weights and verdicts
bit for bit, whatever the block cap of their batched passes; and so must the
blocked all-pairs passes against their row-by-row loops, and blocked online
condensation against its per-item loop."""

import itertools

import numpy as np
import pytest

import protobound as pb
import protobound.dataset
from protobound.cnn import _NearestPrototypes
from protobound.kernel_machine import (
    _class_sums,
    _scores_from_ratios,
    _SweepScores,
    _zero_cut,
)
from sweep_oracles import (
    blocked_min_squared_gap,
    dense_class_sums,
    dense_sums,
    loop_run_cnn_online,
    oracle_diameter,
    oracle_is_consistent,
    oracle_min_squared_gap,
    oracle_nearest_sq_dists,
    oracle_pairwise_sq_dists,
    oracle_run_cnn,
    oracle_run_cnn_online,
    oracle_run_mp,
)

MAX_PASSES = 20
# two classes drawn around one center: about half the items are kept
OVERLAP = [((0.0, 0.0), "A"), ((0.0, 0.0), "B")]


@pytest.fixture(params=[None, 1, 2**62], ids=["default-cap", "one-row", "huge-cap"])
def block_cap(request, monkeypatch):
    """Batched passes at the default block cap, one query per block, and
    every query in one block."""
    if request.param is not None:
        monkeypatch.setattr(protobound.dataset, "BLOCK_ELEMENTS", request.param)


def fuzz_sets(count):
    return [pb.fuzz_dataset(seed, max_n=40, max_dim=9, max_classes=4)
            for seed in range(count)]


def lattice_set(seed):
    """Distinct points of a small integer grid under random labels, so that
    distances tie everywhere and only the tie-breaks decide."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    side = 5 if d < 3 else 3
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d), axis=-1).reshape(-1, d)
    n = int(rng.integers(2, min(len(grid), 30) + 1))
    rows = grid[rng.choice(len(grid), size=n, replace=False)]
    labels = rng.integers(0, int(rng.integers(1, 4)), size=n)
    return pb.Dataset(
        [(tuple(float(v) for v in row), "ABC"[c]) for row, c in zip(rows, labels)]
    )


def single_class_set(seed):
    rng = np.random.default_rng(seed)
    return pb.Dataset([(tuple(x), "A") for x in rng.uniform(-5, 5, size=(12, 2))])


def trace_material(trace):
    return (trace.events, trace.event_keys(), trace.prototypes.indices,
            trace.n_passes)


def mp_outcome(run, dataset, sigma, max_passes=MAX_PASSES):
    """(whether the pass budget ran out, trace material, weights) of a
    perceptron run, partial when the budget ran out."""
    try:
        trace, w = run(dataset, pb.KernelConfig(sigma), max_passes)
        raised = False
    except pb.PassBudgetError as exc:
        trace, w, raised = exc.trace, exc.weights, True
    return raised, trace_material(trace), w.to_json_dict()


def mp_sigmas(dataset):
    sigmas = [1e-155, dataset.diameter() / 3.0]
    try:
        star = pb.sufficient_sigma(dataset).sigma_star
    except pb.GammaDegenerateError:
        sigmas += [0.5, 1.0]
    else:
        sigmas += [star / 2.0, 10.0 * star]
    return [s for s in sigmas if s > 0.0]


class TestRunCnn:
    def test_equals_oracle(self, block_cap):
        for ds in fuzz_sets(40) + [lattice_set(s) for s in range(40)]:
            assert trace_material(pb.run_cnn(ds)) == trace_material(oracle_run_cnn(ds))

    def test_equals_oracle_under_shuffle(self):
        # insertion order is not source order, so ties must still go to the
        # smallest source index, not to the earliest addition
        for seed, ds in enumerate(fuzz_sets(30) + [lattice_set(s) for s in range(60)]):
            for shuffle in (seed, seed + 1000):
                assert trace_material(pb.run_cnn(ds, shuffle_seed=shuffle)) == (
                    trace_material(oracle_run_cnn(ds, shuffle_seed=shuffle))
                )

    def test_single_class_alphabet(self):
        for seed in range(5):
            ds = single_class_set(seed)
            trace = pb.run_cnn(ds)
            assert trace_material(trace) == trace_material(oracle_run_cnn(ds))
            assert trace.event_keys() == [(1, 0)]


class TestRunMp:
    def test_equals_oracle(self, block_cap):
        budget_hits = 0
        for ds in fuzz_sets(25) + [lattice_set(s) for s in range(15)]:
            for sigma in mp_sigmas(ds):
                got = mp_outcome(pb.run_mp, ds, sigma)
                assert got == mp_outcome(oracle_run_mp, ds, sigma), sigma
                budget_hits += got[0]
        assert budget_hits > 0  # partials were compared too

    def test_single_class_alphabet(self):
        for seed in range(5):
            ds = single_class_set(seed)
            for sigma in (1e-155, 0.5, 5.0):
                got = mp_outcome(pb.run_mp, ds, sigma)
                assert got == mp_outcome(oracle_run_mp, ds, sigma)
                assert not got[0]

    def test_budget_partials_equal_oracle_at_every_budget(self, line3):
        sigma = pb.sufficient_sigma(line3).sigma_star / 2.0
        ds = pb.fuzz_dataset(0, max_n=40)  # never stable at this bandwidth
        budget_hits = 0
        for max_passes in (1, 2, 3):
            for data, s in ((line3, sigma), (ds, ds.diameter() / 3.0)):
                got = mp_outcome(pb.run_mp, data, s, max_passes)
                assert got == mp_outcome(oracle_run_mp, data, s, max_passes)
                budget_hits += got[0]
        assert budget_hits == 4


class TestScorersAgree:
    """At a neighborly bandwidth the two scorers of the one sweep loop hold
    one state: the perceptron's argmax, and so its mistakes, are the 1-NN
    rule's for every point after every addition, whatever points are added
    and in whatever order."""

    def test_every_step_at_half_the_certified_sigma(self):
        rng = np.random.default_rng(5)
        checked = 0
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(100)]:
            try:
                sigma = pb.sufficient_sigma(ds).sigma_star / 2.0
            except pb.GammaDegenerateError:
                continue
            w = pb.DualWeightVector(pb.KernelConfig(sigma), ds.classes, ds.dim)
            nearest = _NearestPrototypes(ds, np.arange(len(ds)))
            kernel = _SweepScores(ds, w)
            for i in [None] + rng.permutation(len(ds)).tolist():
                if i is not None:
                    nearest.add(i)
                    kernel.add(i)
                assert nearest.argmax_codes.tolist() == kernel.argmax_codes.tolist()
                assert nearest.mistaken.tolist() == kernel.mistaken.tolist()
            assert len(w) == len(ds)
            checked += 1
        assert checked >= 40


# shifted exponents (d2 - shift) / (2 sigma^2) on both sides of where exp
# underflows to 0.0 (~745.13) and of the sweep's cut (800)
CUT_EXPONENTS = (745.0, 745.2, 799.9, 800.1)
CUT_SIGMA = 0.5  # 2 sigma^2 = 0.5 exactly


def cut_set():
    """Pairs of an A and a B point whose squared distance is 0.5 t for each
    t of CUT_EXPONENTS, 100 apart along x; each is a record once the sweep
    is stable, so the pair's entries come up in rows and in re-derivations,
    and every entry across pairs is skipped."""
    points = []
    for k, t in enumerate(CUT_EXPONENTS):
        points += [((100.0 * k, 0.0), "A"), ((100.0 * k + np.sqrt(0.5 * t), 0.0), "B")]
    return pb.Dataset(points)


def replayed_sweep(dataset, w):
    """A fresh sweep state that absorbs the records of `w` one by one;
    yields (weights so far, state) after each."""
    replay = pb.DualWeightVector(w.kernel, w.classes, w.dim)
    state = _SweepScores(dataset, replay)
    for r in w.to_json_dict()["records"]:
        replay.append(r["index"], r["x"], r["c"], r["y"])
        state.absorb(r["index"])
        yield replay, state


class TestSkippedEntries:
    """The sweep skips the entries past `_zero_cut`, whose ratio is 0.0."""

    def test_kernel_is_zero_past_the_cut(self):
        sigmas = np.concatenate(
            (np.geomspace(1e-160, 1e154, 641), [1e-155, 1.5e-162, 3.3e152, 3.4e152])
        )
        subnormal_scale = overflowing_cut = 0
        for sigma in sigmas.tolist():
            cfg = pb.KernelConfig(sigma)
            cut = _zero_cut(cfg)
            subnormal_scale += 0.0 < 2.0 * sigma * sigma < np.finfo(float).tiny
            if np.isinf(cut):  # nothing is skipped
                assert sigma > 3e152
                overflowing_cut += 1
                continue
            assert cfg.kernel(np.nextafter(cut, np.inf)) == 0.0, sigma
        assert subnormal_scale > 0 and overflowing_cut > 0

    def test_cut_set_lands_on_both_sides(self):
        ds = cut_set()
        cfg = pb.KernelConfig(CUT_SIGMA)
        d2 = np.array([pb.sq_dists_to(ds.coords[i: i + 1], ds.coords[i + 1])[0]
                       for i in range(0, len(ds), 2)])
        exponents = d2 / (2.0 * CUT_SIGMA * CUT_SIGMA)
        assert np.allclose(exponents, CUT_EXPONENTS, rtol=0, atol=1e-9)
        assert (cfg.kernel(d2) > 0.0).tolist() == [True, False, False, False]
        assert (d2 <= _zero_cut(cfg)).tolist() == [True, True, True, False]

    def test_run_mp_equals_oracle_on_cut_set(self, block_cap):
        ds = cut_set()
        got = mp_outcome(pb.run_mp, ds, CUT_SIGMA)
        assert got == mp_outcome(oracle_run_mp, ds, CUT_SIGMA)
        assert not got[0] and len(got[1][2]) == len(ds)  # every point a record

    def test_sweep_sums_equal_dense_sums(self, block_cap):
        sets = [(cut_set(), CUT_SIGMA)] + [
            (ds, sigma) for ds in fuzz_sets(8) + [lattice_set(s) for s in range(8)]
            for sigma in mp_sigmas(ds)
        ]
        for ds, sigma in sets:
            try:
                _, w = pb.run_mp(ds, pb.KernelConfig(sigma), MAX_PASSES)
            except pb.PassBudgetError as exc:
                w = exc.weights
            for replay, state in replayed_sweep(ds, w):
                added, subtracted = dense_sums(replay, ds.coords)
                assert state._added.T.tobytes() == added.tobytes(), sigma
                assert state._subtracted.T.tobytes() == subtracted.tobytes(), sigma


class TestClassSums:
    def test_nonzero_entries_sum_as_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q, p, a, k = (int(v) for v in rng.integers(1, [6, 30, 5, 5]))
            ratios = rng.random((q, p)) * (rng.random((q, p)) < 0.5)
            c_codes = rng.integers(0, k, size=p)
            y_rows = rng.integers(-1, k, size=(a, p))
            sums = dense_class_sums(ratios, np.concatenate((c_codes[None], y_rows)), k)
            want = sums[:, :1] - sums[:, 1:]
            got = _scores_from_ratios(ratios, c_codes, y_rows, k)
            assert got.tobytes() == want.tobytes()

    def test_query_without_entries_sums_to_zero(self):
        sums = _class_sums(np.array([0.5]), np.array([1]), np.array([[1], [-1]]), 3, 2)
        assert sums.shape == (3, 2, 2)
        assert sums.tolist() == [[[0.0, 0.0]] * 2, [[0.0, 0.5], [0.0, 0.0]],
                                 [[0.0, 0.0]] * 2]


class TestIsConsistent:
    def test_equals_oracle(self, block_cap):
        rng = np.random.default_rng(7)
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(30)]:
            for _ in range(4):
                size = int(rng.integers(1, len(ds) + 1))
                members = rng.choice(len(ds), size=size, replace=False).tolist()
                ps = pb.PrototypeSet(ds, members)
                assert pb.is_consistent(ps, ds) == oracle_is_consistent(ps, ds)


def kept_items(items, curve):
    """The items a run kept, read off its curve at every item count."""
    sizes = [0] + [size for _, size in curve]
    return [item for item, before, after in zip(items, sizes, sizes[1:])
            if after > before]


def online_outcome(items, max_items, checkpoints=None):
    """`run_cnn_online` over `items` in `loop_run_cnn_online`'s form: (curve,
    kept items in order, items seen, conflicts skipped). The kept items come
    from a second run checkpointed at every item count."""
    got = pb.run_cnn_online(iter(items), max_items, checkpoints)
    every = pb.run_cnn_online(iter(items), max_items, range(1, max_items + 1))
    kept = kept_items(items, every.curve)
    assert got.prototype_count == every.prototype_count == len(kept)
    return got.curve, kept, got.items_seen, got.conflicts_skipped


def lattice_stream(seed, length=60):
    """Items on a small integer grid under two labels, so exact duplicates,
    conflicts and distance ties (between block-start prototypes and a
    block's own additions too) are frequent."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    return [
        pb.LabeledPoint(tuple(float(v) for v in rng.integers(0, 4, size=d)),
                        "AB"[int(rng.integers(2))])
        for _ in range(length)
    ]


class CountingStream:
    """An iterator over `items` that counts how many were pulled."""

    def __init__(self, items):
        self._items = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


class TestRunCnnOnline:
    def test_equals_former_duplicate_dictionary(self):
        conflicts = 0
        for seed in range(100):
            items = lattice_stream(seed)
            curve, kept, seen, skipped = online_outcome(items, 60, [60])
            assert (kept, seen, skipped) == oracle_run_cnn_online(iter(items), 60)
            assert curve == [(60, len(kept))]
            conflicts += skipped
        assert conflicts > 0  # the conflict rule was compared too

    def test_equals_per_item_loop_on_lattice_streams(self, block_cap):
        for seed in range(100):
            items = lattice_stream(seed)
            assert online_outcome(items, 60) == loop_run_cnn_online(iter(items), 60)

    def test_equals_per_item_loop_on_fuzz_streams(self, block_cap):
        # max_n=400 makes streams long enough to split into blocks at the
        # default cap, in up to 9 coordinates
        for seed in range(30):
            max_n = 30 if seed % 2 else 400
            items = list(pb.fuzz_dataset(seed, max_n=max_n, max_dim=9).points)
            assert online_outcome(items, len(items)) == (
                loop_run_cnn_online(iter(items), len(items))
            )

    def test_equals_per_item_loop_in_16_dimensions(self, block_cap):
        centers = [([0.0] * 16, "A"), ([1.0] * 8 + [0.0] * 8, "B"),
                   ([0.0] * 8 + [2.0] * 8, "C")]
        items = list(itertools.islice(pb.blob_stream(5, centers, 1.0), 600))
        got = online_outcome(items, 600)
        assert got == loop_run_cnn_online(iter(items), 600)
        assert 0 < len(got[1]) < 600

    def test_equals_per_item_loop_at_random_checkpoints(self, block_cap):
        rng = np.random.default_rng(11)
        for seed in range(20):
            items = lattice_stream(seed, 200) if seed % 2 else list(
                itertools.islice(pb.blob_stream(seed, OVERLAP, 1.0), 300)
            )
            marks = rng.choice(len(items), size=int(rng.integers(1, 12)),
                               replace=False) + 1
            assert online_outcome(items, len(items), marks.tolist()) == (
                loop_run_cnn_online(iter(items), len(items), marks.tolist())
            )

    def test_equals_per_item_loop_on_short_streams(self, block_cap):
        for seed in range(20):
            items = lattice_stream(seed, seed * 7 % 50)
            for max_items in (len(items) + 1, 2 * len(items) + 30):
                got = online_outcome(items, max_items)
                assert got == loop_run_cnn_online(iter(items), max_items)
                assert got[2] == len(items)

    def test_pulls_exactly_the_items_it_reads(self, block_cap):
        items = list(itertools.islice(pb.blob_stream(0, OVERLAP, 1.0), 500))
        for length, max_items in ((500, 500), (500, 137), (500, 499), (40, 500),
                                  (0, 10), (500, 0)):
            stream = CountingStream(items[:length])
            result = pb.run_cnn_online(stream, max_items)
            assert stream.pulled == result.items_seen == min(max_items, length)

    def test_bad_item_inside_a_block_named_and_nothing_past_it_pulled(
        self, block_cap
    ):
        # item k overflows the range rule, item k + 1 has another dimension;
        # both sit inside one block at the default cap
        items = list(itertools.islice(pb.blob_stream(1, OVERLAP, 1.0), 30))
        k = 20
        items[k - 1] = pb.LabeledPoint((1e200, 0.0), "A")
        items[k] = pb.LabeledPoint((0.0, 0.0, 0.0), "B")
        stream = CountingStream(items)
        with pytest.raises(pb.DatasetError, match="overflows float64") as exc:
            pb.run_cnn_online(stream, len(items))
        assert str(exc.value).startswith(f"stream item {k}: ")
        assert stream.pulled == k
        with pytest.raises(pb.DatasetError) as former:
            loop_run_cnn_online(iter(items), len(items))
        assert str(exc.value) == str(former.value)


def min_squared_gap_outcome(dataset):
    try:
        return pb.min_squared_gap(dataset)
    except pb.GammaDegenerateError as exc:
        return exc.query_index, exc.first, exc.second


class TestRowBlocks:
    def test_equal_row_by_row_oracles(self, block_cap):
        ties = 0
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(30)]:
            assert pb.pairwise_sq_dists(ds.coords).tobytes() == (
                oracle_pairwise_sq_dists(ds.coords).tobytes()
            )
            assert ds.nearest_sq_dists.tobytes() == (
                oracle_nearest_sq_dists(ds).tobytes()
            )
            assert ds.diameter() == oracle_diameter(ds)
            if len(ds) > 1:
                got = min_squared_gap_outcome(ds)
                assert got == oracle_min_squared_gap(ds)
                ties += isinstance(got, tuple)
        assert ties > 0  # the named tie was compared too

    def test_min_squared_gap_equals_former_block_loop(self, block_cap):
        # one minimum per block, and the tied row located only on a hit,
        # give the former per-row tie test's gamma and named tie
        outcomes = set()
        sets = fuzz_sets(30) + [lattice_set(s) for s in range(30)]
        sets += [pb.random_dataset(s, 200, 1 + s % 3, 3) for s in range(4)]
        for ds in sets:
            if len(ds) > 1:
                got = min_squared_gap_outcome(ds)
                want = blocked_min_squared_gap(ds)
                assert got == want
                outcomes.add(type(want))
        assert outcomes == {float, tuple}
