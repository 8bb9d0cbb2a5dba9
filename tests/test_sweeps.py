"""The incremental sweeps against their per-query oracles: `run_cnn`,
`run_mp` and `is_consistent` must give the same traces, weights and verdicts
bit for bit, whatever the block cap of their batched passes; and so must the
blocked all-pairs passes against their row-by-row loops, whatever their read
order, and blocked online condensation against its per-item loop."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import protobound as pb
import protobound.cnn
import protobound.dataset
import protobound.kernel_machine
from protobound.cnn import _NearestPrototypes
from conftest import CUT_EXPONENTS, CUT_SIGMA, cut_set
from protobound.kernel_machine import (
    _shifted_class_sums,
    _SweepScores,
    _zero_cut,
)
from protobound.dataset import _distance_row_blocks
from sweep_oracles import (
    blocked_min_squared_gap,
    dense_class_sums,
    dense_sums,
    loop_run_cnn_online,
    oracle_diameter,
    oracle_is_consistent,
    oracle_min_squared_gap,
    oracle_nearest_sq_dists,
    oracle_run_cnn,
    oracle_run_cnn_online,
    oracle_run_mp,
)

MAX_PASSES = 20
# two classes drawn around one center: about half the items are kept
OVERLAP = [((0.0, 0.0), "A"), ((0.0, 0.0), "B")]


# splits most 40-point fuzz sets, in either coordinate layout, into blocks
# of a few rows with a shorter last block
FEW_ROWS = 500


@pytest.fixture(
    params=[None, 1, FEW_ROWS, 2**62],
    ids=["default-cap", "one-row", "few-rows", "huge-cap"],
)
def block_cap(request, monkeypatch):
    """Batched passes at the default block cap, one query per block, a few
    queries per block with a shorter last one, and every query in one
    block."""
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


def test_every_event_row_lands_in_one_buffer(monkeypatch):
    # each sweep writes its per-event distance row into one buffer it owns;
    # the rows are kept alive here, so fresh rows would be distinct arrays
    rows = []
    kernel = pb.sq_dists_to

    def recorded(coords, x, **kwargs):
        got = kernel(coords, x, **kwargs)
        if np.ndim(x) == 1:  # an event's row, not a block of re-derivations
            rows.append(got)
        return got

    monkeypatch.setattr(protobound.cnn, "sq_dists_to", recorded)
    monkeypatch.setattr(protobound.kernel_machine, "sq_dists_to", recorded)
    ds = blob_set(67)
    cnn = pb.run_cnn(ds)
    assert len(rows) == len(cnn.events) > 1
    assert all(row is rows[0] for row in rows)
    rows.clear()
    sigma = pb.sufficient_sigma(ds).sigma_star / 2.0
    mp, _ = pb.run_mp(ds, pb.KernelConfig(sigma))
    assert len(rows) == len(mp.events) > 1
    assert all(row is rows[0] for row in rows)


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


def boundary_set():
    """Pairs of points, 100 apart along y, whose squared distance is one ulp
    below the cut of CUT_SIGMA (400), on it, and one ulp above it. Labels
    and the side of the second point alternate, so every point is a record
    by the end of the first pass, and no move across pairs lands near the
    cut. Each pair's second point is first moved by its partner's record,
    from far, then by its own record, from the pair's distance: so
    fl(old - new) is that distance, and `old - new > cut` decides, at the
    boundary, whether its sums are re-derived or set in closed form."""
    # fl((20 - ulp)^2) = 400 - 2^-43, and tiny^2 = 2^-44 is one ulp of 400
    ulp, tiny = 2.0**-48, 2.0**-22
    steps = ((20.0 - ulp, tiny), (-20.0, 0.0), (20.0, tiny))
    points = []
    for k, (dx, dy) in enumerate(steps):
        first, second = "AB" if k % 2 == 0 else "BA"
        points += [((0.0, 100.0 * k), first), ((dx, 100.0 * k + dy), second)]
    return pb.Dataset(points)


@pytest.fixture
def rederived(monkeypatch):
    """A list whose one entry counts the points the sweep re-derives from
    all its records, read off `_shifted_class_sums`' query counts."""
    count = [0]

    def counted(d2, codes, cfg, n_classes):
        count[0] += len(d2)
        return _shifted_class_sums(d2, codes, cfg, n_classes)

    monkeypatch.setattr(protobound.kernel_machine, "_shifted_class_sums", counted)
    return count


def blob_set(n_per_class):
    centers = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]
    return pb.generate_blobs(0, n_per_class, centers, 0.8)


class TestClosedForm:
    """A moved point whose old shift lies past `_zero_cut` from the new
    record takes its sums in closed form; the near ties are re-derived."""

    def test_boundary_set_lands_on_the_cut(self):
        ds = boundary_set()
        cut = _zero_cut(pb.KernelConfig(CUT_SIGMA))
        d2 = [pb.sq_dists_to(ds.coords[i: i + 1], ds.coords[i + 1])[0]
              for i in range(0, len(ds), 2)]
        assert cut == 400.0
        assert d2 == [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)]

    def test_run_mp_equals_oracle_on_boundary_set(self, block_cap, rederived):
        ds = boundary_set()
        got = mp_outcome(pb.run_mp, ds, CUT_SIGMA)
        # the second points at and below the cut; every other move is closed
        assert rederived == [2]
        assert got == mp_outcome(oracle_run_mp, ds, CUT_SIGMA)
        assert not got[0] and len(got[1][2]) == len(ds)  # every point a record

    def test_sweep_sums_equal_dense_sums_on_boundary_set(self, block_cap):
        ds = boundary_set()
        _, w = pb.run_mp(ds, pb.KernelConfig(CUT_SIGMA), MAX_PASSES)
        for replay, state in replayed_sweep(ds, w):
            added, subtracted = dense_sums(replay, ds.coords)
            assert state._added.T.tobytes() == added.tobytes()
            assert state._subtracted.T.tobytes() == subtracted.tobytes()

    def test_every_move_is_closed_at_half_the_certified_sigma(self, rederived):
        ds = blob_set(200)
        sigma = pb.sufficient_sigma(ds).sigma_star / 2.0
        trace, _ = pb.run_mp(ds, pb.KernelConfig(sigma))
        assert len(trace.events) > 100 and rederived == [0]

    def test_near_ties_are_rederived_at_a_wide_sigma(self, rederived):
        ds = blob_set(200)
        with pytest.raises(pb.PassBudgetError):
            pb.run_mp(ds, pb.KernelConfig(ds.diameter() / 3.0), max_passes=2)
        assert rederived[0] > 0


class TestShiftedClassSums:
    """The one scoring path skips the entries past `_zero_cut` and sums the
    rest; every score must be the dense sum over all entries, zeros
    included, bit for bit."""

    def test_equals_dense_sums(self):
        rng = np.random.default_rng(3)
        # kept entries with a positive ratio, kept zeros, skipped entries
        sides = np.zeros(3, dtype=np.int64)
        for sigma in (1e-155, 0.5, 30.0):
            cfg = pb.KernelConfig(sigma)
            scale = 2.0 * sigma * sigma
            for _ in range(40):
                q, p, r, k = (int(v) for v in rng.integers(1, [6, 30, 6, 5]))
                # shifted exponents run 0...1000, across 745.13 and 800
                exponents = rng.uniform(0.0, 1000.0, (q, p))
                d2 = (exponents + rng.uniform(0.0, 1000.0, (q, 1))) * scale
                codes = rng.integers(-1, k, size=(r, p))
                shifted = d2 - d2.min(axis=1, keepdims=True)
                want = dense_class_sums(cfg.kernel(shifted), codes, k)
                got = _shifted_class_sums(d2, codes, cfg, k)
                assert got.shape == (q, r, k)
                assert got.tobytes() == want.tobytes(), sigma
                kept = shifted <= _zero_cut(cfg)
                positive = cfg.kernel(shifted) > 0.0
                sides += [np.count_nonzero(positive),
                          np.count_nonzero(kept & ~positive),
                          np.count_nonzero(~kept)]
        assert sides.min() > 0

    def test_per_query_scores_equal_dense_sums(self):
        checked = 0
        for ds in [cut_set(), boundary_set()] + fuzz_sets(8):
            sigmas = [CUT_SIGMA, ds.diameter() / 3.0]
            try:
                sigmas.append(pb.sufficient_sigma(ds).sigma_star / 2.0)
            except pb.GammaDegenerateError:
                pass
            for sigma in [s for s in sigmas if s > 0.0]:
                try:
                    _, w = pb.run_mp(ds, pb.KernelConfig(sigma), MAX_PASSES)
                except pb.PassBudgetError as exc:
                    w = exc.weights
                added, subtracted = dense_sums(w, ds.coords)
                for x, want in zip(ds.coords, added - subtracted):
                    assert pb.shifted_class_scores(w, x).tobytes() == want.tobytes()
                    checked += 1
        assert checked > 100


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
            items = list(pb.fuzz_dataset(seed, max_n=max_n, max_dim=9))
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

    @pytest.mark.parametrize("max_items", [2.5, -5, 1e9, "10"])
    def test_bad_max_items_refused_before_any_pull(self, max_items):
        # a fractional cap never fills a block, so it would pull the whole
        # stream into one, and an endless stream until memory runs out
        stream = CountingStream(itertools.islice(pb.blob_stream(0, OVERLAP, 1.0), 50))
        for checkpoints in (None, [1, 2]):
            with pytest.raises(ValueError, match="max_items must be an integer"):
                pb.run_cnn_online(stream, max_items, checkpoints)
        assert stream.pulled == 0

    @pytest.mark.parametrize(
        "centers, length",
        [(OVERLAP, 25_000), ([((0.0, 0.0), "A"), ((6.0, 0.0), "B")], 100_000)],
        ids=["overlap", "separated"],
    )
    def test_equals_per_item_loop_at_benchmark_scale(self, centers, length):
        # the online benchmark's two phases at seed 0: 128-item first blocks,
        # and blocks against a few hundred prototypes
        items = list(itertools.islice(pb.blob_stream(0, centers, 1.0), length))
        got = pb.run_cnn_online(iter(items), length)
        curve, kept, seen, conflicts = loop_run_cnn_online(iter(items), length)
        assert (got.curve, got.prototype_count, got.items_seen,
                got.conflicts_skipped) == (curve, len(kept), seen, conflicts)
        assert seen == length

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


def test_few_rows_cap_splits_blocks_into_one_buffer(monkeypatch):
    # in both coordinate layouts some fuzz sets split into blocks of several
    # rows with a shorter last one, and every block is a leading slice of
    # the first one
    monkeypatch.setattr(protobound.dataset, "BLOCK_ELEMENTS", FEW_ROWS)
    short_tails = set()
    for ds in fuzz_sets(40):
        sizes, first = [], None
        for block, rows in _distance_row_blocks(ds.coords):
            first = rows if first is None else first
            assert rows.ctypes.data == first.ctypes.data
            assert rows.shape == (block.stop - block.start, len(ds))
            sizes.append(len(rows))
        if sizes[-1] < sizes[0]:
            short_tails.add(ds.dim >= 8)
    assert short_tails == {False, True}


def min_squared_gap_outcome(dataset):
    try:
        return pb.min_squared_gap(dataset)
    except pb.GammaDegenerateError as exc:
        return exc.query_index, exc.first, exc.second


class TestRowBlocks:
    def test_equal_row_by_row_oracles(self, block_cap):
        ties = 0
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(30)]:
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


def tied_sets():
    return [
        # point 1 sits exactly between points 0 and 2
        pb.Dataset([((-1.0,), "A"), ((0.0,), "B"), ((1.0,), "A")]),
        # same-label duplicates: a zero distance besides the self-distance
        pb.Dataset([((0.0, 1.0), "A"), ((2.0, 0.0), "B"), ((0.0, 1.0), "A")]),
    ]


# The reads of the dataset's all-pairs pass. The gap's sorting pass and the
# unsorted one each give the nearest and largest distances; whichever runs
# first, every later read must give the row-by-row oracle's floats.
PASS_READS = {
    "gap": min_squared_gap_outcome,
    "nearest": lambda ds: ds.nearest_sq_dists.tobytes(),
    "diameter": lambda ds: ds.diameter(),
}


@pytest.fixture
def passes(monkeypatch):
    """The all-pairs passes run: one entry per `_distance_row_blocks` call."""
    calls = []
    blocks = protobound.dataset._distance_row_blocks

    def counted(coords):
        calls.append(len(coords))
        return blocks(coords)

    monkeypatch.setattr(protobound.dataset, "_distance_row_blocks", counted)
    return calls


class TestAllPairsPass:
    @pytest.mark.parametrize("first", list(PASS_READS))
    def test_every_read_order_equals_row_by_row_oracles(self, block_cap, first):
        order = [first] + [name for name in PASS_READS if name != first]
        ties = 0
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(30)] + tied_sets():
            want = {
                "gap": oracle_min_squared_gap(ds),
                "nearest": oracle_nearest_sq_dists(ds).tobytes(),
                "diameter": oracle_diameter(ds),
            }
            for name in order + order:  # then again, from the kept results
                assert PASS_READS[name](ds) == want[name], name
            ties += isinstance(want["gap"], tuple)
        assert ties > len(tied_sets())  # lattices tie as well

    def test_one_point(self, block_cap):
        ds = pb.Dataset([((1.0, 2.0), "A")])
        assert (ds.nearest_sq_dists.tolist(), ds.diameter()) == ([math.inf], 0.0)
        ds = pb.Dataset([((1.0, 2.0), "A")])
        assert (ds.diameter(), ds.nearest_sq_dists.tolist()) == (0.0, [math.inf])
        with pytest.raises(ValueError):
            pb.min_squared_gap(ds)

    def test_the_sorting_pass_holds_no_n_by_n_array(self):
        ds = pb.random_dataset(0, 2000, 2, 3)
        tracemalloc.start()
        try:
            pb.sufficient_sigma(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # an n x n float64 array would take 32 MB

    def test_bound_infimum_runs_one_pass(self, passes):
        ds = blob_set(60)
        pb.bound_infimum(ds)
        ds.nearest_sq_dists, ds.diameter()
        assert passes == [len(ds)]

    def test_margin_runs_one_pass_without_the_gap(self, passes):
        ds = blob_set(60)
        pb.margin(ds, pb.KernelConfig(0.05))
        ds.diameter()
        assert passes == [len(ds)]
        # the gap was not found: its sorting pass runs now, and only once
        pb.min_squared_gap(ds)
        pb.sufficient_sigma(ds)
        assert passes == [len(ds)] * 2

    def test_tie_is_raised_on_every_read_from_one_pass(self, passes):
        ds = tied_sets()[0]
        for _ in range(2):
            with pytest.raises(pb.GammaDegenerateError) as exc:
                pb.min_squared_gap(ds)
            assert (exc.value.query_index, exc.value.first, exc.value.second) == (
                1, 0, 2
            )
        assert str(exc.value) == "query 1 is equidistant from points 0 and 2"
        assert ds.nearest_sq_dists.tolist() == [1.0, 1.0, 1.0]
        assert passes == [3]
