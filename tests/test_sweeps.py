"""The incremental sweeps against their per-query oracles: `run_cnn`,
`run_mp` and `is_consistent` must give the same traces, weights and verdicts
bit for bit, whatever the block cap of their batched passes; and so must the
blocked all-pairs passes against their row-by-row loops."""

import numpy as np
import pytest

import protobound as pb
import protobound.dataset
from sweep_oracles import (
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


class TestIsConsistent:
    def test_equals_oracle(self, block_cap):
        rng = np.random.default_rng(7)
        for ds in fuzz_sets(30) + [lattice_set(s) for s in range(30)]:
            for _ in range(4):
                size = int(rng.integers(1, len(ds) + 1))
                members = rng.choice(len(ds), size=size, replace=False).tolist()
                ps = pb.PrototypeSet(ds, members)
                assert pb.is_consistent(ps, ds) == oracle_is_consistent(ps, ds)


class TestRunCnnOnline:
    def test_equals_former_duplicate_dictionary(self):
        # lattice streams repeat points under both labels, so conflicts and
        # agreeing duplicates are frequent
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 3))
            items = [
                pb.LabeledPoint(tuple(float(v) for v in rng.integers(0, 4, size=d)),
                                "AB"[int(rng.integers(2))])
                for _ in range(60)
            ]
            got = pb.run_cnn_online(iter(items), 60, checkpoints=[60])
            assert (got.prototype_count, got.items_seen, got.conflicts_skipped) == (
                oracle_run_cnn_online(iter(items), 60)
            )


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
