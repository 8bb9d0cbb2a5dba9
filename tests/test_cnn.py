"""Condensation: batch sweep behavior, traces, and the online variant."""

import itertools

import pytest

import protobound as pb


class TestRunCnn:
    def test_hand_traced_line(self, line3):
        # scan: 0 joins against the empty set, 1 is mislabeled A, 2 is already
        # covered by 1; the second sweep is clean
        trace = pb.run_cnn(line3)
        assert trace.prototypes.indices == (0, 1)
        assert trace.n_passes == 2
        assert [
            (e.pass_number, e.source_index, e.true_class, e.predicted)
            for e in trace.events
        ] == [(1, 0, "A", None), (1, 1, "B", "A")]
        assert trace.event_keys() == [(1, 0), (1, 1)]

    def test_skips_covered_point(self):
        ds = pb.Dataset([((0.0,), "A"), ((1.0,), "A"), ((10.0,), "B")])
        trace = pb.run_cnn(ds)
        assert trace.prototypes.indices == (0, 2)
        assert trace.n_passes == 2

    def test_second_sweep_addition(self):
        # 4 is covered while P = {0} but stolen by the closer B at 5 once
        # that joins, so it must be added on the second sweep
        ds = pb.Dataset([((0.0,), "A"), ((4.0,), "A"), ((5.0,), "B")])
        trace = pb.run_cnn(ds)
        assert trace.prototypes.indices == (0, 2, 1)
        assert trace.n_passes == 3
        assert trace.event_keys() == [(1, 0), (1, 2), (2, 1)]

    def test_single_point(self):
        trace = pb.run_cnn(pb.Dataset([((3.0,), "A")]))
        assert trace.prototypes.indices == (0,)
        assert trace.n_passes == 2
        assert trace.events[0].predicted is None

    def test_result_is_consistent_fuzz(self):
        for seed in range(25):
            ds = pb.fuzz_dataset(seed, max_n=40, max_dim=4, max_classes=4)
            trace = pb.run_cnn(ds)
            assert pb.is_consistent(trace.prototypes, ds)

    def test_every_event_is_a_member_and_unique(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed)
            trace = pb.run_cnn(ds)
            added = [e.source_index for e in trace.events]
            assert added == list(trace.prototypes.indices)
            assert len(set(added)) == len(added)

    def test_rerun_on_prototypes_is_a_fixed_point(self):
        # each member was misclassified by exactly its predecessors, so
        # condensing the condensed set re-adds everything in the same order
        for seed in range(10):
            ds = pb.fuzz_dataset(seed)
            first = pb.run_cnn(ds)
            reduced = pb.Dataset([ds[i] for i in first.prototypes.indices])
            second = pb.run_cnn(reduced)
            assert second.prototypes.indices == tuple(range(len(reduced)))

    def test_shuffle_seed_changes_scan_not_validity(self):
        ds = pb.fuzz_dataset(4, max_n=25)
        plain = pb.run_cnn(ds)
        shuffled = pb.run_cnn(ds, shuffle_seed=11)
        assert pb.is_consistent(shuffled.prototypes, ds)
        assert pb.run_cnn(ds, shuffle_seed=11).prototypes.indices == (
            shuffled.prototypes.indices
        )
        assert set(shuffled.prototypes.indices) <= set(range(len(ds)))
        assert plain.prototypes.indices != () != shuffled.prototypes.indices


class TestDefaultCheckpoints:
    def test_even_spacing(self):
        assert pb.default_checkpoints(10000) == [
            1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000
        ]

    def test_short_streams(self):
        assert pb.default_checkpoints(3) == [1, 2, 3]
        assert pb.default_checkpoints(0) == []

    def test_rounding_keeps_endpoint(self):
        marks = pb.default_checkpoints(7, count=3)
        assert marks[-1] == 7 and len(marks) == 3


class TestRunCnnOnline:
    CENTERS = [([0.0, 0.0], "A"), ([12.0, 0.0], "B")]

    def test_curve_is_monotone_and_checkpointed(self):
        stream = pb.blob_stream(0, self.CENTERS, 1.0)
        result = pb.run_cnn_online(stream, 500)
        assert [seen for seen, _ in result.curve] == pb.default_checkpoints(500)
        sizes = [size for _, size in result.curve]
        assert sizes == sorted(sizes)
        assert result.items_seen == 500
        assert result.prototype_count == sizes[-1]

    def test_separated_blobs_plateau(self):
        stream = pb.blob_stream(1, self.CENTERS, 0.5)
        result = pb.run_cnn_online(stream, 2000)
        assert result.curve[-1][1] <= 5  # far apart at spread 0.5

    def test_stream_shorter_than_max_items(self):
        items = [pb.LabeledPoint((float(i),), "A") for i in range(4)]
        result = pb.run_cnn_online(iter(items), 100, checkpoints=[4, 100])
        assert result.items_seen == 4
        assert result.curve == [(4, 1)]

    def test_empty_stream(self):
        result = pb.run_cnn_online(iter(()), 10)
        assert result.curve == []
        assert result.prototype_count == 0 and result.items_seen == 0

    def test_conflicting_duplicate_is_skipped_and_counted(self):
        items = [
            pb.LabeledPoint((0.0,), "A"),
            pb.LabeledPoint((5.0,), "B"),
            pb.LabeledPoint((0.0,), "B"),  # conflicts with the kept first item
            pb.LabeledPoint((0.0,), "A"),  # agrees: plain correct classification
        ]
        result = pb.run_cnn_online(iter(items), 4, checkpoints=[4])
        assert result.conflicts_skipped == 1
        assert result.prototype_count == 2
        assert result.items_seen == 4

    @pytest.mark.parametrize(
        "coords, message, item",
        [
            ([(0.0,), (1e200,)], "overflows float64", 2),
            ([(1.0, 2.0), (-1e154, 0.0), (1e154, 3.0)], "overflows float64", 3),
            ([(0.0,), (1e-200,)], "below 2\\^-482", 2),
        ],
        ids=["wide", "wide-later", "narrow"],
    )
    def test_items_out_of_range_refused(self, coords, message, item):
        # the rule Dataset applies: squared distances between the items seen
        # so far must stay positive and finite
        items = [pb.LabeledPoint(c, "AB"[j % 2]) for j, c in enumerate(coords)]
        with pytest.raises(pb.DatasetError, match=message) as exc:
            pb.run_cnn_online(iter(items), len(items))
        assert str(exc.value).startswith(f"stream item {item}: ")
        pb.Dataset(items[: item - 1])
        with pytest.raises(pb.DatasetError, match=message):
            pb.Dataset(items[:item])

    def test_items_at_the_range_limits_accepted(self):
        tiny = pb.dataset.MIN_COORD_MAGNITUDE
        items = [pb.LabeledPoint(c, label) for c, label in [
            ((0.0,), "A"), ((tiny,), "B"), ((-2.0 * tiny,), "A"), ((1e153,), "B"),
            ((-1e153,), "A"),
        ]]
        result = pb.run_cnn_online(iter(items), 5, checkpoints=[5])
        # 0, tiny and 1e153 join: -2 tiny is nearest 0, and 1e153 is as far
        # from 0 as from tiny, so the tie goes to the earlier 0
        assert (result.items_seen, result.prototype_count) == (5, 3)
        assert result.conflicts_skipped == 0

    def test_dimension_mismatch_rejected(self):
        items = [pb.LabeledPoint((0.0,), "A"), pb.LabeledPoint((0.0, 1.0), "B")]
        with pytest.raises(ValueError, match="dimension"):
            pb.run_cnn_online(iter(items), 2)

    def test_checkpoint_bounds_validated(self):
        with pytest.raises(ValueError, match="checkpoints"):
            pb.run_cnn_online(iter(()), 5, checkpoints=[0])
        with pytest.raises(ValueError, match="checkpoints"):
            pb.run_cnn_online(iter(()), 5, checkpoints=[6])

    def test_matches_batch_first_pass(self):
        # one online sweep keeps exactly the points the first batch sweep adds
        for seed in range(5):
            ds = pb.fuzz_dataset(seed, max_n=25)
            online = pb.run_cnn_online(iter(ds), len(ds), checkpoints=[len(ds)])
            batch_first = [
                e.source_index for e in pb.run_cnn(ds).events if e.pass_number == 1
            ]
            assert online.prototype_count == len(batch_first)
