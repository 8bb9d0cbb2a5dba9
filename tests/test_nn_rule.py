"""Nearest-neighbor rule: determinism, ties, and consistency checking."""

import numpy as np
import pytest

import protobound as pb


class TestPrototypeSet:
    def test_add_and_views(self, line3):
        ps = pb.PrototypeSet(line3)
        assert len(ps) == 0
        ps.add(2)
        ps.add(0)
        assert ps.indices == (2, 0)
        assert np.array_equal(ps.coords, [[11.0], [0.0]])
        assert list(ps.codes) == [1, 0]
        assert 2 in ps and 1 not in ps
        assert ps.members() == [(2, line3[2]), (0, line3[0])]

    def test_add_rejects_out_of_range_and_duplicates(self, line3):
        ps = pb.PrototypeSet(line3, [0])
        with pytest.raises(IndexError):
            ps.add(3)
        with pytest.raises(ValueError):
            ps.add(0)

    def test_growth_preserves_order(self):
        ds = pb.random_dataset(0, n_points=40, dim=2, n_classes=2)
        ps = pb.PrototypeSet(ds, list(range(40)))  # fills every row
        assert ps.indices == tuple(range(40))
        assert np.array_equal(ps.coords, ds.coords)
        assert np.array_equal(ps.codes, ds.label_codes)

    def test_membership_outside_the_parent(self, line3):
        ps = pb.PrototypeSet(line3, [2])
        assert -1 not in ps and 3 not in ps and 2 in ps
        assert repr(ps) == "PrototypeSet(indices=[2])"


class TestNearest:
    def test_two_point_split(self, line3):
        ps = pb.PrototypeSet(line3, [0, 1])
        assert pb.classify(ps, [4.0]) == "A"
        assert pb.classify(ps, [6.0]) == "B"
        point, idx = pb.nearest(ps, [10.4])
        assert (point.label, idx) == ("B", 1)

    def test_own_point_has_distance_zero(self, line3):
        ps = pb.PrototypeSet(line3, [0, 1, 2])
        for i in range(3):
            _, idx = pb.nearest(ps, line3.coords[i])
            assert idx == i

    def test_tie_breaks_to_smallest_source_index(self):
        ds = pb.Dataset([((0.0,), "A"), ((2.0,), "B")])
        # the midpoint is exactly equidistant in float arithmetic
        for order in ([0, 1], [1, 0]):
            ps = pb.PrototypeSet(ds, order)
            point, idx = pb.nearest(ps, [1.0])
            assert (point.label, idx) == ("A", 0)

    def test_empty_set_refuses(self, line3):
        ps = pb.PrototypeSet(line3)
        with pytest.raises(pb.EmptyPrototypeSetError):
            pb.nearest(ps, [0.0])
        with pytest.raises(pb.EmptyPrototypeSetError):
            pb.is_consistent(ps, line3)

    def test_query_shape_checked(self, line3):
        ps = pb.PrototypeSet(line3, [0, 1, 2])
        with pytest.raises(ValueError, match="shape"):
            pb.nearest(ps, [0.0, 1.0])

    def test_insertion_order_never_changes_answers(self):
        # smallest-source-index tie break makes the rule a function of the
        # member set, not of insertion history
        rng = np.random.default_rng(5)
        for trial in range(20):
            ds = pb.fuzz_dataset(trial, max_n=15)
            members = sorted(
                rng.choice(len(ds), size=rng.integers(1, len(ds) + 1), replace=False)
            )
            a = pb.PrototypeSet(ds, list(members))
            b = pb.PrototypeSet(ds, list(rng.permutation(members)))
            for _ in range(10):
                q = rng.uniform(-12, 12, size=ds.dim)
                assert pb.nearest(a, q)[1] == pb.nearest(b, q)[1]


class TestConsistency:
    def test_full_set_is_always_consistent(self):
        for seed in range(10):
            ds = pb.fuzz_dataset(seed)
            assert pb.is_consistent(pb.PrototypeSet(ds, list(range(len(ds)))), ds)

    def test_detects_inconsistency(self, line3):
        assert not pb.is_consistent(pb.PrototypeSet(line3, [0]), line3)
        assert pb.is_consistent(pb.PrototypeSet(line3, [0, 1]), line3)

    def test_foreign_prototypes_rejected(self, line3):
        other = pb.Dataset([((0.0,), "A"), ((10.0,), "B"), ((11.0,), "B")])
        ps = pb.PrototypeSet(other, [0, 1])
        with pytest.raises(ValueError, match="not drawn from"):
            pb.is_consistent(ps, line3)


class TestSqDists:
    def test_matches_plain_arithmetic(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        d2 = pb.sq_dists_to(coords, np.array([0.0, 0.0]))
        assert list(d2) == [0.0, 25.0]

    def test_pairwise_matrix_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 9, 17):
            coords = rng.normal(scale=rng.uniform(0.1, 100.0), size=(23, d))
            full = pb.pairwise_sq_dists(coords)
            batched = pb.sq_dists_to(coords[::2], coords)
            assert full.shape == (23, 23)
            assert batched.shape == (23, 12)
            for q in range(23):
                row = pb.sq_dists_to(coords, coords[q])
                assert full[q].tobytes() == row.tobytes()
                row = pb.sq_dists_to(coords[::2], coords[q])
                assert batched[q].tobytes() == row.tobytes()
