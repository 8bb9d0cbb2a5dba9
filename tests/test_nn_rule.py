"""Nearest-neighbor rule: determinism, ties, and consistency checking."""

import tracemalloc

import numpy as np
import pytest

import protobound as pb
from protobound.dataset import _take_rows


class TestPrototypeSet:
    def test_add_and_views(self, line3):
        ps = pb.PrototypeSet(line3)
        assert len(ps) == 0
        ps.add(2)
        ps.add(0)
        assert ps.indices == (2, 0)
        assert np.array_equal(ps.coords, [[11.0], [0.0]])
        assert 2 in ps and 1 not in ps

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

    @pytest.mark.parametrize("d", [2, 9])
    def test_views_are_the_parent_rows_in_insertion_order(self, d):
        ds = pb.random_dataset(d, n_points=30, dim=d, n_classes=3)
        order = [17, 3, 29, 0, 8]
        ps = pb.PrototypeSet(ds, order)
        assert np.array_equal(ps.coords, ds.coords[order])

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
            batched = pb.sq_dists_to(coords[::2], coords)
            assert batched.shape == (23, 12)
            for q in range(23):
                row = pb.sq_dists_to(coords[::2], coords[q])
                assert batched[q].tobytes() == row.tobytes()

    def test_equals_numpy_sum_bit_for_bit(self):
        # the column sum against an explicit left-to-right sum of squared
        # differences over C-contiguous copies, with magnitudes spread over
        # 200 decades, for every layout the package stores or gathers
        # coordinates in: row-major, feature-major, strided slices,
        # `_take_rows` output and feature-major query blocks; below 8
        # coordinates, where numpy's sum also adds left to right, that is
        # `np.sum` bit for bit
        rng = np.random.default_rng(3)
        for d in (*range(1, 10), 16, 17, 33, 130):
            for _ in range(20):
                big, x, queries = (
                    rng.normal(size=shape) * 10.0 ** rng.uniform(-100, 100, size=shape)
                    for shape in ((62, 2 * d), (d,), (4, d))
                )
                coords = np.ascontiguousarray(big[:31, :d])
                idx = rng.permutation(62)[:31]
                layouts = (
                    coords,
                    np.asfortranarray(coords),
                    big[::2, ::2],
                    np.asfortranarray(big)[1::2, :d],
                    _take_rows(np.asfortranarray(big[:, :d]), idx),
                    _take_rows(big[:, :d], idx),
                )
                for c in layouts:
                    for q in (x, queries, np.asfortranarray(queries), big[:4, ::2]):
                        cc, qc = np.ascontiguousarray(c), np.ascontiguousarray(q)
                        diff = cc - qc[..., None, :]
                        squares = diff * diff
                        expected = squares[..., 0].copy()
                        for j in range(1, d):
                            expected += squares[..., j]
                        if d < 8:
                            summed = np.sum(squares, axis=-1)
                            assert summed.tobytes() == expected.tobytes(), d
                        got = pb.sq_dists_to(c, q)
                        assert got.shape == expected.shape
                        assert got.tobytes() == expected.tobytes(), d

    @pytest.mark.parametrize("d", [2, 9])
    def test_refuses_a_query_of_another_dimension(self, d):
        coords = np.asfortranarray(np.arange(3.0 * d).reshape(3, d))
        for k in (d - 1, d + 1):
            for x in (np.zeros(k), np.zeros((2, k))):
                with pytest.raises(ValueError, match=f"{k} coordinates, expected {d}"):
                    pb.sq_dists_to(coords, x)

    def test_a_wide_batch_forms_no_difference_block(self):
        # 4 queries against 4,000 points in 64 coordinates: a (q, n, d)
        # difference block would take 8 MB, the result and one column
        # temporary 128 kB each
        rng = np.random.default_rng(5)
        coords = np.asfortranarray(rng.normal(size=(4000, 64)))
        queries = rng.normal(size=(4, 64))
        tracemalloc.start()
        try:
            pb.sq_dists_to(coords, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 16])
    def test_out_buffer_holds_the_allocating_result(self, d):
        # written into a caller's buffer, a leading slice of a larger one
        # included, the result is the allocating call's, and is that buffer
        rng = np.random.default_rng(d)
        rows = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-50, 50, size=(40, d))
        for coords in (rows, np.asfortranarray(rows)):
            for x, big in ((rows[3], np.full(60, np.nan)),
                           (rows[5:9], np.full((7, 40), np.nan))):
                want = pb.sq_dists_to(coords, x)
                for buf in (np.empty(want.shape), big[: len(want)]):
                    got = pb.sq_dists_to(coords, x, out=buf)
                    assert got is buf
                    assert got.tobytes() == want.tobytes()


def is_feature_major(coords):
    """Whether every column of `coords` is contiguous, as `sq_dists_to`
    reads them."""
    return coords.strides[0] == coords.itemsize


class TestLayout:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
    def test_owned_coordinates_are_stored_as_the_kernel_reads_them(self, d):
        ds = pb.random_dataset(d, n_points=30, dim=d, n_classes=3)
        assert is_feature_major(ds.coords)
        assert ds.coords.flags.f_contiguous
        assert ds.coords.flags.c_contiguous == (d == 1)
        ps = pb.PrototypeSet(ds, [4, 0, 17])
        assert is_feature_major(ps.coords)
        assert np.array_equal(ps.coords, ds.coords[[4, 0, 17]])
        w = pb.DualWeightVector(pb.KernelConfig(1.0), ds.classes, d)
        for i, p in enumerate(ds):  # 30 records: the buffer doubles twice
            w.append(i, p.coords, p.label, None)
        assert is_feature_major(w.coords)
        assert np.array_equal(w.coords, ds.coords)

    def test_take_rows_equals_fancy_indexing(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 7, 8, 9):
            ds = pb.random_dataset(d, n_points=20, dim=d, n_classes=2)
            idx = rng.permutation(20)[:9]
            got = _take_rows(ds.coords, idx)
            assert np.array_equal(got, ds.coords[idx])
            assert is_feature_major(got)
