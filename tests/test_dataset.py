"""Ingestion, validation, and the synthetic generators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import protobound as pb
from conftest import OVERFLOWING_POINTS, UNDERFLOWING_POINTS
from protobound.dataset import MIN_COORD_MAGNITUDE
from sweep_oracles import TupleDataset, loop_generate_blobs


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def former_blob_stream(seed, centers, spread):
    """`blob_stream` as it was when it converted each coordinate on its own."""
    validated = [(np.asarray(c, dtype=np.float64), str(label)) for c, label in centers]
    rng = np.random.default_rng(seed)
    while True:
        center, label = validated[int(rng.integers(len(validated)))]
        coords = tuple(
            float(v) for v in center + spread * rng.standard_normal(center.size)
        )
        yield pb.LabeledPoint(coords, label)


class TestLabeledPoint:
    def test_coerces_and_freezes(self):
        p = pb.LabeledPoint((1, 2), 3)
        assert p.coords == (1.0, 2.0)
        assert p.label == "3"
        with pytest.raises(Exception):
            p.label = "other"

    def test_rejects_nan_and_inf(self):
        with pytest.raises(pb.DatasetError):
            pb.LabeledPoint((float("nan"),), "A")
        with pytest.raises(pb.DatasetError):
            pb.LabeledPoint((0.0, float("inf")), "A")

    def test_rejects_empty(self):
        with pytest.raises(pb.DatasetError):
            pb.LabeledPoint((), "A")


class TestDataset:
    def test_class_alphabet_is_first_appearance_order(self):
        ds = pb.Dataset([((0.0,), "B"), ((1.0,), "A"), ((2.0,), "B")])
        assert ds.classes == ("B", "A")
        assert ds.class_code("B") == 0
        assert list(ds.label_codes) == [0, 1, 0]

    def test_conflicting_duplicate_names_both_indices(self):
        with pytest.raises(pb.ConflictingDuplicateError) as exc:
            pb.Dataset([((0.0, 0.0), "A"), ((1.0, 1.0), "A"), ((0.0, 0.0), "B")])
        assert (exc.value.first, exc.value.second) == (0, 2)

    def test_exact_duplicate_same_label_allowed(self):
        ds = pb.Dataset([((1.0,), "A"), ((1.0,), "A"), ((2.0,), "B")])
        assert len(ds) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(pb.DatasetError, match="dimension"):
            pb.Dataset([((0.0,), "A"), ((0.0, 1.0), "B")])

    def test_empty_rejected(self):
        with pytest.raises(pb.DatasetError):
            pb.Dataset([])

    def test_coords_matrix_is_read_only(self):
        ds = pb.Dataset([((0.0, 1.0), "A")])
        assert ds.coords.shape == (1, 2)
        with pytest.raises(ValueError):
            ds.coords[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.label_codes[0] = 1

    def test_wrong_codes_skip_the_own_class(self):
        ds = pb.Dataset([((0.0,), "B"), ((1.0,), "A"), ((2.0,), "C")])
        assert ds.wrong_codes.dtype == np.int64
        assert ds.wrong_codes.tolist() == [[1, 2], [0, 2], [0, 1]]
        for own, row in zip(ds.label_codes, ds.wrong_codes):
            assert own not in row and list(row) == sorted(row)
        with pytest.raises(ValueError):
            ds.wrong_codes[0, 0] = 0

    def test_wrong_codes_single_class(self):
        single = pb.Dataset([((0.0,), "A"), ((1.0,), "A")])
        assert single.wrong_codes.shape == (2, 0)

    def test_wrong_codes_equal_the_rules_they_replace(self):
        for seed in range(40):
            ds = pb.fuzz_dataset(seed, max_n=20, max_classes=5)
            k = len(ds.classes)
            codes = ds.label_codes
            # the enumerators' list comprehension
            assert ds.wrong_codes.tolist() == [
                [c for c in range(k) if c != own] for own in codes.tolist()
            ]
            # the perceptron's first other class
            for p, row in zip(ds, ds.wrong_codes):
                first = next(c for c in ds.classes if c != p.label)
                assert ds.classes[row[0]] == first
            # the margin's skip arithmetic
            others = np.arange(k - 1)
            skip = others[None, :] + (others[None, :] >= codes[:, None])
            assert ds.wrong_codes.tobytes() == skip.tobytes()

    def test_refuses_squared_distances_that_overflow(self):
        # d2 would be inf, and the gaps min_squared_gap skips would be NaN
        with pytest.raises(pb.DatasetError, match="overflows float64"):
            pb.Dataset(OVERFLOWING_POINTS)
        with pytest.raises(pb.DatasetError, match="overflows float64"):
            pb.Dataset([((0.0, 1e154), "A"), ((0.0, -1e154), "B")])

    def test_refuses_squared_distances_that_underflow(self):
        # d2 would be 0.0 between two distinct points of different classes
        with pytest.raises(pb.DatasetError, match="underflow to 0.0"):
            pb.Dataset(UNDERFLOWING_POINTS)
        below = np.nextafter(MIN_COORD_MAGNITUDE, 0.0)
        with pytest.raises(pb.DatasetError, match="below 2\\^-482"):
            pb.Dataset([((1.0, -below), "A")])

    def test_squared_distances_at_the_range_limits_stay_positive_and_finite(
        self,
    ):
        tiny = MIN_COORD_MAGNITUDE
        sets = [
            [((0.0,), "A"), ((tiny,), "B"), ((-2.0 * tiny,), "A")],
            # the closest two floats at the limit: d2 is 2^-1068
            [((tiny,), "A"), ((tiny + 2.0**-534,), "B")],
            [((-1e153, 0.0), "A"), ((1e153, 0.0), "B")],
        ]
        for points in sets:
            ds = pb.Dataset(points)
            assert np.all(ds.nearest_sq_dists > 0.0)
            assert ds.diameter() < math.inf
            assert math.isfinite(pb.sufficient_sigma(ds).sigma_star)

    def test_diameter(self):
        ds = pb.Dataset([((0.0, 0.0), "A"), ((3.0, 4.0), "B"), ((1.0, 1.0), "A")])
        assert ds.diameter() == pytest.approx(5.0, abs=1e-12)

    def test_equality_covers_points_and_alphabet(self):
        a = pb.Dataset([((0.0,), "A")])
        b = pb.Dataset([((0.0,), "A")])
        c = pb.Dataset([((0.0,), "B")])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "x0,x1,label\n0,0,A\n1,0,A\n5,5,B\n")
        ds = pb.load_csv(path)
        assert len(ds) == 3
        assert ds.dim == 2
        assert ds.classes == ("A", "B")
        assert ds[2].coords == (5.0, 5.0)
        assert ds.feature_names == ("x0", "x1")

    def test_label_column_anywhere(self, tmp_path):
        path = write(tmp_path, "y,f1,f2\nA,0,1\nB,2,3\n", name="labeled.csv")
        ds = pb.load_csv(path, label_column="y")
        assert ds.dim == 2
        assert ds[1].coords == (2.0, 3.0)
        assert ds.label_name == "y"

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "x0,x1\n0,1\n")
        with pytest.raises(pb.DatasetError, match="'label'"):
            pb.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(pb.DatasetError, match="empty"):
            pb.load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "x0,label\n")
        with pytest.raises(pb.DatasetError, match="no data rows"):
            pb.load_csv(path)

    def test_no_feature_columns(self, tmp_path):
        path = write(tmp_path, "label\nA\n")
        with pytest.raises(pb.DatasetError, match="no feature columns"):
            pb.load_csv(path)

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "x0,x1,label\n0,0,A\n1,oops,B\n")
        with pytest.raises(pb.DatasetError, match=r"row 2, column 'x1'"):
            pb.load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "x0,label\nnan,A\n1,B\n")
        with pytest.raises(pb.DatasetError, match=r"row 1.*non-finite"):
            pb.load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "x0,x1,label\n0,0,A\n1,B\n")
        with pytest.raises(pb.DatasetError, match=r"row 2 has 2 cells"):
            pb.load_csv(path)

    def test_conflicting_duplicates_reported_as_file_rows(self, tmp_path):
        path = write(tmp_path, "x0,label\n3,A\n1,B\n3,C\n")
        with pytest.raises(pb.ConflictingDuplicateError) as exc:
            pb.load_csv(path)
        assert (exc.value.first, exc.value.second) == (1, 3)
        assert "rows 1 and 3" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(pb.DatasetError):
            pb.load_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "text, label_column",
        [("label,x,label\nA,0,1\nB,1,2\n", "label"),
         ("y,x, y\nA,0,1\nB,1,2\n", "y")],
    )
    def test_label_column_named_twice_is_refused(self, tmp_path, text, label_column):
        # the second column would be read as a feature named like the labels
        path = write(tmp_path, text)
        with pytest.raises(pb.DatasetError, match="more than once"):
            pb.load_csv(path, label_column)

    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,label\n0,caf\xe9\n")  # one Latin-1 byte
        with pytest.raises(
            pb.DatasetError, match=r"data\.csv: not UTF-8 text: .*\(byte 0xe9\)"
        ):
            pb.load_csv(path)

    def test_cell_past_the_field_size_limit_names_its_line(self, tmp_path):
        path = write(tmp_path, "x,label\n0,A\n1," + "b" * 200_000 + "\n")
        with pytest.raises(
            pb.DatasetError, match=r"data\.csv: line 3: field larger than field limit"
        ):
            pb.load_csv(path)

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
    def test_byte_order_mark_is_skipped(self, tmp_path, mark):
        # spreadsheet programs save "CSV UTF-8" with a leading U+FEFF
        path = write(tmp_path, mark + "label,x\nA,0\nB,1\n")
        assert path.read_bytes().startswith(mark.encode("utf-8") + b"label")
        ds = pb.load_csv(path)
        assert ds.label_name == "label" and ds.feature_names == ("x",)
        assert [(p.coords, p.label) for p in ds] == [((0.0,), "A"), ((1.0,), "B")]


class TestRoundTrip:
    def test_write_then_load_is_equal(self, tmp_path):
        ds = pb.generate_blobs(
            3, 5, [([0.0, 0.0], "A"), ([8.0, 3.0], "B")], 1.5
        )
        out = tmp_path / "out.csv"
        pb.write_csv(ds, out)
        assert pb.load_csv(out) == ds

    def test_quoted_labels_round_trip_with_newline_row_ends(self, tmp_path):
        labels = ["a,b", 'say "hi"', "two\nlines", "", "x"]
        ds = pb.Dataset([((float(i),), lab) for i, lab in enumerate(labels)])
        out = tmp_path / "out.csv"
        pb.write_csv(ds, out)
        assert out.read_bytes() == (
            b'x0,label\n0.0,"a,b"\n1.0,"say ""hi"""\n2.0,"two\nlines"\n3.0,\n'
            b"4.0,x\n"
        )
        back = pb.load_csv(out)
        assert back == ds and back.classes == ds.classes

    @pytest.mark.parametrize("label", [" A", "A ", "\tA", "A\n", "a\rb"])
    def test_labels_that_would_load_changed_are_refused(self, tmp_path, label):
        ds = pb.Dataset([((0.0,), "B"), ((1.0,), label)])
        out = tmp_path / "out.csv"
        with pytest.raises(pb.DatasetError, match="would not load back unchanged"):
            pb.write_csv(ds, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "names", [(["x\r1"], "label"), ([" x"], "label"), (["x"], "label "),
                  (["x"], "a\rb")],
    )
    def test_header_cells_that_would_load_changed_are_refused(self, tmp_path, names):
        features, label_name = names
        ds = pb.Dataset([((0.0,), "A")], feature_names=features, label_name=label_name)
        out = tmp_path / "out.csv"
        with pytest.raises(pb.DatasetError, match="column name .* would not load back"):
            pb.write_csv(ds, out)
        assert not out.exists()

    def test_first_header_cell_led_by_a_byte_order_mark_is_refused(self, tmp_path):
        # a file led by two marks loads with one left on its first column
        # name; written first in a file, that mark would be dropped on load
        path = write(tmp_path, "\ufeff\ufeffx,label\n0,A\n", name="in.csv")
        ds = pb.load_csv(path)
        assert ds.feature_names == ("\ufeffx",)
        out = tmp_path / "out.csv"
        with pytest.raises(pb.DatasetError, match="column name .* would not load back"):
            pb.write_csv(ds, out)
        assert not out.exists()
        # anywhere else, as after the prototype CSV's source_index, it loads back
        pb.dataset._write_points(ds, out, [0])
        back = pb.load_csv(out)
        assert back.feature_names == ("source_index", "\ufeffx")
        marked = pb.Dataset([((0.0,), "\ufeffA")], label_name="\ufefflabel")
        pb.write_csv(marked, out)
        assert pb.load_csv(out, "\ufefflabel") == marked

    @pytest.mark.parametrize("label_name", ["label", "y"])
    def test_feature_named_like_the_label_column_is_refused(self, tmp_path, label_name):
        # written as `label,y,label`, which load_csv refuses
        ds = pb.Dataset([((0.0, 1.0), "A")], feature_names=[label_name, "z"],
                        label_name=label_name)
        out = tmp_path / "out.csv"
        with pytest.raises(pb.DatasetError, match="names both a feature and the label"):
            pb.write_csv(ds, out)
        assert not out.exists()

    @settings(
        max_examples=50,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                # the coordinates a Dataset accepts: zero, or a magnitude
                # from 2^-482 up to where the squared span stays finite
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=MIN_COORD_MAGNITUDE, max_value=1e153),
                    st.floats(min_value=-1e153, max_value=-MIN_COORD_MAGNITUDE),
                ),
                st.sampled_from("AB"),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda r: r[0],
        )
    )
    def test_float_fidelity(self, tmp_path, rows):
        # repr() of a float round-trips exactly, so equality here is bitwise.
        ds = pb.Dataset([pb.LabeledPoint((v,), lab) for v, lab in rows])
        out = tmp_path / "prop.csv"
        pb.write_csv(ds, out)
        back = pb.load_csv(out)
        assert back == ds
        assert np.array_equal(back.coords, ds.coords)


class TestGenerators:
    CENTERS = [([0.0, 0.0], "A"), ([10.0, 0.0], "B")]

    def test_blobs_deterministic(self):
        a = pb.generate_blobs(7, 4, self.CENTERS, 0.5)
        b = pb.generate_blobs(7, 4, self.CENTERS, 0.5)
        assert a == b
        assert len(a) == 8
        assert a.classes == ("A", "B")

    def test_blobs_seed_changes_data(self):
        a = pb.generate_blobs(7, 4, self.CENTERS, 0.5)
        b = pb.generate_blobs(8, 4, self.CENTERS, 0.5)
        assert a != b

    @pytest.mark.parametrize("seed", [0, 1, 5, 123])
    @pytest.mark.parametrize("dim", [1, 2, 3, 16])
    def test_blobs_equal_the_former_per_point_loop(self, seed, dim):
        rng = np.random.default_rng(1000 + dim)
        centers = [(rng.uniform(-5, 5, size=dim).tolist(), label) for label in "ABC"]
        ds = pb.generate_blobs(seed, 7, centers, 0.9)
        assert [(p.coords, p.label) for p in ds] == loop_generate_blobs(
            seed, 7, centers, 0.9
        )

    def test_fuzz_blobs_equal_the_former_per_point_loop(self, monkeypatch):
        # every blob set fuzz_dataset builds for seeds 0-199, float for float
        generate, calls = pb.dataset.generate_blobs, []

        def checked(seed, n_per_class, centers, spread):
            ds = generate(seed, n_per_class, centers, spread)
            expected = loop_generate_blobs(seed, n_per_class, centers, spread)
            assert np.array_equal(ds.coords, [c for c, _ in expected])
            assert [p.label for p in ds] == [label for _, label in expected]
            calls.append(seed)
            return ds

        monkeypatch.setattr(pb.dataset, "generate_blobs", checked)
        for seed in range(200):
            pb.fuzz_dataset(seed)
        assert len(calls) > 50

    def test_blobs_validation(self):
        with pytest.raises(pb.DatasetError):
            pb.generate_blobs(0, 0, self.CENTERS, 0.5)
        with pytest.raises(pb.DatasetError):
            pb.generate_blobs(0, 1, self.CENTERS, 0.0)
        with pytest.raises(pb.DatasetError):
            pb.generate_blobs(0, 1, [], 0.5)
        with pytest.raises(pb.DatasetError):
            pb.generate_blobs(0, 1, [([0.0], "A"), ([0.0, 1.0], "B")], 0.5)
        # a draw that overflows is refused as a point built from it would be
        with np.errstate(over="ignore"):
            with pytest.raises(pb.DatasetError, match="non-finite coordinate in "
                               r"point \(inf, "):
                pb.generate_blobs(0, 5, [([1.7e308, 0.0], "A")], 1e308)

    def test_stream_validates_when_called(self):
        # the call itself raises, before any item is pulled
        with pytest.raises(pb.DatasetError, match="spread"):
            pb.blob_stream(0, self.CENTERS, -1.0)
        with pytest.raises(pb.DatasetError, match="center"):
            pb.blob_stream(0, [], 1.0)

    def test_stream_deterministic_and_mixed(self):
        import itertools

        first = list(itertools.islice(pb.blob_stream(3, self.CENTERS, 1.0), 50))
        again = list(itertools.islice(pb.blob_stream(3, self.CENTERS, 1.0), 50))
        assert first == again
        assert {p.label for p in first} == {"A", "B"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "centers",
        [[([0.0], "A"), ([2.5], "B")],
         [([0.0, 1.0, -2.0], "A"), ([3.0, 0.0, 1.0], "B"), ([-1.0, 4.0, 0.5], "C")],
         [([0.5 * j - 2.0 for j in range(9)], "A"),
          ([1e3, -3.25, 0.1, 7.0, -1e-3, 2.0, 0.0, 5.5, -8.0], "B")],
         [([1.5, -0.25], "A")]],
        ids=["1d", "3d", "9d", "one-center"],
    )
    def test_stream_items_equal_the_former_generator(self, seed, centers):
        import itertools

        got = list(itertools.islice(pb.blob_stream(seed, centers, 0.7), 2000))
        assert got == list(itertools.islice(former_blob_stream(seed, centers, 0.7), 2000))

    def test_random_dataset_every_class_appears(self):
        for seed in range(10):
            ds = pb.random_dataset(seed, n_points=6, dim=2, n_classes=4)
            assert len(ds) == 6 and ds.dim == 2
            assert len({p.label for p in ds}) == 4

    def test_random_dataset_classes_capped_by_points(self):
        ds = pb.random_dataset(0, n_points=2, dim=1, n_classes=5)
        assert len({p.label for p in ds}) == 2

    def test_fuzz_dataset_deterministic_and_bounded(self):
        for seed in range(20):
            ds = pb.fuzz_dataset(seed, max_n=12, max_dim=3, max_classes=3)
            assert ds == pb.fuzz_dataset(seed, max_n=12, max_dim=3, max_classes=3)
            assert 2 <= len(ds) <= 12
            assert 1 <= ds.dim <= 3
            assert 2 <= len(ds.classes) <= 3


# coordinates a fuzzed set repeats, so that sets hold equal rows under both
# labels and rows that differ only in the sign of a zero
REPEATED_VALUES = (0.0, -0.0, 1.0, -2.5, 3.0)


def repeating_points(seed):
    """1-12 points of dimension 1-3, labels A and B, whose coordinates are
    drawn from REPEATED_VALUES."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 13)), int(rng.integers(1, 4))
    picks = rng.integers(len(REPEATED_VALUES), size=(n, d)).tolist()
    labels = rng.choice(["A", "B"], size=n).tolist()
    return [
        (tuple(REPEATED_VALUES[k] for k in row), label)
        for row, label in zip(picks, labels)
    ]


def built(make, points):
    """`make(points)`, or the ConflictingDuplicateError it raised."""
    try:
        return make(points)
    except pb.ConflictingDuplicateError as exc:
        return exc


def shown(points):
    """The points' reprs, which tell -0.0 from 0.0."""
    return [repr(p) for p in points]


class TestArraysAgainstTheTupleOracle:
    SEEDS = range(300)
    SLICES = [slice(None), slice(1, None), slice(None, None, -1), slice(-3, -1),
              slice(None, None, 2), slice(5, 2), slice(-20, 20, 3)]

    @pytest.mark.parametrize("start", SEEDS[::50])
    def test_same_refusal_or_same_points(self, start):
        for s in range(start, start + 50):
            points = repeating_points(s)
            got, want = built(pb.Dataset, points), built(TupleDataset, points)
            if isinstance(want, pb.ConflictingDuplicateError):
                assert isinstance(got, pb.ConflictingDuplicateError)
                assert (got.first, got.second) == (want.first, want.second)
                assert str(got) == str(want)
                continue
            n = len(want)
            assert len(got) == n
            assert shown(got) == shown(want)
            for i in range(-n, n):
                assert repr(got[i]) == repr(want[i])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    got[i]
            for cut in self.SLICES:
                assert isinstance(got[cut], tuple)
                assert shown(got[cut]) == shown(want[cut])

    def test_equality_and_hash(self):
        sets = []
        for seed in self.SEEDS:
            points = repeating_points(seed)
            if isinstance(built(TupleDataset, points), pb.ConflictingDuplicateError):
                continue
            # the same points with every -0.0 turned into 0.0
            folded = [(tuple(v + 0.0 for v in c), label) for c, label in points]
            assert pb.Dataset(points) == pb.Dataset(folded)
            assert hash(pb.Dataset(points)) == hash(pb.Dataset(folded))
            sets.append(points)
        assert len(sets) > 50
        for a, b in zip(sets, sets[1:] + sets[:1]):
            for x, y in ((a, b), (a, a[::-1]), (a, a + a[:1])):
                assert (pb.Dataset(x) == pb.Dataset(y)) == (
                    TupleDataset(x) == TupleDataset(y)
                )

    def test_signed_zero_sets_are_equal_and_hash_equal(self):
        a = pb.Dataset([((-0.0, 1.0), "A"), ((0.0, -0.0), "B")])
        b = pb.Dataset([((0.0, 1.0), "A"), ((-0.0, 0.0), "B")])
        assert a == b and hash(a) == hash(b)
        assert a[0].coords[0] == 0.0 and math.copysign(1.0, a[0].coords[0]) < 0
        with pytest.raises(pb.ConflictingDuplicateError) as exc:
            pb.Dataset([((0.0,), "A"), ((-0.0,), "B")])
        assert (exc.value.first, exc.value.second) == (0, 1)

    @pytest.mark.parametrize("start", SEEDS[::50])
    def test_load_csv_rekeys_the_refusal_as_file_rows(self, tmp_path, start):
        for s in range(start, start + 50):
            points = repeating_points(s)
            want = built(TupleDataset, points)
            d = len(points[0][0])
            path = tmp_path / f"set{s}.csv"
            lines = [",".join([*(f"x{j}" for j in range(d)), "label"])]
            lines += [",".join([*map(repr, c), label]) for c, label in points]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if isinstance(want, pb.ConflictingDuplicateError):
                with pytest.raises(pb.ConflictingDuplicateError) as exc:
                    pb.load_csv(path)
                rows = (want.first + 1, want.second + 1)
                assert (exc.value.first, exc.value.second) == rows
                assert str(exc.value) == (
                    f"{path}: rows {rows[0]} and {rows[1]} have identical "
                    f"coordinates but different labels"
                )
            else:
                loaded = pb.load_csv(path)
                assert loaded == pb.Dataset(points)
                assert shown(loaded) == shown(want)


class TestGeneratorCounts:
    CENTERS = [([0.0, 0.0], "A"), ([10.0, 0.0], "B")]

    @pytest.mark.parametrize(
        "make, args, kwargs",
        [
            ("generate_blobs", (0, 2.5, CENTERS, 0.5), {}),
            ("generate_blobs", (0, "3", CENTERS, 0.5), {}),
            ("generate_blobs", (0, 0, CENTERS, 0.5), {}),
            ("random_dataset", (0, 5, 2.0, 2), {}),
            ("random_dataset", (0, 0, 2, 2), {}),
            ("random_dataset", (0, 5, 2, 0), {}),
            ("fuzz_dataset", (0,), {"max_n": 1}),
            ("fuzz_dataset", (0,), {"max_n": 2.5}),
            ("fuzz_dataset", (0,), {"max_dim": 0}),
            ("fuzz_dataset", (0,), {"max_classes": 1}),
        ],
        ids=["blobs-float", "blobs-str", "blobs-zero", "random-float-dim",
             "random-no-points", "random-no-classes", "fuzz-one-point",
             "fuzz-float-max-n", "fuzz-no-dim", "fuzz-one-class"],
    )
    def test_a_bad_count_is_refused_before_drawing(self, monkeypatch, make, args,
                                                   kwargs):
        def no_draws(*_):
            raise AssertionError("drew before checking its counts")

        monkeypatch.setattr(pb.dataset.np.random, "default_rng", no_draws)
        with pytest.raises(pb.DatasetError, match="must be an integer of at least"):
            getattr(pb, make)(*args, **kwargs)


def held_mb(make):
    """The memory, in MB by tracemalloc, that the result of `make()` holds,
    after one warm-up call."""
    make()
    tracemalloc.start()
    try:
        kept = make()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 20_000
    return held / 2**20


def test_a_large_set_holds_its_arrays_alone(tmp_path):
    # 20,000 points in 2-D in two classes: coordinates (320 kB), label codes
    # (160 kB) and wrong codes (160 kB); one LabeledPoint per point held
    # besides them came to over 4 MB
    centers = [((0.0, 0.0), "A"), ((2.0, 0.0), "B")]
    path = tmp_path / "large.csv"
    pb.write_csv(pb.generate_blobs(0, 10_000, centers, 0.8), path)
    assert held_mb(lambda: pb.load_csv(path)) < 1.0
    assert held_mb(lambda: pb.generate_blobs(0, 10_000, centers, 0.8)) < 1.0
