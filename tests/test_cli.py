"""End-to-end CLI behavior: verdicts, exit codes, and report reproducibility."""

import json

import pytest
from click.testing import CliRunner

import protobound as pb
from conftest import (
    GAP3_POINTS,
    OVERFLOWING_POINTS,
    TINY_SIGMAS,
    UNDERFLOWING_POINTS,
    UNDERFLOWING_SIGMA,
)
from protobound.cli import main

LINE3_CSV = "x0,label\n0.0,A\n10.0,B\n11.0,B\n"
TIE_CSV = "x0,label\n-1.0,A\n0.0,B\n1.0,A\n"
ONE_CSV = "x0,label\n0.0,A\n"
SPEC = '{"centers": [{"coords": [0.0], "label": "A"}, {"coords": [9.0], "label": "B"}], "spread": 0.5}'


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def line3_csv(tmp_path):
    path = tmp_path / "line3.csv"
    path.write_text(LINE3_CSV, encoding="utf-8")
    return str(path)


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def d20_csv(tmp_path):
    path = tmp_path / "d20.csv"
    pb.write_csv(pb.random_dataset(0, n_points=20, dim=2, n_classes=2), path)
    return str(path)


@pytest.fixture
def gap3_csv(tmp_path):
    path = tmp_path / "gap3.csv"
    pb.write_csv(pb.Dataset(GAP3_POINTS), path)
    return str(path)


@pytest.fixture
def one_csv(tmp_path):
    """A single row: no distance gaps, so no analytic bandwidth."""
    path = tmp_path / "one.csv"
    path.write_text(ONE_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain12_csv(tmp_path):
    """Twelve points on a line, labels alternating, gaps growing by 0.1:
    the upper default-grid bandwidths link them into kernel components
    that need tens of solver steps."""
    x, points = 0.0, []
    for i in range(12):
        points.append(((round(x, 10),), "AB"[i % 2]))
        x += 1.0 + 0.1 * i
    path = tmp_path / "chain12.csv"
    pb.write_csv(pb.Dataset(points), path)
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["equiv", "{data}", "--sigma", "-1"],
        ["equiv", "{data}", "--sigma", "0"],
        ["equiv", "--fuzz", "1", "--sigma", "0"],
        ["cnn", "{data}", "--shuffle-seed", "-1"],
        ["equiv", "--fuzz", "1", "--seed", "-1"],
        ["online", "--spec", SPEC, "--items", "5", "--seed", "-1"],
        ["gen", "--spec", SPEC, "--n-per-class", "3", "--seed", "-1",
         "--out", "{tmp}/gen.csv"],
        ["neighborly", "{data}", "--sigma", "0.1", "--mode", "sampled",
         "--seed", "-1"],
        ["bound", "{data}", "--sigma-grid", "nan"],
        ["bound", "{data}", "--sigma-grid", "0.1,inf"],
        ["online", "--spec", SPEC, "--items", "5", "--checkpoints", "-2"],
        ["bound", "{data}", "--max-iters", "0"],
        ["bound", "{data}", "--tol", "-1"],
        ["bound", "{data}", "--tol", "nan"],
        ["neighborly", "{data}", "--sigma", "0.1", "--cap", "40"],
        ["mp", "{one}"],
        ["equiv", "{one}"],
        ["neighborly", "{one}"],
    ],
    ids=[
        "equiv-negative-sigma", "equiv-zero-sigma", "fuzz-zero-sigma",
        "cnn-negative-seed", "fuzz-negative-seed", "online-negative-seed",
        "gen-negative-seed", "neighborly-negative-seed", "bound-nan-grid",
        "bound-inf-grid", "online-negative-checkpoints", "bound-zero-iters",
        "bound-negative-tol", "bound-nan-tol", "neighborly-no-cap-option",
        "mp-one-point", "equiv-one-point", "neighborly-one-point",
    ],
)
def test_input_errors_exit_2(runner, d20_csv, one_csv, tmp_path, args):
    argv = [a.replace("{data}", d20_csv).replace("{one}", one_csv)
            .replace("{tmp}", str(tmp_path)) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "command, csv_text, message",
    [
        ("mp", ONE_CSV, "need at least two points; no analytic bandwidth "
         "threshold exists. Pass --sigma explicitly."),
        ("mp", TIE_CSV, "query 1 is equidistant from points 0 and 2; no analytic "
         "bandwidth threshold exists. Perturb the data or pass --sigma explicitly."),
        ("equiv", ONE_CSV, "need at least two points; no analytic bandwidth "
         "threshold exists. Pass --sigma explicitly."),
        ("neighborly", ONE_CSV, "need at least two points; no analytic "
         "certificate exists. Verify an explicit --sigma."),
        ("neighborly", TIE_CSV, "query 1 is equidistant from points 0 and 2; no "
         "analytic certificate exists. Perturb the data or verify an explicit "
         "--sigma."),
    ],
    ids=["mp-one-point", "mp-tie", "equiv-one-point", "neighborly-one-point",
         "neighborly-tie"],
)
def test_missing_certificate_messages(runner, tmp_path, command, csv_text, message):
    path = tmp_path / "data.csv"
    path.write_text(csv_text, encoding="utf-8")
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["cnn", "{data}", "--out", "{missing}/report.json"],
        ["cnn", "{data}", "--out-csv", "{missing}/prototypes.csv"],
        ["online", "--spec", SPEC, "--items", "5", "--out-csv",
         "{missing}/growth.csv"],
        ["gen", "--spec", SPEC, "--n-per-class", "3", "--out",
         "{missing}/data.csv"],
    ],
    ids=["cnn-out", "cnn-out-csv", "online-out-csv", "gen-out"],
)
def test_unwritable_output_exits_2(runner, line3_csv, tmp_path, args):
    argv = [a.replace("{data}", line3_csv)
            .replace("{missing}", str(tmp_path / "missing")) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "cannot write output" in result.output


@pytest.mark.parametrize(
    "points, message",
    [
        (OVERFLOWING_POINTS, "overflows float64"),
        (UNDERFLOWING_POINTS, "underflow to 0.0"),
    ],
    ids=["overflow", "underflow"],
)
@pytest.mark.parametrize("command", ["cnn", "mp", "equiv", "neighborly", "bound"])
def test_coordinates_out_of_range_exit_2(runner, tmp_path, command, points, message):
    # squared distances would leave float64: sigma* = inf, or d2 = 0.0
    # between distinct points; the file is refused before any command runs
    path = tmp_path / "range.csv"
    path.write_text(
        "x0,label\n" + "".join(f"{x!r},{label}\n" for (x,), label in points),
        encoding="utf-8",
    )
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {path}: ")
    assert message in result.output


@pytest.mark.parametrize("sigma", TINY_SIGMAS)
@pytest.mark.parametrize("command", ["neighborly", "equiv"])
def test_certified_tiny_sigma_passes(runner, gap3_csv, command, sigma):
    # every off-diagonal d2 / (2 sigma^2) overflows, yet sigma is certified
    result = runner.invoke(main, [command, gap3_csv, "--sigma", repr(sigma)])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("PASS")


@pytest.mark.parametrize(
    "args",
    [["mp", "--sigma"], ["equiv", "--sigma"], ["neighborly", "--sigma"],
     ["bound", "--sigma-grid"]],
    ids=["mp", "equiv", "neighborly", "bound"],
)
def test_underflowing_sigma_exits_2(runner, gap3_csv, args):
    command, option = args
    result = runner.invoke(
        main, [command, gap3_csv, option, repr(UNDERFLOWING_SIGMA)]
    )
    assert result.exit_code == 2, result.output
    assert "2 sigma^2 underflows to 0.0" in result.stderr


class TestEnvelope:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "protobound" in result.output

    def test_report_envelope_fields(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["cnn", line3_csv, "--out", str(out)])
        assert result.exit_code == 0
        report = read_report(out)
        assert set(report) == {
            "tool", "version", "command", "argv", "input",
            "parameters", "results", "wall_clock_s",
        }
        assert report["tool"] == "protobound"
        assert report["command"] == "cnn"
        assert report["input"]["path"] == line3_csv
        assert len(report["input"]["sha256"]) == 64
        assert report["version"] == pb.__version__

    def test_same_input_same_fingerprint(self, runner, line3_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert runner.invoke(
                main, ["cnn", line3_csv, "--out", str(out)]
            ).exit_code == 0
            outs.append(read_report(out))
        assert outs[0]["input"] == outs[1]["input"]
        assert outs[0]["results"] == outs[1]["results"]


class TestCnnCommand:
    def test_line3(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        protos = tmp_path / "protos.csv"
        result = runner.invoke(
            main, ["cnn", line3_csv, "--out", str(out), "--out-csv", str(protos)]
        )
        assert result.exit_code == 0
        assert "n=3 prototypes=2 passes=2 consistent=True" in result.output
        report = read_report(out)
        assert report["results"]["prototype_indices"] == [0, 1]
        assert report["results"]["trace"] == [
            {"pass": 1, "index": 0, "label": "A", "predicted": None},
            {"pass": 1, "index": 1, "label": "B", "predicted": "A"},
        ]
        assert protos.read_text(encoding="utf-8") == (
            "source_index,x0,label\n0,0.0,A\n1,10.0,B\n"
        )

    def test_prototype_csv_reloads(self, runner, line3_csv, tmp_path):
        protos = tmp_path / "protos.csv"
        runner.invoke(main, ["cnn", line3_csv, "--out-csv", str(protos)])
        ds = pb.load_csv(protos, label_column="label")
        assert len(ds) == 2  # source_index parses as a feature column
        assert ds.dim == 2

    def test_prototype_csv_quotes_commas_and_quotes(self, runner, tmp_path):
        data = tmp_path / "names.csv"
        data.write_text('"x,1",label\n0.0,"a,b"\n5.0,"say ""hi"""\n',
                        encoding="utf-8")
        protos = tmp_path / "protos.csv"
        result = runner.invoke(main, ["cnn", str(data), "--out-csv", str(protos)])
        assert result.exit_code == 0, result.output
        assert protos.read_text(encoding="utf-8") == (
            'source_index,"x,1",label\n0,0.0,"a,b"\n1,5.0,"say ""hi"""\n'
        )
        ds = pb.load_csv(protos)
        assert ds.feature_names == ("source_index", "x,1")
        assert [(p.coords, p.label) for p in ds] == [
            ((0.0, 0.0), "a,b"), ((1.0, 5.0), 'say "hi"'),
        ]

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["cnn", "nowhere.csv"])
        assert result.exit_code == 2

    def test_bad_csv(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,label\noops,A\n", encoding="utf-8")
        result = runner.invoke(main, ["cnn", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.stderr


class TestMpCommand:
    def test_default_sigma(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["mp", line3_csv, "--out", str(out)])
        assert result.exit_code == 0
        assert "updates=2 passes=2" in result.output
        report = read_report(out)
        weights = report["results"]["weights"]
        assert [r["index"] for r in weights["records"]] == [0, 1]
        assert weights["classes"] == ["A", "B"]
        # default bandwidth is half the certified threshold
        assert weights["sigma"] == pytest.approx(0.6005612043932249 / 2)

    def test_pass_budget_exhaustion_fails(self, runner, line3_csv):
        result = runner.invoke(main, ["mp", line3_csv, "--max-passes", "1"])
        assert result.exit_code == 1
        assert "FAIL" in result.stderr

    def test_no_passes_is_a_usage_error(self, runner, line3_csv):
        result = runner.invoke(main, ["mp", line3_csv, "--max-passes", "0"])
        assert result.exit_code == 2
        assert "FAIL" not in result.stderr
        assert "max_passes must be at least 1" in result.stderr

    def test_tied_data_needs_explicit_sigma(self, runner, tmp_path):
        path = tmp_path / "tie.csv"
        path.write_text(TIE_CSV, encoding="utf-8")
        result = runner.invoke(main, ["mp", str(path)])
        assert result.exit_code == 2
        assert "--sigma" in result.stderr
        result = runner.invoke(main, ["mp", str(path), "--sigma", "0.05"])
        assert result.exit_code == 0

    def test_one_point_needs_explicit_sigma(self, runner, one_csv):
        result = runner.invoke(main, ["mp", one_csv])
        assert result.exit_code == 2
        assert "--sigma" in result.stderr
        result = runner.invoke(main, ["mp", one_csv, "--sigma", "0.5"])
        assert result.exit_code == 0, result.output


class TestEquivCommand:
    def test_file_mode(self, runner, line3_csv):
        result = runner.invoke(main, ["equiv", line3_csv])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_fuzz_mode(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["equiv", "--fuzz", "3", "--seed", "5", "--max-n", "12",
                   "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "3/3 PASS" in result.output
        report = read_report(out)
        assert report["results"]["all_pass"] is True
        assert [r["seed"] for r in report["results"]["runs"]] == [5, 6, 7]

    def test_fuzz_refuses_checking_nothing(self, runner):
        for fuzz in ("0", "-3"):
            result = runner.invoke(main, ["equiv", "--fuzz", fuzz])
            assert result.exit_code == 2
            assert "PASS" not in result.output
            assert "--fuzz" in result.stderr

    def test_fuzz_refuses_max_n_below_two(self, runner):
        result = runner.invoke(main, ["equiv", "--fuzz", "2", "--max-n", "1"])
        assert result.exit_code == 2
        assert "--max-n" in result.stderr
        result = runner.invoke(main, ["equiv", "--fuzz", "2", "--max-n", "2"])
        assert result.exit_code == 0

    def test_requires_exactly_one_input(self, runner, line3_csv):
        assert runner.invoke(main, ["equiv"]).exit_code == 2
        assert (
            runner.invoke(main, ["equiv", line3_csv, "--fuzz", "2"]).exit_code
            == 2
        )


class TestBoundCommand:
    def test_default_grid(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["bound", line3_csv, "--out", str(out)])
        assert result.exit_code == 0
        assert "best bound 2.6" in result.output
        assert "satisfied=True" in result.output
        report = read_report(out)
        assert report["results"]["best"]["prototype_count"] == 2
        assert report["results"]["best"]["R"] == pytest.approx(2**0.5)
        assert len(report["results"]["evaluated"]) == 16

    def test_explicit_grid(self, runner, line3_csv):
        result = runner.invoke(main, ["bound", line3_csv, "--sigma-grid", "0.1,0.2"])
        assert result.exit_code == 0

    def test_uncertifiable_grid(self, runner, line3_csv):
        result = runner.invoke(main, ["bound", line3_csv, "--sigma-grid", "15"])
        assert result.exit_code == 2

    def test_bad_grids(self, runner, line3_csv):
        assert (
            runner.invoke(main, ["bound", line3_csv, "--sigma-grid", "abc"]).exit_code
            == 2
        )
        assert (
            runner.invoke(main, ["bound", line3_csv, "--sigma-grid", "-1"]).exit_code
            == 2
        )

    def test_solver_budget_too_small_is_a_failing_verdict(
        self, runner, chain12_csv, tmp_path
    ):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["bound", chain12_csv, "--out", str(out)])
        assert result.exit_code == 0
        evaluated = read_report(out)["results"]["evaluated"]
        assert max(r["iterations"] for r in evaluated) > 10
        result = runner.invoke(main, ["bound", chain12_csv, "--max-iters", "10"])
        assert result.exit_code == 1
        assert "FAIL: no positive margin certified at sigma=" in result.stderr
        assert "--max-iters 10" in result.stderr

    def test_gram_past_budget_exits_2(self, runner, chain12_csv, monkeypatch):
        monkeypatch.setattr(pb.margin_bound, "GRAM_BYTE_BUDGET", 1000)
        result = runner.invoke(main, ["bound", chain12_csv])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "largest kernel component" in result.stderr
        assert "past the budget of 1,000 bytes" in result.stderr


class TestNeighborlyCommand:
    def test_certificate_print(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["neighborly", line3_csv, "--out", str(out)])
        assert result.exit_code == 0
        cert = json.loads(result.output)
        assert cert["sigma_star"] == pytest.approx(0.6005612043932249)
        assert cert["gamma"] == 1.0
        assert read_report(out)["results"]["certificate"] == cert

    def test_verification_pass(self, runner, line3_csv):
        result = runner.invoke(main, ["neighborly", line3_csv, "--sigma", "0.3"])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_verification_violation(self, runner, line3_csv, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["neighborly", line3_csv, "--sigma", "15", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "VIOLATION" in result.output
        violation = read_report(out)["results"]["violation"]
        assert violation["subset"] == [0, 1, 2]
        assert violation["query_index"] == 0

    def test_sampled_seed_names_its_golden_witness(self, runner, tmp_path):
        # the witness the per-member draws named for this seed, so the
        # one-call draw keeps it; it is the 1,555th of the default 2,000
        # trials
        path = tmp_path / "r6.csv"
        pb.write_csv(
            pb.random_dataset(1, n_points=40, dim=2, n_classes=6), path
        )
        result = runner.invoke(
            main,
            ["neighborly", str(path), "--sigma", "0.05", "--mode", "sampled",
             "--seed", "11"],
        )
        assert result.exit_code == 1
        assert result.output == (
            "VIOLATION: argmax mismatch: P=[2, 3, 7, 8, 9, 17, 18, 20, 21, 22, "
            "23, 26, 28, 29, 33, 34, 35, 38], o=(2->F, 3->C, 7->B, 8->F, 9->E, "
            "17->C, 18->E, 20->A, 21->B, 22->A, 23->E, 26->F, 28->D, 29->A, "
            "33->E, 34->F, 35->E, 38->E), query=15, argmax='B', nn='F'\n"
        )

    def test_tie_has_no_certificate(self, runner, tmp_path):
        path = tmp_path / "tie.csv"
        path.write_text(TIE_CSV, encoding="utf-8")
        result = runner.invoke(main, ["neighborly", str(path)])
        assert result.exit_code == 2
        assert "equidistant" in result.stderr

    def test_budget_decides_exhaustive_mode(self, runner, tmp_path):
        # 9 points fit the row budget and are enumerated; 16 do not
        small = tmp_path / "d9.csv"
        pb.write_csv(pb.random_dataset(0, n_points=9, dim=1, n_classes=2), small)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["neighborly", str(small), "--sigma", "0.001", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "cap" not in read_report(out)["parameters"]
        big = tmp_path / "d16.csv"
        pb.write_csv(pb.random_dataset(0, n_points=16, dim=1, n_classes=2), big)
        result = runner.invoke(main, ["neighborly", str(big), "--sigma", "0.001"])
        assert result.exit_code == 2
        assert "mode='sampled'" in result.stderr
        result = runner.invoke(
            main,
            ["neighborly", str(big), "--sigma", "0.001", "--mode", "sampled",
             "--trials", "50"],
        )
        assert result.exit_code == 0

    def test_work_budget_exceeded(self, runner, tmp_path):
        # 2^30 subsets: refused up front instead of running for hours
        ds = pb.random_dataset(0, n_points=30, dim=1, n_classes=2)
        path = tmp_path / "d30.csv"
        pb.write_csv(ds, path)
        result = runner.invoke(main, ["neighborly", str(path), "--sigma", "0.01"])
        assert result.exit_code == 2
        assert "budget" in result.stderr

    def test_sampled_needs_a_trial(self, runner, line3_csv):
        for trials in ("0", "-5"):
            result = runner.invoke(
                main,
                ["neighborly", line3_csv, "--sigma", "15", "--mode", "sampled",
                 "--trials", trials],
            )
            assert result.exit_code == 2
            assert "PASS" not in result.output
            assert "at least one trial" in result.stderr

    def test_nonpositive_sigma_is_an_input_error(self, runner, line3_csv):
        result = runner.invoke(main, ["neighborly", line3_csv, "--sigma", "0"])
        assert result.exit_code == 2
        assert "sigma must be positive" in result.stderr


class TestOnlineCommand:
    def test_inline_spec(self, runner, tmp_path):
        out = tmp_path / "report.json"
        curve_csv = tmp_path / "curve.csv"
        result = runner.invoke(
            main,
            ["online", "--spec", SPEC, "--items", "50", "--seed", "3",
             "--out", str(out), "--out-csv", str(curve_csv)],
        )
        assert result.exit_code == 0
        assert "items=50" in result.output
        report = read_report(out)
        curve = report["results"]["curve"]
        assert [seen for seen, _ in curve] == pb.default_checkpoints(50)
        lines = curve_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "items_seen,prototypes"
        assert len(lines) == len(curve) + 1

    def test_spec_from_file(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(SPEC, encoding="utf-8")
        result = runner.invoke(
            main, ["online", "--spec", str(spec_path), "--items", "10"]
        )
        assert result.exit_code == 0

    def test_seed_reproducibility(self, runner):
        a = runner.invoke(main, ["online", "--spec", SPEC, "--items", "40"])
        b = runner.invoke(main, ["online", "--spec", SPEC, "--items", "40"])
        assert a.output == b.output

    def test_bad_spec(self, runner):
        result = runner.invoke(
            main, ["online", "--spec", '{"nope": 1}', "--items", "5"]
        )
        assert result.exit_code == 2
        assert "generator spec" in result.stderr

    def test_bad_spec_values_exit_2_with_no_items(self, runner):
        result = runner.invoke(
            main,
            ["online", "--spec", '{"centers": [], "spread": -1}', "--items", "0"],
        )
        assert result.exit_code == 2, result.output

    def test_negative_items(self, runner):
        result = runner.invoke(main, ["online", "--spec", SPEC, "--items", "-1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"centers": [{"coords": [0], "label": "A"}, {"coords": [1e200], '
             '"label": "B"}], "spread": 1e199}', "overflows float64"),
            ('{"centers": [{"coords": [0], "label": "A"}, {"coords": [0], '
             '"label": "B"}], "spread": 1e-150}', "underflow to 0.0"),
        ],
        ids=["wide", "narrow"],
    )
    def test_items_out_of_range_exit_2(self, runner, spec, message):
        # streamed items meet the range rule of a dataset file
        result = runner.invoke(main, ["online", "--spec", spec, "--items", "50"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: stream item ")
        assert message in result.output


class TestGenCommand:
    def test_writes_loadable_csv(self, runner, tmp_path):
        out = tmp_path / "blobs.csv"
        result = runner.invoke(
            main, ["gen", "--spec", SPEC, "--n-per-class", "5", "--out", str(out)]
        )
        assert result.exit_code == 0
        ds = pb.load_csv(out)
        assert len(ds) == 10
        assert ds.classes == ("A", "B")

    def test_deterministic(self, runner, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            runner.invoke(
                main,
                ["gen", "--spec", SPEC, "--n-per-class", "4", "--seed", "9",
                 "--out", str(path)],
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
