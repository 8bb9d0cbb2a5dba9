"""End-to-end CLI behavior: verdicts, exit codes, and report reproducibility."""

import json

import pytest
from click.testing import CliRunner

import protobound as pb
from protobound.cli import main

LINE3_CSV = "x0,label\n0.0,A\n10.0,B\n11.0,B\n"
TIE_CSV = "x0,label\n-1.0,A\n0.0,B\n1.0,A\n"
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
    ],
    ids=[
        "equiv-negative-sigma", "equiv-zero-sigma", "fuzz-zero-sigma",
        "cnn-negative-seed", "fuzz-negative-seed", "online-negative-seed",
        "gen-negative-seed", "neighborly-negative-seed", "bound-nan-grid",
        "bound-inf-grid", "online-negative-checkpoints", "bound-zero-iters",
        "bound-negative-tol", "bound-nan-tol", "neighborly-no-cap-option",
    ],
)
def test_input_errors_exit_2(runner, d20_csv, tmp_path, args):
    argv = [a.replace("{data}", d20_csv).replace("{tmp}", str(tmp_path))
            for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


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

    def test_solver_budget_too_small_is_a_failing_verdict(self, runner, d20_csv):
        result = runner.invoke(main, ["bound", d20_csv, "--max-iters", "10"])
        assert result.exit_code == 1
        assert "FAIL: no positive margin certified at sigma=" in result.stderr
        assert "--max-iters 10" in result.stderr


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

    def test_negative_items(self, runner):
        result = runner.invoke(main, ["online", "--spec", SPEC, "--items", "-1"])
        assert result.exit_code == 2


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
