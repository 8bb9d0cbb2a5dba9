"""Command-line harness: run the algorithms, emit reproducible JSON reports.

Every report embeds the command line, a content hash of the input file,
all parameters, and the tool version, so re-running the printed command on
the same input reproduces the results exactly (all randomness is seeded).

Exit codes: 0 for a passing verdict or a written report, 1 for a failing
verdict, 2 for usage or input errors.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import click
from click.core import ParameterSource

from . import __version__
from .cnn import default_checkpoints, run_cnn, run_cnn_online
from .dataset import (
    DEFAULT_LABEL_COLUMN,
    Dataset,
    DatasetError,
    _check_reloadable,
    _write_points,
    blob_stream,
    fuzz_dataset,
    generate_blobs,
    load_csv,
    write_csv,
)
from .kernel_machine import (
    DEFAULT_MAX_PASSES,
    KernelConfig,
    PassBudgetError,
    _replay,
    run_mp,
)
from .margin_bound import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    GramBudgetError,
    NoCertifiedSigmaError,
    NotSeparableError,
    bound_infimum,
)
from .neighborly import (
    DEFAULT_SAMPLED_TRIALS,
    ExhaustiveCapError,
    GammaDegenerateError,
    SigmaCertificate,
    sufficient_sigma,
    verify_neighborly,
)
from .nn_rule import UpdateTrace, is_consistent


def _fail_input(message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write_output(path: str, write: Callable[[Path], None]) -> None:
    """Run `write(Path(path))`; an unwritable path is an input error."""
    try:
        write(Path(path))
    except OSError as exc:
        _fail_input(f"cannot write output: {exc}")


def _write_text(path: str, text: str) -> None:
    _write_output(
        path, lambda p: p.write_text(text, encoding="utf-8", newline="")
    )


def _load(path: str, label_column: str) -> Dataset:
    try:
        return load_csv(path, label_column)
    except DatasetError as exc:
        _fail_input(exc)


def _fingerprint(path: str | None) -> dict | None:
    if path is None:
        return None
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"path": str(path), "sha256": digest}


def _emit_report(
    out: str | None, results: dict, input_path: str | None, **resolved
) -> dict:
    """The running command's report, also written to `out` if given. Its
    parameters are the command's, in declaration order, with `resolved`'s
    values where the command resolved them; paths are left out, as the input
    is fingerprinted and an output is only a destination."""
    ctx = click.get_current_context()
    report = {
        "tool": "protobound",
        "version": __version__,
        "command": ctx.command.name,
        "argv": sys.argv[1:],
        "input": _fingerprint(input_path),
        "parameters": {
            p.name: resolved.get(p.name, ctx.params[p.name])
            for p in ctx.command.params
            if not isinstance(p.type, click.Path)
        },
        "results": results,
        "wall_clock_s": round(time.perf_counter() - ctx.obj, 6),
    }
    if out:
        _write_text(out, json.dumps(report, indent=2) + "\n")
    return report


def _trace_json(trace: UpdateTrace) -> list[dict]:
    return [
        {
            "pass": e.pass_number,
            "index": e.source_index,
            "label": e.true_class,
            "predicted": e.predicted,
        }
        for e in trace.events
    ]


def _certificate(dataset: Dataset, missing: str, hint: str) -> SigmaCertificate:
    """`sufficient_sigma(dataset)`, or an input error naming `missing` and `hint`."""
    try:
        return sufficient_sigma(dataset)
    except GammaDegenerateError as exc:
        _fail_input(f"{exc}; no analytic {missing} exists. Perturb the data or "
                    f"{hint}.")
    except ValueError as exc:  # a single point has no distance gaps
        _fail_input(f"{exc}; no analytic {missing} exists. "
                    f"{hint.capitalize()}.")


def _check_sigma(sigma: float) -> None:
    """Exit 2 unless `KernelConfig` accepts `sigma`."""
    try:
        KernelConfig(sigma)
    except ValueError as exc:
        _fail_input(exc)


def _refuse_unread(mode: str, *unread: str) -> dict:
    """Exit 2 if an option named in `unread`, which the running mode does not
    read, was given; `mode` says what they apply with. Returns them as the
    report's null parameters."""
    ctx = click.get_current_context()
    for name in unread:
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            _fail_input(f"--{name.replace('_', '-')} applies only with {mode}")
    return dict.fromkeys(unread)


def _default_sigma(dataset: Dataset) -> float:
    cert = _certificate(dataset, "bandwidth threshold", "pass --sigma explicitly")
    return cert.sigma_star / 2.0


def _parse_generator_spec(text: str) -> tuple[list, float, str | None]:
    """Centers, spread, and the spec file's path (None for inline JSON)."""
    raw = text.strip()
    path = None if raw.startswith("{") else raw
    if path is not None:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            _fail_input(f"cannot read generator spec: {exc}")
    try:
        spec = json.loads(raw)
        centers = [(list(map(float, c["coords"])), str(c["label"]))
                   for c in spec["centers"]]
        spread = float(spec["spread"])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        _fail_input(
            f"bad generator spec ({exc}); expected "
            f'{{"centers": [{{"coords": [...], "label": "A"}}, ...], "spread": s}}'
        )
    return centers, spread, path


@click.group()
@click.version_option(version=__version__, prog_name="protobound")
@click.pass_context
def main(ctx: click.Context) -> None:
    """Prototype condensation with certified size bounds."""
    ctx.obj = time.perf_counter()  # every report's wall_clock_s starts here


@main.command("cnn")
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--shuffle-seed", type=click.IntRange(min=0), default=None,
              help="Scan a seeded random permutation instead of file order.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
@click.option("--out-csv", type=click.Path(), default=None,
              help="Write the prototypes as CSV rows.")
def cnn_cmd(dataset_path, label_column, shuffle_seed, out, out_csv):
    """Condense a dataset into a consistent prototype set."""
    dataset = _load(dataset_path, label_column)
    if out_csv:
        # refused before the run: each class has a prototype in the CSV
        try:
            _check_reloadable(dataset, source_index=True)
        except DatasetError as exc:
            _fail_input(exc)
    trace = run_cnn(dataset, shuffle_seed=shuffle_seed)
    consistent = is_consistent(trace.prototypes, dataset)
    if out_csv:
        indices = trace.prototypes.indices
        _write_output(out_csv, lambda p: _write_points(dataset, p, indices))
    _emit_report(
        out,
        {
            "n": len(dataset),
            "prototype_count": len(trace.prototypes),
            "prototype_indices": list(trace.prototypes.indices),
            "passes": trace.n_passes,
            "consistent": consistent,
            "trace": _trace_json(trace),
        },
        dataset_path,
    )
    click.echo(
        f"n={len(dataset)} prototypes={len(trace.prototypes)} "
        f"passes={trace.n_passes} consistent={consistent}"
    )
    if not consistent:  # unreachable for a correct implementation
        sys.exit(1)


@main.command("mp")
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--sigma", type=float, default=None,
              help="Kernel bandwidth; defaults to half the certified threshold.")
@click.option("--max-passes", type=int, default=DEFAULT_MAX_PASSES,
              show_default=True)
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def mp_cmd(dataset_path, label_column, sigma, max_passes, out):
    """Train the kernel multiclass perceptron and dump its trace and weights."""
    dataset = _load(dataset_path, label_column)
    if sigma is None:
        sigma = _default_sigma(dataset)
    try:
        trace, weights = run_mp(dataset, KernelConfig(sigma), max_passes=max_passes)
    except ValueError as exc:
        _fail_input(exc)
    except PassBudgetError as exc:
        click.echo(f"FAIL: {exc}", err=True)
        sys.exit(1)
    _emit_report(
        out,
        {
            "n": len(dataset),
            "updates": len(trace.events),
            "passes": trace.n_passes,
            "trace": _trace_json(trace),
            "weights": weights.to_json_dict(),
        },
        dataset_path,
        sigma=sigma,
    )
    click.echo(
        f"n={len(dataset)} sigma={sigma} updates={len(trace.events)} "
        f"passes={trace.n_passes}"
    )


def _equiv_one(dataset: Dataset, sigma: float) -> tuple[bool, dict]:
    """Whether the perceptron replays condensation's events (equal events add
    equal prototypes), and the run's detail, with `sigma`, `n`, and
    condensation's prototype count and passes."""
    detail = {"sigma": sigma, "n": len(dataset)}
    cnn_trace = run_cnn(dataset)
    mp_trace = _replay(dataset, KernelConfig(sigma), cnn_trace)
    ok = cnn_trace.events == mp_trace.events
    detail["prototype_count"] = len(cnn_trace.prototypes)
    detail["passes"] = cnn_trace.n_passes
    if not ok:
        detail["cnn_events"] = len(cnn_trace.events)
        detail["mp_events"] = len(mp_trace.events)
    return ok, detail


@main.command("equiv")
@click.argument("dataset_path", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--sigma", type=float, default=None,
              help="Kernel bandwidth; defaults to half the certified threshold.")
@click.option("--fuzz", type=click.IntRange(min=1), default=None, metavar="N",
              help="Check N seeded random datasets instead of a file.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="First seed for --fuzz.")
@click.option("--max-n", type=click.IntRange(min=2), default=30, show_default=True,
              help="Largest fuzz dataset size.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def equiv_cmd(dataset_path, label_column, sigma, fuzz, seed, max_n, out):
    """Verify that condensation and the perceptron produce identical traces.

    The perceptron stops at condensation's pass count, past which it has
    diverged. Every run reports condensation's prototype count and passes."""
    if (dataset_path is None) == (fuzz is None):
        _fail_input("pass a dataset file or --fuzz N (exactly one)")
    if sigma is not None:
        _check_sigma(sigma)
    if fuzz is None:
        unread = _refuse_unread("--fuzz", "seed", "max_n")
    else:
        unread = _refuse_unread("a dataset file", "label_column")
    if fuzz is None:
        cases = [(None, _load(dataset_path, label_column))]
    else:
        cases = ((s, fuzz_dataset(s, max_n=max_n)) for s in range(seed, seed + fuzz))
    runs = []
    for case_seed, dataset in cases:
        run_sigma = sigma if sigma is not None else _default_sigma(dataset)
        ok, detail = _equiv_one(dataset, run_sigma)
        verdict = "PASS" if ok else "FAIL"
        if case_seed is None:
            runs.append({"verdict": verdict, **detail})
            click.echo(f"{verdict}: {detail}")
        else:
            runs.append({"seed": case_seed, "verdict": verdict, **detail})
            click.echo(
                f"seed {case_seed}: {verdict} "
                f"(n={detail['n']}, prototypes={detail['prototype_count']})"
            )
    passed = sum(r["verdict"] == "PASS" for r in runs)
    if fuzz is not None:
        click.echo(f"{passed}/{fuzz} PASS")
    _emit_report(
        out, {"runs": runs, "all_pass": passed == len(runs)}, dataset_path,
        **unread,
    )
    if passed < len(runs):
        sys.exit(1)


@main.command("bound")
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--sigma-grid", default=None,
              help="Comma-separated bandwidths; defaults to a geometric grid "
                   "under the certified threshold. A bandwidth at or above it "
                   "is kept where the perceptron replays condensation's trace.")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
              show_default=True,
              help="Solver budget per kernel component, in major steps.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def bound_cmd(dataset_path, label_column, sigma_grid, tol, max_iters, out):
    """Best certified size bound for the condensed set over a bandwidth grid."""
    dataset = _load(dataset_path, label_column)
    grid = None
    if sigma_grid is not None:
        try:
            grid = [float(v) for v in sigma_grid.split(",") if v.strip()]
        except ValueError:
            _fail_input(f"cannot parse --sigma-grid {sigma_grid!r}")
    try:
        report = bound_infimum(dataset, grid, tol=tol, max_iters=max_iters)
    except (ValueError, NoCertifiedSigmaError, GramBudgetError) as exc:
        _fail_input(exc)
    except NotSeparableError as exc:
        click.echo(f"FAIL: {exc} within --max-iters {max_iters}", err=True)
        sys.exit(1)
    best = report.best
    _emit_report(out, report.to_json_dict(), dataset_path, sigma_grid=grid)
    if best.vacuous:
        click.echo(
            f"single-class data: vacuous bound, prototypes={best.prototype_count}"
        )
    else:
        click.echo(
            f"best bound {best.bound:.6g} at sigma={best.sigma:.6g} "
            f"(delta_hat={best.delta_hat:.6g}, prototypes={best.prototype_count}, "
            f"satisfied={best.satisfied})"
        )
    if not best.satisfied:
        sys.exit(1)


@main.command("neighborly")
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--sigma", type=float, default=None,
              help="Verify this bandwidth; omit to print the certificate.")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]),
              default="exhaustive", show_default=True,
              help="How --sigma is verified.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed of the sampled trials.")
@click.option("--trials", type=int, default=DEFAULT_SAMPLED_TRIALS,
              show_default=True, help="Number of sampled trials.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def neighborly_cmd(dataset_path, label_column, sigma, mode, seed, trials, out):
    """Certify or verify that kernel scoring reproduces the 1-NN rule."""
    if sigma is None:
        unread = _refuse_unread("--sigma", "mode", "seed", "trials")
    elif mode == "exhaustive":
        unread = _refuse_unread("--mode sampled", "seed", "trials")
    else:
        unread = {}
    dataset = _load(dataset_path, label_column)
    if sigma is None:
        cert = _certificate(dataset, "certificate", "verify an explicit --sigma")
        _emit_report(out, {"certificate": cert.to_json_dict()}, dataset_path,
                     **unread)
        click.echo(json.dumps(cert.to_json_dict(), indent=2))
        return
    try:
        violation = verify_neighborly(
            dataset, KernelConfig(sigma), mode, seed=seed, trials=trials
        )
    except (ExhaustiveCapError, ValueError) as exc:
        _fail_input(exc)
    results = {
        "sigma": sigma,
        "verdict": "PASS" if violation is None else "VIOLATION",
        "violation": None
        if violation is None
        else {
            "subset": list(violation.subset),
            "assignment": violation.assignment,
            "query_index": violation.query_index,
            "argmax": violation.argmax_label,
            "nn": violation.nn_label,
            "degenerate": violation.degenerate,
        },
    }
    _emit_report(out, results, dataset_path, **unread)
    if violation is None:
        click.echo(f"PASS: sigma={sigma} is neighborly ({mode})")
    else:
        click.echo(f"VIOLATION: {violation.describe()}")
        sys.exit(1)


@main.command("online")
@click.option("--spec", required=True,
              help="Generator spec: inline JSON or a path to a JSON file.")
@click.option("--items", type=click.IntRange(min=0), required=True,
              help="Stream length to consume.")
@click.option("--checkpoints", type=click.IntRange(min=0), default=10,
              show_default=True,
              help="Number of evenly spaced growth samples.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-csv", type=click.Path(), default=None,
              help="Write the growth curve as CSV.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def online_cmd(spec, items, checkpoints, seed, out_csv, out):
    """Single-pass condensation over a seeded synthetic stream."""
    centers, spread, spec_path = _parse_generator_spec(spec)
    try:
        stream = blob_stream(seed, centers, spread)
        result = run_cnn_online(
            stream, items, default_checkpoints(items, checkpoints)
        )
    except DatasetError as exc:
        _fail_input(exc)
    if out_csv:
        _write_text(out_csv, "items_seen,prototypes\n" + "".join(
            f"{seen},{size}\n" for seen, size in result.curve
        ))
    _emit_report(out, asdict(result), spec_path)
    click.echo(
        f"items={result.items_seen} prototypes={result.prototype_count} "
        f"conflicts_skipped={result.conflicts_skipped}"
    )
    for seen, size in result.curve:
        click.echo(f"  {seen}: {size}")


@main.command("gen")
@click.option("--spec", required=True,
              help="Generator spec: inline JSON or a path to a JSON file.")
@click.option("--n-per-class", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="CSV destination.")
def gen_cmd(spec, n_per_class, seed, out_path):
    """Generate a labeled Gaussian-blob dataset as CSV."""
    centers, spread, _ = _parse_generator_spec(spec)
    try:
        dataset = generate_blobs(seed, n_per_class, centers, spread)
        _write_output(out_path, lambda p: write_csv(dataset, p))
    except DatasetError as exc:
        _fail_input(exc)
    click.echo(
        f"wrote {len(dataset)} points, classes={list(dataset.classes)} "
        f"to {out_path}"
    )


if __name__ == "__main__":
    main()
