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
import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from .cnn import default_checkpoints, run_cnn, run_cnn_online
from .dataset import (
    DEFAULT_LABEL_COLUMN,
    Dataset,
    DatasetError,
    blob_stream,
    fuzz_dataset,
    generate_blobs,
    load_csv,
    write_csv,
)
from .kernel_machine import KernelConfig, PassBudgetError, run_mp
from .margin_bound import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    NoCertifiedSigmaError,
    NotSeparableError,
    UncertifiedSigmaError,
    bound_infimum,
)
from .neighborly import (
    DEFAULT_SAMPLED_TRIALS,
    ExhaustiveCapError,
    GammaDegenerateError,
    sufficient_sigma,
    verify_neighborly,
)
from .nn_rule import UpdateTrace, is_consistent


def _fail_input(message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


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
    out: str | None,
    command: str,
    parameters: dict,
    results: dict,
    input_path: str | None,
    started: float,
) -> dict:
    report = {
        "tool": "protobound",
        "version": __version__,
        "command": command,
        "argv": sys.argv[1:],
        "input": _fingerprint(input_path),
        "parameters": parameters,
        "results": results,
        "wall_clock_s": round(time.perf_counter() - started, 6),
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
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


def _default_sigma(dataset: Dataset) -> float:
    try:
        return sufficient_sigma(dataset).sigma_star / 2.0
    except GammaDegenerateError as exc:
        _fail_input(
            f"{exc}; no analytic bandwidth threshold exists. "
            f"Perturb the data or pass --sigma explicitly."
        )


def _parse_generator_spec(text: str) -> tuple[list[tuple[list[float], str]], float]:
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            raw = Path(raw).read_text(encoding="utf-8")
        except OSError as exc:
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
    return centers, spread


def _traces_match(a: UpdateTrace, b: UpdateTrace) -> bool:
    return (
        a.events == b.events
        and a.prototypes.indices == b.prototypes.indices
    )


@click.group()
@click.version_option(version=__version__, prog_name="protobound")
def main() -> None:
    """Prototype condensation with certified size bounds."""


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
    started = time.perf_counter()
    dataset = _load(dataset_path, label_column)
    trace = run_cnn(dataset, shuffle_seed=shuffle_seed)
    consistent = is_consistent(trace.prototypes, dataset)
    if out_csv:
        with Path(out_csv).open("w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(
                ["source_index", *dataset.feature_names, dataset.label_name]
            ) + "\n")
            for i, p in trace.prototypes.members():
                fh.write(",".join([str(i), *(repr(v) for v in p.coords), p.label]))
                fh.write("\n")
    _emit_report(
        out,
        "cnn",
        {"label_column": label_column, "shuffle_seed": shuffle_seed},
        {
            "n": len(dataset),
            "prototype_count": len(trace.prototypes),
            "prototype_indices": list(trace.prototypes.indices),
            "passes": trace.n_passes,
            "consistent": consistent,
            "trace": _trace_json(trace),
        },
        dataset_path,
        started,
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
@click.option("--max-passes", type=int, default=1000, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def mp_cmd(dataset_path, label_column, sigma, max_passes, out):
    """Train the kernel multiclass perceptron and dump its trace and weights."""
    started = time.perf_counter()
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
        "mp",
        {"label_column": label_column, "sigma": sigma, "max_passes": max_passes},
        {
            "n": len(dataset),
            "updates": len(trace.events),
            "passes": trace.n_passes,
            "trace": _trace_json(trace),
            "weights": weights.to_json_dict(),
        },
        dataset_path,
        started,
    )
    click.echo(
        f"n={len(dataset)} sigma={sigma} updates={len(trace.events)} "
        f"passes={trace.n_passes}"
    )


def _equiv_one(dataset: Dataset, sigma: float) -> tuple[bool, dict]:
    cnn_trace = run_cnn(dataset)
    try:
        mp_trace, _ = run_mp(dataset, KernelConfig(sigma))
    except PassBudgetError:
        return False, {"reason": "perceptron pass budget exhausted"}
    ok = _traces_match(cnn_trace, mp_trace)
    detail = {
        "sigma": sigma,
        "n": len(dataset),
        "prototype_count": len(cnn_trace.prototypes),
        "passes": cnn_trace.n_passes,
    }
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
@click.option("--fuzz", type=int, default=None, metavar="N",
              help="Check N seeded random datasets instead of a file.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="First seed for --fuzz.")
@click.option("--max-n", type=int, default=30, show_default=True,
              help="Largest fuzz dataset size.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def equiv_cmd(dataset_path, label_column, sigma, fuzz, seed, max_n, out):
    """Verify that condensation and the perceptron produce identical traces."""
    started = time.perf_counter()
    if (dataset_path is None) == (fuzz is None):
        _fail_input("pass a dataset file or --fuzz N (exactly one)")
    if fuzz is not None and fuzz < 1:
        _fail_input(f"--fuzz needs at least one dataset, got {fuzz}")
    if fuzz is not None and max_n < 2:
        _fail_input(f"--max-n must be at least 2, got {max_n}")
    if sigma is not None:
        try:
            KernelConfig(sigma)
        except ValueError as exc:
            _fail_input(exc)
    runs = []
    all_ok = True
    if fuzz is None:
        dataset = _load(dataset_path, label_column)
        run_sigma = sigma if sigma is not None else _default_sigma(dataset)
        ok, detail = _equiv_one(dataset, run_sigma)
        runs.append({"verdict": "PASS" if ok else "FAIL", **detail})
        all_ok = ok
        click.echo(f"{'PASS' if ok else 'FAIL'}: {detail}")
    else:
        for s in range(seed, seed + fuzz):
            dataset = fuzz_dataset(s, max_n=max_n)
            run_sigma = sigma if sigma is not None else _default_sigma(dataset)
            ok, detail = _equiv_one(dataset, run_sigma)
            runs.append({"seed": s, "verdict": "PASS" if ok else "FAIL", **detail})
            all_ok = all_ok and ok
            click.echo(
                f"seed {s}: {'PASS' if ok else 'FAIL'} "
                f"(n={detail['n']}, prototypes={detail.get('prototype_count', '?')})"
            )
        click.echo(f"{sum(r['verdict'] == 'PASS' for r in runs)}/{fuzz} PASS")
    _emit_report(
        out,
        "equiv",
        {"label_column": label_column, "sigma": sigma, "fuzz": fuzz,
         "seed": seed, "max_n": max_n},
        {"runs": runs, "all_pass": all_ok},
        dataset_path,
        started,
    )
    if not all_ok:
        sys.exit(1)


@main.command("bound")
@click.argument("dataset_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default=DEFAULT_LABEL_COLUMN, show_default=True)
@click.option("--sigma-grid", default=None,
              help="Comma-separated bandwidths; defaults to a geometric grid "
                   "under the certified threshold.")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--max-iters", type=click.IntRange(min=1), default=DEFAULT_MAX_ITERS,
              show_default=True)
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def bound_cmd(dataset_path, label_column, sigma_grid, tol, max_iters, out):
    """Best certified size bound for the condensed set over a bandwidth grid."""
    started = time.perf_counter()
    if not (tol >= 0 and math.isfinite(tol)):
        _fail_input(f"--tol must be nonnegative and finite, got {tol}")
    dataset = _load(dataset_path, label_column)
    grid = None
    if sigma_grid is not None:
        try:
            grid = [float(v) for v in sigma_grid.split(",") if v.strip()]
        except ValueError:
            _fail_input(f"cannot parse --sigma-grid {sigma_grid!r}")
        if not grid or not all(v > 0 and math.isfinite(v) for v in grid):
            _fail_input("--sigma-grid needs positive, finite bandwidths")
    try:
        report = bound_infimum(dataset, grid, tol=tol, max_iters=max_iters)
    except NoCertifiedSigmaError as exc:
        _fail_input(exc)
    except NotSeparableError as exc:
        click.echo(f"FAIL: {exc} within --max-iters {max_iters}", err=True)
        sys.exit(1)
    best = report.best
    _emit_report(
        out,
        "bound",
        {"label_column": label_column, "sigma_grid": grid,
         "tol": tol, "max_iters": max_iters},
        report.to_json_dict(),
        dataset_path,
        started,
    )
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
              default="exhaustive", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=int, default=DEFAULT_SAMPLED_TRIALS,
              show_default=True)
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def neighborly_cmd(dataset_path, label_column, sigma, mode, seed, trials, out):
    """Certify or verify that kernel scoring reproduces the 1-NN rule."""
    started = time.perf_counter()
    dataset = _load(dataset_path, label_column)
    params = {"label_column": label_column, "sigma": sigma, "mode": mode,
              "seed": seed, "trials": trials}
    if sigma is None:
        try:
            cert = sufficient_sigma(dataset)
        except GammaDegenerateError as exc:
            _fail_input(
                f"{exc}; no analytic certificate exists. Perturb the data or "
                f"verify an explicit --sigma."
            )
        _emit_report(out, "neighborly", params,
                     {"certificate": cert.to_json_dict()}, dataset_path, started)
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
    _emit_report(out, "neighborly", params, results, dataset_path, started)
    if violation is None:
        click.echo(f"PASS: sigma={sigma} is neighborly ({mode})")
    else:
        click.echo(f"VIOLATION: {violation.describe()}")
        sys.exit(1)


@main.command("online")
@click.option("--spec", required=True,
              help="Generator spec: inline JSON or a path to a JSON file.")
@click.option("--items", type=int, required=True, help="Stream length to consume.")
@click.option("--checkpoints", type=click.IntRange(min=0), default=10,
              show_default=True,
              help="Number of evenly spaced growth samples.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-csv", type=click.Path(), default=None,
              help="Write the growth curve as CSV.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path.")
def online_cmd(spec, items, checkpoints, seed, out_csv, out):
    """Single-pass condensation over a seeded synthetic stream."""
    started = time.perf_counter()
    if items < 0:
        _fail_input("--items must be nonnegative")
    centers, spread = _parse_generator_spec(spec)
    try:
        stream = blob_stream(seed, centers, spread)
        result = run_cnn_online(
            stream, items, default_checkpoints(items, checkpoints)
        )
    except DatasetError as exc:
        _fail_input(exc)
    if out_csv:
        with Path(out_csv).open("w", encoding="utf-8", newline="") as fh:
            fh.write("items_seen,prototypes\n")
            for seen, size in result.curve:
                fh.write(f"{seen},{size}\n")
    _emit_report(
        out,
        "online",
        {"spec": spec, "items": items, "checkpoints": checkpoints, "seed": seed},
        {
            "curve": result.curve,
            "prototype_count": result.prototype_count,
            "items_seen": result.items_seen,
            "conflicts_skipped": result.conflicts_skipped,
        },
        None,
        started,
    )
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
    centers, spread = _parse_generator_spec(spec)
    try:
        dataset = generate_blobs(seed, n_per_class, centers, spread)
    except DatasetError as exc:
        _fail_input(exc)
    write_csv(dataset, out_path)
    click.echo(
        f"wrote {len(dataset)} points, classes={list(dataset.classes)} "
        f"to {out_path}"
    )


if __name__ == "__main__":
    main()
