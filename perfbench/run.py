"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload equiv-overlap --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports protobound from `src/`
there. With `--trace 0` it times the pipeline untraced, repeating it for the
given number of seconds, and prints the end-to-end metrics listed in
BENCHMARK.json. With `--trace 1` it runs the pipeline once untraced and once
traced, and prints the per-layer metrics. The line before the last holds the
run's details: output digest, every check, the environment, the tracing
overhead and (traced) the spans. The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, Untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 10
# Capped so that runs on machines of different sizes stay comparable.
BLAS_THREADS = str(min(len(os.sched_getaffinity(0)), 2))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# numpy is imported before the clock starts: its import time is a fixed
# external cost that no change to this repository moves, and it is the
# noisiest part of start-up. Anything protobound itself imports is counted.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import protobound; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import protobound in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def _timed_setup(workload, seed: int, workdir: Path, untraced) -> tuple[float, dict]:
    """One set-up: importing protobound, then the workload's own set-up."""
    import_s = _import_seconds()
    t = time.perf_counter()
    inputs = workload.setup(seed, workdir, untraced)
    return import_s + time.perf_counter() - t, inputs


def _digest(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics(spec: list[dict], values: dict, default=None) -> dict:
    names = {m["name"] for m in spec}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out = {}
    for m in spec:
        value = values.get(m["name"], default)
        if value is None:
            raise KeyError(f"workload did not measure {m['name']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def _timed_runs(workload, inputs, untraced, seconds: float):
    """Repeat the pipeline while the next repetition is expected to end
    within `seconds`; return wall times, the last outputs and all digests.
    Only one repetition's outputs are alive at a time, so peak memory does
    not depend on the repetition count."""
    walls, digests, out = [], [], None
    started = time.perf_counter()
    while True:
        out = None
        t = time.perf_counter()
        out = workload.pipeline(inputs, untraced)
        walls.append(time.perf_counter() - t)
        digests.append(_digest(workload.digest_material(out)))
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return walls, out, digests


def _run(args, workload, workdir: Path) -> tuple[dict, dict]:
    untraced = Untraced()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer = Tracer()
        with tracer.span("perfbench.setup"):
            inputs = workload.setup(args.seed, workdir, tracer)
        t = time.perf_counter()
        plain = workload.pipeline(inputs, untraced)
        untraced_s = time.perf_counter() - t
        t = time.perf_counter()
        with tracer.span("perfbench.pipeline"):
            out = workload.pipeline(inputs, tracer)
        traced_s = time.perf_counter() - t
        digest = _digest(workload.digest_material(out))
        checks = workload.checks(inputs, out)
        checks["traced run gives the untraced outputs"] = (
            _digest(workload.digest_material(plain)) == digest
        )
        details["tracing_overhead"] = {
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "overhead_s": traced_s - untraced_s,
            "overhead_share": (traced_s - untraced_s) / untraced_s,
        }
        details["spans"] = tracer.records()
        values = workload.layer_metrics(inputs, out, tracer)
    else:
        # Half the set-ups run before the timed region and half after it, so
        # their median spans the run rather than one moment of it: start-up
        # times are short and swing with the machine's load.
        setup_s, inputs = [], None
        for _ in range(SETUP_REPS // 2):
            seconds, inputs = _timed_setup(workload, args.seed, workdir, untraced)
            setup_s.append(seconds)
        walls, out, digests = _timed_runs(workload, inputs, untraced, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(SETUP_REPS - SETUP_REPS // 2):
            setup_s.append(_timed_setup(workload, args.seed, workdir, untraced)[0])
        digest = digests[0]
        checks = workload.checks(inputs, out)
        checks["every repetition gives the same outputs"] = len(set(digests)) == 1
        wall_s = statistics.median(walls)
        details["wall_s_reps"] = walls
        details["setup_s_reps"] = setup_s
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": workload.items(inputs) / wall_s,
        }
    details["digest"] = digest
    details["checks"] = checks
    return details, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="Multiply input sizes; the smoke test uses a toy scale.")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "protobound" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a protobound checkout (no src/protobound "
              f"or BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np
    import protobound as pb
    if Path(pb.__file__).resolve().parent != SRC / "protobound":
        print(f"error: imported protobound from {pb.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        details, values = _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    checks = details["checks"]
    failed = sum(not ok for ok in checks.values())
    details["failed_ops_share"] = failed / len(checks)
    details["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "protobound": pb.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "scale": args.scale,
    }
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        # Layers a workload does not exercise report 0.
        "metrics": _metrics(metric_spec, values, default=0 if args.trace else None),
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
