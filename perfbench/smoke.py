"""Smoke test for the benchmark: every workload at toy size.

    python3 perfbench/smoke.py

Run it from anywhere; it runs `run.py` in the checkout this file belongs to.
For each workload in BENCHMARK.json it checks that

- an untraced run prints every end-to-end metric and a traced run every
  per-layer metric, each with its declared unit and a numeric value;
- no run fails a check (`failed_ops_share` is 0);
- two runs with one seed give the same output digest, a run with another
  seed a different one, and the traced run the untraced run's digest.

Exits 0 when all of that holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_SCALE = "0.02"


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", TOY_SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed={seed} trace={trace} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    *_, details, result = done.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def _metric_problems(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} has unit {got['unit']!r}, not {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or isinstance(got["value"], bool):
            problems.append(f"{m['name']} value {got['value']!r} is not a number")
    return problems


def check_workload(workload: str, spec: dict) -> list[str]:
    runs = {
        "seed0": _run(workload, 0, 0),
        "seed0-again": _run(workload, 0, 0),
        "seed1": _run(workload, 1, 0),
        "seed0-traced": _run(workload, 0, 1),
    }
    problems = _metric_problems(runs["seed0"][1], spec["end_to_end"])
    problems += _metric_problems(runs["seed0-traced"][1], spec["per_layer"])
    for name, (details, result) in runs.items():
        if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
            failed = [c for c, ok in details["checks"].items() if not ok]
            problems.append(f"{name}: failed checks {failed}")
        if details["failed_ops_share"] != 0:
            problems.append(f"{name}: failed_ops_share {details['failed_ops_share']}")
    digest = {name: details["digest"] for name, (details, _) in runs.items()}
    if digest["seed0-again"] != digest["seed0"]:
        problems.append("two runs with seed 0 gave different digests")
    if digest["seed1"] == digest["seed0"]:
        problems.append("seeds 0 and 1 gave the same digest")
    if digest["seed0-traced"] != digest["seed0"]:
        problems.append("the traced run's digest differs from the untraced one")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check_workload(workload, spec)
        failed = failed or bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
