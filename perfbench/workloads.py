"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs protobound's public
functions in the order of the CLI command it stands for, checks the outputs,
and derives per-layer metrics from a traced run. See README.md for why each
workload exists and which end-to-end metric each layer metric should move.

A workload object offers:

- `setup(seed, workdir, tracer)`: data generation and CSV writing, timed as
  part of `setup_s`; returns the inputs.
- `pipeline(inputs, tracer)`: the timed work; returns an outputs dict. With a
  real `Tracer`, batch bound workloads call `margin` per bandwidth instead of
  the wrapper that hides its iteration counts, so the traced run reproduces
  the wrapper's body through public calls.
- `digest_material(outputs)`: the deterministic outputs a later speed-up must
  reproduce bit for bit.
- `checks(inputs, outputs)`: named output checks, run outside the timed region.
- `items(inputs)`: input items one pipeline run processes.
- `layer_metrics(inputs, outputs, tracer)`: per-layer metrics from the trace.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc
from pathlib import Path

import numpy as np

import protobound as pb

THREE_BLOBS = [((0.0, 0.0), "A"), ((2.0, 0.0), "B"), ((1.0, 1.5), "C")]


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, round(base * scale))


def scan_work(event_keys: list[tuple[int, int]], n: int, passes: int) -> int:
    """Rows scanned by a sweep-until-clean run in dataset order.

    The test of a point scans every record added before it, so the total is
    the sum of the record count at each test. `event_keys` are the
    (pass, source index) additions in order, one record each.
    """
    additions = iter(event_keys)
    pending = next(additions, None)
    size = 0
    total = 0
    for p in range(1, passes + 1):
        for i in range(n):
            total += size
            if pending == (p, i):
                size += 1
                pending = next(additions, None)
    return total


def traces_match(a: pb.UpdateTrace, b: pb.UpdateTrace) -> bool:
    """Trace equality as `protobound equiv` decides it."""
    return a.events == b.events and a.prototypes.indices == b.prototypes.indices


def offdiag_zero_share(dataset: pb.Dataset, sigmas: list[float]) -> float:
    """Mean over `sigmas` of the share of off-diagonal Gaussian kernel
    entries that are exactly 0.0 in float64."""
    coords = dataset.coords
    n = len(dataset)
    d2 = np.stack([pb.sq_dists_to(coords, coords[i]) for i in range(n)])
    off = ~np.eye(n, dtype=bool)
    shares = [
        float(np.count_nonzero(np.exp(-d2[off] / (2.0 * s * s)) == 0.0))
        / (n * (n - 1))
        for s in sigmas
    ]
    return statistics.fmean(shares)


def recomputed_delta(dataset: pb.Dataset, cert: pb.MarginCertificate) -> float:
    """Feasible margin of the certificate's hull point, from a dense gram
    built here without the library's gram code."""
    idx = np.array([i for i, _ in cert.pairs], dtype=np.int64)
    wrong = np.array([dataset.class_code(y) for _, y in cert.pairs], dtype=np.int64)
    true = dataset.label_codes[idx]
    x = dataset.coords[idx]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    sign = (
        (true[:, None] == true[None, :]).astype(np.float64)
        - (true[:, None] == wrong[None, :])
        - (wrong[:, None] == true[None, :])
        + (wrong[:, None] == wrong[None, :])
    )
    gram = sign * np.exp(-d2 / (2.0 * cert.sigma * cert.sigma))
    g = gram @ cert.coefficients
    return float(g.min()) / math.sqrt(float(cert.coefficients @ g))


def margin_peak_mb(dataset: pb.Dataset, sigma: float) -> float:
    """tracemalloc peak of one `margin` call. Run outside every timed span:
    tracing allocations slows the solver's loop several times over."""
    tracemalloc.start()
    try:
        pb.margin(dataset, pb.KernelConfig(sigma))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _margin_layer(tracer, dataset: pb.Dataset, certs, grid_size: int) -> dict:
    """Solver metrics over the traced `margin` calls. The memory peak is
    taken from one more call at the first bandwidth: every call builds the
    same gram, and the iterations allocate only vectors."""
    times = tracer.durations("margin_bound.margin")
    sigmas = [c.sigma for c in certs]
    m = len(dataset) * (len(dataset.classes) - 1)
    return {
        "margin_bound.margin_s": sum(times),
        "margin_bound.margin_call_s": statistics.median(times),
        "margin_bound.solver_iters": sum(c.iterations for c in certs),
        "margin_bound.converged_share": sum(c.converged for c in certs) / len(certs),
        "margin_bound.duality_gap_max": max(c.duality_gap for c in certs),
        "margin_bound.grid_evaluated": len(certs),
        "margin_bound.grid_size": grid_size,
        "margin_bound.gram_bytes_computed": 8 * m * m,
        "margin_bound.peak_traced_mb": margin_peak_mb(dataset, sigmas[0]),
        "margin_bound.offdiag_zero_share": offdiag_zero_share(dataset, sigmas),
    }


def _cnn_layer(tracer, dataset: pb.Dataset, trace: pb.UpdateTrace) -> dict:
    n = len(dataset)
    tests = trace.n_passes * n
    return {
        "cnn.run_cnn_s": tracer.total("cnn.run_cnn"),
        "cnn.passes": trace.n_passes,
        "cnn.tests": tests,
        "cnn.add_ratio": len(trace.events) / tests,
    }


class BatchWorkload:
    """A workload whose data is a seeded blob set written to and re-read
    from CSV, as the batch CLI commands read their input."""

    n: int
    spread: float

    def __init__(self, scale: float = 1.0):
        self.n_per_class = _scaled(self.n // 3, scale, 4)

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        with tracer.span("dataset.generate_blobs"):
            data = pb.generate_blobs(seed, self.n_per_class, THREE_BLOBS, self.spread)
        path = workdir / "data.csv"
        with tracer.span("dataset.write_csv"):
            pb.write_csv(data, path)
        return {"seed": seed, "path": path, "generated": data}

    def _load(self, inputs: dict, tracer) -> pb.Dataset:
        with tracer.span("dataset.load_csv"):
            return pb.load_csv(inputs["path"])

    def items(self, inputs: dict) -> int:
        return len(inputs["generated"])

    def _data_layer(self, tracer) -> dict:
        return {
            "dataset.load_csv_s": tracer.total("dataset.load_csv"),
            "dataset.generate_blobs_s": tracer.total("dataset.generate_blobs"),
        }

    def _base_checks(self, inputs: dict, outputs: dict) -> dict:
        return {"load_csv round-trips the generated data":
                outputs["dataset"] == inputs["generated"]}


class EquivOverlap(BatchWorkload):
    """`cnn`, `mp`, `equiv` and sampled `neighborly` on overlapping blobs."""

    n = 4500
    spread = 0.8
    trials = 100

    def pipeline(self, inputs: dict, tracer) -> dict:
        ds = self._load(inputs, tracer)
        with tracer.span("neighborly.sufficient_sigma"):
            cert = pb.sufficient_sigma(ds)
        with tracer.span("cnn.run_cnn"):
            cnn = pb.run_cnn(ds)
        with tracer.span("nn_rule.is_consistent"):
            consistent = pb.is_consistent(cnn.prototypes, ds)
        cfg = pb.KernelConfig(cert.sigma_star / 2.0)
        with tracer.span("kernel_machine.run_mp"):
            mp, _ = pb.run_mp(ds, cfg)
        traces_equal = traces_match(cnn, mp)
        with tracer.span("neighborly.verify_sampled"):
            violation = pb.verify_neighborly(
                ds, cfg, "sampled", seed=inputs["seed"], trials=self.trials
            )
        return {
            "dataset": ds,
            "certificate": cert,
            "cnn": cnn,
            "consistent": consistent,
            "mp": mp,
            "traces_equal": traces_equal,
            "violation": violation,
        }

    def digest_material(self, out: dict) -> dict:
        return {
            "sigma_star": out["certificate"].sigma_star,
            "gamma": out["certificate"].gamma,
            "prototypes": list(out["cnn"].prototypes.indices),
            "cnn_events": out["cnn"].event_keys(),
            "mp_events": out["mp"].event_keys(),
            "verdict": None if out["violation"] is None else out["violation"].describe(),
        }

    def checks(self, inputs: dict, out: dict) -> dict:
        return self._base_checks(inputs, out) | {
            "condensed set is consistent": out["consistent"],
            "perceptron trace equals condensation at sigma*/2": out["traces_equal"],
            "sampled verification passes at sigma*/2": out["violation"] is None,
        }

    def layer_metrics(self, inputs: dict, out: dict, tracer) -> dict:
        ds, cnn, mp = out["dataset"], out["cnn"], out["mp"]
        n = len(ds)
        verify_s = tracer.total("neighborly.verify_sampled")
        return {
            **self._data_layer(tracer),
            "nn_rule.is_consistent_s": tracer.total("nn_rule.is_consistent"),
            "nn_rule.distance_evals": scan_work(cnn.event_keys(), n, cnn.n_passes)
            + n * len(cnn.prototypes),
            **_cnn_layer(tracer, ds, cnn),
            "kernel_machine.run_mp_s": tracer.total("kernel_machine.run_mp"),
            "kernel_machine.kernel_row_evals": scan_work(mp.event_keys(), n, mp.n_passes),
            "neighborly.sufficient_sigma_s": tracer.total("neighborly.sufficient_sigma"),
            "neighborly.verify_sampled_s": verify_s,
            "neighborly.trial_ms": 1000.0 * verify_s / self.trials,
        }


class BoundOverlap(BatchWorkload):
    """`protobound bound` with its default grid on overlapping blobs, where
    every certified bandwidth underflows the off-diagonal kernel."""

    n = 999
    spread = 0.8

    def pipeline(self, inputs: dict, tracer) -> dict:
        ds = self._load(inputs, tracer)
        if not tracer.traced:
            report = pb.bound_infimum(ds)
            evaluated = report.evaluated
            return {
                "dataset": ds,
                "grid": sorted([r.sigma for r in evaluated] + report.skipped_sigmas),
                "sigmas": [r.sigma for r in evaluated],
                "bounds": [r.bound for r in evaluated],
                "deltas": [r.delta_hat for r in evaluated],
                "prototype_count": report.best.prototype_count,
                "best": report.best.bound,
            }
        # bound_infimum's body, one public call per span.
        with tracer.span("neighborly.sufficient_sigma"):
            analytic = pb.sufficient_sigma(ds)
        grid = pb.default_sigma_grid(analytic.sigma_star)
        with tracer.span("cnn.run_cnn"):
            cnn = pb.run_cnn(ds)
        certs = []
        for sigma in grid:
            if analytic.covers(sigma):
                with tracer.span("margin_bound.margin"):
                    certs.append(pb.margin(ds, pb.KernelConfig(sigma)))
        return {
            "dataset": ds,
            "grid": sorted(grid),
            "sigmas": [c.sigma for c in certs],
            "bounds": [c.bound for c in certs],
            "deltas": [c.delta_hat for c in certs],
            "prototype_count": len(cnn.prototypes),
            "best": min(c.bound for c in certs),
            "cnn": cnn,
            "certs": certs,
        }

    def digest_material(self, out: dict) -> dict:
        return {k: out[k] for k in
                ("grid", "sigmas", "bounds", "deltas", "prototype_count", "best")}

    def checks(self, inputs: dict, out: dict) -> dict:
        ds = out["dataset"]
        cnn = out.get("cnn") or pb.run_cnn(ds)
        return self._base_checks(inputs, out) | {
            "condensed set is consistent": pb.is_consistent(cnn.prototypes, ds),
            "prototype count matches the condensation":
                out["prototype_count"] == len(cnn.prototypes),
            "some grid bandwidth is certified": len(out["bounds"]) > 0,
            "every delta_hat > 0": all(d > 0.0 for d in out["deltas"]),
            "best bound holds": out["prototype_count"] <= out["best"],
        }

    def layer_metrics(self, inputs: dict, out: dict, tracer) -> dict:
        ds = out["dataset"]
        return {
            **self._data_layer(tracer),
            **_cnn_layer(tracer, ds, out["cnn"]),
            "nn_rule.distance_evals": scan_work(
                out["cnn"].event_keys(), len(ds), out["cnn"].n_passes
            ),
            "neighborly.sufficient_sigma_s": tracer.total("neighborly.sufficient_sigma"),
            **_margin_layer(tracer, ds, out["certs"], len(out["grid"])),
            "margin_bound.bound_over_n": out["best"] / len(ds),
        }


class BoundSeparated(BatchWorkload):
    """`cnn`, `mp` and an uncertified `cnn_bound` on separated blobs at a
    fixed bandwidth far above sigma*, where the kernel is dense."""

    n = 600
    spread = 0.3
    sigma = 0.1

    def pipeline(self, inputs: dict, tracer) -> dict:
        ds = self._load(inputs, tracer)
        cfg = pb.KernelConfig(self.sigma)
        with tracer.span("cnn.run_cnn"):
            cnn = pb.run_cnn(ds)
        with tracer.span("kernel_machine.run_mp"):
            mp, _ = pb.run_mp(ds, cfg)
        traces_equal = traces_match(cnn, mp)
        out = {"dataset": ds, "cnn": cnn, "mp": mp, "traces_equal": traces_equal}
        if not tracer.traced:
            report = pb.cnn_bound(ds, cfg, override=True, trace=cnn)
            return out | {"bound": report.bound, "delta_hat": report.delta_hat}
        # cnn_bound's body, so the solver's iteration count is visible.
        with tracer.span("margin_bound.margin"):
            cert = pb.margin(ds, cfg)
        return out | {"bound": cert.bound, "delta_hat": cert.delta_hat,
                      "certs": [cert]}

    def digest_material(self, out: dict) -> dict:
        return {
            "prototypes": list(out["cnn"].prototypes.indices),
            "cnn_events": out["cnn"].event_keys(),
            "mp_events": out["mp"].event_keys(),
            "traces_equal": out["traces_equal"],
            "bound": out["bound"],
            "delta_hat": out["delta_hat"],
        }

    def checks(self, inputs: dict, out: dict) -> dict:
        ds = out["dataset"]
        if "certs" in out:
            cert = out["certs"][0]
        else:
            cert = pb.margin(ds, pb.KernelConfig(self.sigma))
        alpha = cert.coefficients
        return self._base_checks(inputs, out) | {
            "condensed set is consistent": pb.is_consistent(out["cnn"].prototypes, ds),
            "delta_hat > 0": out["delta_hat"] > 0.0,
            "margin reproduces cnn_bound's delta_hat": cert.delta_hat == out["delta_hat"],
            "coefficients form a distribution":
                bool(np.all(alpha >= 0.0)) and abs(float(alpha.sum()) - 1.0) <= 1e-10,
            "delta_hat recomputes from a dense gram":
                abs(recomputed_delta(ds, cert) - cert.delta_hat) <= 1e-9,
        }

    def layer_metrics(self, inputs: dict, out: dict, tracer) -> dict:
        ds, cnn, mp = out["dataset"], out["cnn"], out["mp"]
        n = len(ds)
        return {
            **self._data_layer(tracer),
            **_cnn_layer(tracer, ds, cnn),
            "nn_rule.distance_evals": scan_work(cnn.event_keys(), n, cnn.n_passes),
            "kernel_machine.run_mp_s": tracer.total("kernel_machine.run_mp"),
            "kernel_machine.kernel_row_evals": scan_work(mp.event_keys(), n, mp.n_passes),
            **_margin_layer(tracer, ds, out["certs"], 1),
            "margin_bound.bound_over_n": out["bound"] / n,
        }


class OnlineStream:
    """`protobound online` in two regimes: fully overlapping classes, where
    prototypes grow with the stream, and separated ones, where they plateau."""

    PHASES = (
        ("overlap", [((0.0, 0.0), "A"), ((0.0, 0.0), "B")], 1.0, 25_000),
        ("separated", [((0.0, 0.0), "A"), ((6.0, 0.0), "B")], 1.0, 100_000),
    )

    def __init__(self, scale: float = 1.0):
        self.phases = tuple(
            (name, centers, spread, _scaled(items, scale, 100))
            for name, centers, spread, items in self.PHASES
        )

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        return {"seed": seed}

    def pipeline(self, inputs: dict, tracer) -> dict:
        results = []
        for _, centers, spread, items in self.phases:
            with tracer.span("cnn.run_cnn_online"):
                with tracer.iter_span(
                    "dataset.blob_stream", pb.blob_stream(inputs["seed"], centers, spread)
                ) as stream:
                    results.append(pb.run_cnn_online(stream, items))
        return {"results": results}

    def items(self, inputs: dict) -> int:
        return sum(items for *_, items in self.phases)

    def digest_material(self, out: dict) -> dict:
        return {
            name: {"curve": r.curve, "prototypes": r.prototype_count,
                   "conflicts": r.conflicts_skipped}
            for (name, *_), r in zip(self.phases, out["results"])
        }

    def checks(self, inputs: dict, out: dict) -> dict:
        return {
            f"{name} phase sees {items} items": r.items_seen == items
            for (name, _, _, items), r in zip(self.phases, out["results"])
        }

    def layer_metrics(self, inputs: dict, out: dict, tracer) -> dict:
        overlap_s, separated_s = tracer.durations("cnn.run_cnn_online")
        (_, _, _, overlap_items), (_, _, _, separated_items) = self.phases
        results = out["results"]
        return {
            "dataset.blob_stream_s": tracer.total("dataset.blob_stream"),
            "cnn.online_overlap_items_per_s": overlap_items / overlap_s,
            "cnn.online_separated_items_per_s": separated_items / separated_s,
            "cnn.online_prototypes": sum(r.prototype_count for r in results),
            "cnn.online_conflicts": sum(r.conflicts_skipped for r in results),
        }


WORKLOADS = {
    "equiv-overlap": EquivOverlap,
    "bound-overlap": BoundOverlap,
    "bound-separated": BoundSeparated,
    "online-stream": OnlineStream,
}
