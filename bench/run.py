"""Benchmark runner for the oabp package.

Usage, from the root of a checkout (standard library only, no install):

    python3 bench/run.py --workload compose_corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload hitset_grid --seed 1 --seconds 30 --trace 1

``--trace 0`` re-imports the package and builds the inputs ``SETUP_REPS``
times (``setup_s`` is the median), then times whole untraced passes over
the workload and prints the end-to-end metrics.  A result's latency is the
median of its times over the passes, so a burst of load from elsewhere on
the machine that hits one pass does not move the figures.

``--trace 1`` prints the per-layer metrics instead: one traced pass right
after set-up, then untraced and traced passes in turn to measure the
tracing overhead, then one pass that counts field operations.

Every result of every pass is checked against its reference.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
result passed its check, 1 when any failed, and 2 when the package cannot
be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from spans import FieldOpCounter, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5

END_TO_END = {
    "results_per_s": "1/s",
    "result_ms_p50": "ms",
    "result_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span whose summary feeds the metric, when it is not the metric's prefix
_SPAN_OF = {"pit.hitset": "pit.hitset_test_abp"}

PER_LAYER = {
    "generator.eval_generator.calls": "count",
    "generator.eval_generator.s": "s",
    "generator.eval_generator.us_per_call": "us",
    "abp.evaluate.calls": "count",
    "abp.evaluate.s": "s",
    "abp.evaluate.us_per_call": "us",
    "pit.hitset.queries": "count",
    "pit.hitset.full_grids": "count",
    "pit.hitset.lifted": "count",
    "pit.hitset_test_abp.s": "s",
    "pit.compose_test.s": "s",
    "poly.compose.s": "s",
    "poly.compose.terms_out": "count",
    "poly.sorted_terms.s": "s",
    "generator.build_generator.s": "s",
    "abp.expand.calls": "count",
    "abp.expand.s": "s",
    "abp.expand.terms_out": "count",
    "transforms.obliviate.s": "s",
    "transforms.obliviate.edges_out": "count",
    "transforms.derivative_abp.s": "s",
    "transforms.cut_decompose.s": "s",
    "transforms.reduce_independent.s": "s",
    "transforms.reduce_independent.kept_frac": "ratio",
    "linalg.matrix_rank.s": "s",
    "linalg.matrix_rank.cells": "count",
    "linalg.SpanBuilder.insert.calls": "count",
    "linalg.SpanBuilder.insert.s": "s",
    "families.deriv_matrix.s": "s",
    "families.read_lower_bound.s": "s",
    "families.verify_full_rank.s": "s",
    "fields.add.count": "count",
    "fields.mul.count": "count",
    "fields.inv.count": "count",
    "trace.overhead_frac": "ratio",
}


def fresh_import():
    """Import oabp from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "oabp" or m.startswith("oabp.")]:
        del sys.modules[name]
    oabp = importlib.import_module("oabp")
    if SRC not in Path(oabp.__file__).resolve().parents:
        raise ImportError(f"oabp was imported from {oabp.__file__}, not from {SRC}")
    return oabp


def run_pass(cases, tracer=None) -> tuple[float, list[float], list]:
    """Run every case once; returns (wall seconds, per-result seconds, outputs).

    A case that raises yields its exception as output; checks run later,
    outside the timed region.
    """
    scratch: dict = {}
    latencies, outputs = [], []
    gc.collect()
    start = perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            out = case.run(scratch)
        except Exception as exc:  # a call that raises is a failed result
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, latencies, outputs


def count_failed(cases, outputs) -> int:
    """Check each output against its case's reference; report failures."""
    failed = 0
    for case, out in zip(cases, outputs):
        if isinstance(out, Exception):
            why = "".join(traceback.format_exception_only(type(out), out)).strip()
        else:
            try:
                if case.check(out):
                    continue
                why = f"wrong result {out!r:.200}"
            except Exception as exc:  # a check that cannot run is a failure
                why = f"check raised {exc!r}"
        failed += 1
        if failed <= 10:
            print(f"FAILED {case.label}: {why}", file=sys.stderr)
    return failed


class Run:
    """Tally of results attempted and failed over all passes of one run."""

    def __init__(self, cases) -> None:
        self.cases = cases
        self.attempted = 0
        self.failed = 0

    def checked_pass(self, tracer=None) -> tuple[float, list[float]]:
        wall, latencies, outputs = run_pass(self.cases, tracer)
        self.attempted += len(outputs)
        self.failed += count_failed(self.cases, outputs)
        return wall, latencies


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timed_metrics(run: Run, seconds: float) -> dict[str, float]:
    """Whole untraced passes until at least `seconds` of them have run.

    Each result's latency is the median of its times over the passes.  The
    percentiles are taken over the results of one pass, and the throughput
    is the number of results over the sum of their latencies.
    """
    per_pass: list[list[float]] = []
    elapsed = 0.0
    while elapsed < seconds or not per_pass:
        wall, lat = run.checked_pass()
        elapsed += wall
        per_pass.append(lat)
    latencies = sorted(statistics.median(times) for times in zip(*per_pass))
    print(f"passes {len(per_pass)}, results per pass {len(latencies)}", file=sys.stderr)
    return {
        "results_per_s": len(latencies) / sum(latencies),
        "result_ms_p50": 1e3 * percentile(latencies, 50),
        "result_ms_p95": 1e3 * percentile(latencies, 95),
    }


def traced_metrics(run: Run, seconds: float) -> dict[str, float]:
    """Per-layer figures for one pass, tracing overhead, field-op counts."""
    start = perf_counter()
    first = Tracer()
    with first.installed():
        run.checked_pass(first)
    summary = first.summary()

    plain, traced = [], []
    while perf_counter() - start < seconds or not plain:
        plain.append(run.checked_pass()[0])
        tracer = Tracer()
        with tracer.installed():
            traced.append(run.checked_pass(tracer)[0])

    counter = FieldOpCounter()
    with counter.installed():
        run.checked_pass()

    out: dict[str, float] = {}
    for name in PER_LAYER:
        prefix, key = name.rsplit(".", 1)
        rec = summary.get(_SPAN_OF.get(prefix, prefix))
        if rec is None:
            continue
        if key == "s":
            out[name] = rec["self_s"]
        elif key == "us_per_call":
            out[name] = 1e6 * rec["self_s"] / rec["calls"] if rec["calls"] else 0.0
        elif key == "kept_frac":
            out[name] = rec["kept"] / rec["offered"] if rec.get("offered") else 0.0
        else:
            out[name] = rec.get(key, 0)
    for op, n in counter.counts.items():
        out[f"fields.{op}.count"] = n
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="presentation seed")
    parser.add_argument("--corpus-seed", type=int, default=None, help="default: DEFAULT_CORPUS_SEED")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oabp" / "__init__.py").is_file():
        print(f"no oabp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPS):
        wl = None  # drop the previous repetition's inputs before timing
        gc.collect()
        t0 = perf_counter()
        fresh_import()
        wl = workloads.build(args.workload, args.corpus_seed, args.seed)
        setup_times.append(perf_counter() - t0)
    print(json.dumps({"inputs": workloads.fingerprint(wl)}))

    run = Run(wl.cases)
    if args.trace:
        metrics, units = traced_metrics(run, args.seconds), PER_LAYER
    else:
        metrics, units = timed_metrics(run, args.seconds), END_TO_END
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.10g} {unit}")
    print(f"{'failed_frac':44s} {run.failed / run.attempted:>16.10g} ({run.failed} of {run.attempted})")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
