"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Wrong results must be counted as failures and make the runner exit
non-zero, input fingerprints must follow the seeds, self time must exclude
child spans, field-operation counts must repeat exactly, and the metric
names must match BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import oabp.pit  # noqa: E402
import oabp.poly  # noqa: E402


def _subset(wl, prefixes):
    return [c for c in wl.cases if c.label.startswith(prefixes)]


def _always_one_oracle(a, over=None):
    one = (over or a.field).one()
    return lambda point: one


def test_wrong_hitset_verdicts_are_counted(monkeypatch):
    cases = _subset(workloads.build("hitset_grid", None, 0), ("zero_", "symm_2_1@"))
    zero_cases = [c for c in cases if c.label.startswith("zero_")]
    assert len(zero_cases) == 12  # 4 zero members over 3 fields
    _, _, outputs = run.run_pass(cases)
    assert run.count_failed(cases, outputs) == 0

    # every ZERO member now gets a NONZERO verdict whose witness vanishes
    monkeypatch.setattr(oabp.pit, "abp_oracle", _always_one_oracle)
    _, _, outputs = run.run_pass(cases)
    assert all(out.verdict == "NONZERO" for out in outputs)
    assert run.count_failed(cases, outputs) >= len(zero_cases)


def test_wrong_compose_verdicts_are_counted(monkeypatch):
    cases = _subset(workloads.build("compose_corpus", None, 0), ("symm_", "zero_const"))
    _, _, outputs = run.run_pass(cases)
    assert run.count_failed(cases, outputs) == 0

    zero = lambda self, images, budget=None: oabp.poly.SparsePoly.zero(self.field)
    monkeypatch.setattr(oabp.poly.SparsePoly, "compose", zero)
    _, _, outputs = run.run_pass(cases)
    # the four symm members are nonzero, the two zero_const members stay right
    assert run.count_failed(cases, outputs) == 4


def test_raising_call_is_counted():
    def boom(scratch):
        raise RuntimeError("injected")

    cases = [workloads.Case("boom", boom, lambda out: True)]
    _, _, outputs = run.run_pass(cases)
    assert run.count_failed(cases, outputs) == 1


def test_runner_exits_nonzero_on_a_wrong_verdict(monkeypatch, capsys):
    # keep the patched module: skip the runner's re-import
    monkeypatch.setattr(run, "fresh_import", lambda: importlib.import_module("oabp"))
    monkeypatch.setattr(oabp.pit, "abp_oracle", _always_one_oracle)
    code = run.main(["--workload", "hitset_grid", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 38  # the members that are zero over some field


def test_fingerprint_follows_the_seeds():
    def sha(corpus_seed, seed):
        return workloads.fingerprint(workloads.build("compose_corpus", corpus_seed, seed))

    first = sha(None, 0)
    assert first == sha(None, 0)
    assert first["members"] == 205
    assert sha(None, 1)["sha256"] != first["sha256"]
    assert sha(7, 0)["sha256"] != first["sha256"]


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer()
    inner = tracer._wrap("families.deriv_matrix", lambda: 0)
    outer = tracer._wrap("families.read_lower_bound", lambda: inner() + inner())
    outer()  # clock: outer 0..5, inner 1..2 and 3..4
    summary = tracer.summary()
    assert summary["families.deriv_matrix"]["calls"] == 2
    assert summary["families.deriv_matrix"]["self_s"] == 2
    assert summary["families.read_lower_bound"]["self_s"] == 3


def test_field_op_counts_repeat_exactly():
    cases = _subset(workloads.build("hitset_grid", None, 0), ("rand_n2_r1_1",))
    counts = []
    for _ in range(2):
        counter = spans.FieldOpCounter()
        with counter.installed():
            run.run_pass(cases)
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert min(counts[0].values()) > 0


@pytest.mark.parametrize("kind, table", [("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)])
def test_metric_names_match_benchmark_json(kind, table):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[kind]} == table
