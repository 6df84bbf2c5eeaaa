"""Observability overhead: tracing must be free when it is off.

Every instrumented hot site (the four solver layers, the shard loops)
guards on ``repro.obs.trace.active is None``, so the disabled cost of
the whole subsystem is one module attribute load plus a pointer
comparison per call. This benchmark pins that promise with a
deterministic gate:

1. run the FSP end-to-end analysis (4-utility subset) untraced and
   traced, asserting the findings are byte-identical (tracing is
   observational, never behavioral);
2. count how many guarded spans the traced run actually fired (from
   the trace's own summary — individual spans plus aggregate folds);
3. microbenchmark the disabled guard and project ``guarded_calls x
   per_call_cost`` as a fraction of the untraced wall clock.

The projected disabled overhead must stay under 2%. Raw wall clocks
for both runs are recorded in ``BENCH_obs.json`` but not gated — a
loaded CI runner time-slices everything, and the projection is the
property the code actually controls.
"""

import itertools
import time

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.obs import trace as obs_trace
from repro.obs.trace import read_trace, summarize
from repro.systems import fsp

#: Maximum projected tracing-off overhead (fraction of untraced wall).
OVERHEAD_GATE = 0.02

_GUARD_ITERATIONS = 200_000


def _run_fsp(trace_dir=None):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            trace_dir=str(trace_dir) if trace_dir else None)
    started = time.perf_counter()
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
    return report, time.perf_counter() - started


def _guard_cost_seconds() -> float:
    """Per-call cost of the disabled-path guard, exactly as the hot
    sites spell it: read the module attribute, compare against None."""
    assert obs_trace.active is None
    started = time.perf_counter()
    for _ in range(_GUARD_ITERATIONS):
        tracer = obs_trace.active
        if tracer is not None:  # pragma: no cover - tracing is off
            raise AssertionError
    return (time.perf_counter() - started) / _GUARD_ITERATIONS


def _signature(report):
    return [(f.server_path_id, f.decisions, f.witness)
            for f in report.findings]


def test_tracing_off_overhead_gate(benchmark, json_artifact, tmp_path):
    """Findings parity traced-vs-untraced, plus the <=2% disabled-guard
    overhead projection."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert obs_trace.active is None

    base_report, base_seconds = _run_fsp()
    traced_report, traced_seconds = _run_fsp(tmp_path / "run")
    # The traced run must clean up its global tracer.
    assert obs_trace.active is None

    assert _signature(traced_report) == _signature(base_report), \
        "tracing changed the findings"
    assert traced_report.server_paths_explored == \
        base_report.server_paths_explored

    trace = read_trace(tmp_path / "run" / "trace.jsonl")
    assert not trace.damaged
    summary = summarize(trace.records)
    guarded_calls = sum(stat["count"] for stat in summary["spans"].values())
    assert guarded_calls > 0, "the traced run recorded no spans"

    per_call = _guard_cost_seconds()
    projected_seconds = guarded_calls * per_call
    overhead = projected_seconds / base_seconds
    assert overhead <= OVERHEAD_GATE, (
        f"projected tracing-off overhead {overhead:.4%} exceeds the "
        f"{OVERHEAD_GATE:.0%} gate ({guarded_calls} guarded calls x "
        f"{per_call * 1e9:.1f}ns against {base_seconds:.2f}s untraced)")

    json_artifact("obs", {
        "workload": "FSP 4-utility subset, full pipeline, serial",
        "untraced_seconds": round(base_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "traced_vs_untraced_ratio": round(traced_seconds / base_seconds, 4),
        "guarded_calls": guarded_calls,
        "guard_cost_ns": round(per_call * 1e9, 2),
        "projected_off_overhead_fraction": round(overhead, 6),
        "overhead_gate": OVERHEAD_GATE,
        "trace_records": summary["records"],
        "findings": base_report.trojan_count,
    })
