"""Shard transport costs on the FSP workload (4-utility subset, shards=2).

A mid-run worker loss costs wall clock only, never findings
(``BENCH_recovery.json``). Parity is asserted unconditionally; the wall
clocks are recorded, not gated.
"""

import itertools
import time

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.bench.tables import format_table
from repro.systems import fsp


def _run_fsp(shards: int, transport=None):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, transport=transport)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        started = time.perf_counter()
        report = achilles.search(fsp.fsp_server, predicates)
        seconds = time.perf_counter() - started
    return report, seconds


def test_recovery_overhead(benchmark, artifact, json_artifact):
    """What a mid-run worker loss costs.

    The same FSP search four ways — serial, fault-free at shards=2, and
    shards=2 with one worker killed before or after its first result
    (the coordinator then aborts the fleet and walks the frontier
    in-process). Findings must be byte-identical in all four (the
    robustness criterion); the JSON records each server-search wall
    clock and the recovery share of the faulted ones.
    """
    from repro.explore import (FaultPlan, FaultyTransport, KillWorker,
                               LocalTransport)

    serial_report, serial_seconds = _run_fsp(1)
    # The timed region: the fault-free sharded search.
    clean_report, clean_seconds = benchmark.pedantic(
        _run_fsp, args=(2,), rounds=1, iterations=1)

    def faulted_run(after_results: int):
        faulty = FaultyTransport(
            LocalTransport(), FaultPlan(KillWorker(0, after_results)))
        report, seconds = _run_fsp(2, transport=faulty)
        # The fault must actually have fired, and been accounted for.
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        return report, seconds

    faulted_report, faulted_seconds = faulted_run(0)
    late_report, late_seconds = faulted_run(1)

    # Byte-identical findings with and without injected faults.
    assert clean_report.witnesses() == serial_report.witnesses()
    assert faulted_report.witnesses() == serial_report.witnesses()
    assert late_report.witnesses() == serial_report.witnesses()
    assert clean_report.worker_failures == 0

    rows = [
        ["serial (shards=1)", f"{serial_seconds:.2f}s", "-"],
        ["fault-free (shards=2)", f"{clean_seconds:.2f}s", "-"],
        ["worker killed before its first result (shards=2)",
         f"{faulted_seconds:.2f}s",
         f"{faulted_report.recovery_seconds:.3f}s"],
        ["worker killed after its first result (shards=2)",
         f"{late_seconds:.2f}s", f"{late_report.recovery_seconds:.3f}s"],
    ]
    artifact("recovery_overhead", format_table(
        ["Configuration", "Server search", "Recovery"],
        rows, title="Worker-loss recovery overhead, FSP 4-utility subset"))
    json_artifact("recovery", {
        "workload": ("FSP 4-utility subset, shards=2, KillWorker(0) with "
                     "after_results=0 and 1"),
        "serial_seconds": round(serial_seconds, 4),
        "fault_free_seconds": round(clean_seconds, 4),
        "faulted_seconds": round(faulted_seconds, 4),
        "recovery_seconds": round(faulted_report.recovery_seconds, 4),
        "late_faulted_seconds": round(late_seconds, 4),
        "late_recovery_seconds": round(late_report.recovery_seconds, 4),
        "worker_failures": faulted_report.worker_failures,
        "parity": True,
    })
