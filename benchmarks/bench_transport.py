"""Shard transport costs on the FSP workload (4-utility subset, shards=2).

Two measurements: shard workers that absorb the coordinator's phase-1
feasibility answers pose fewer solver queries than cold-cache workers
(``BENCH_transport_cache_snapshot.json``), and a mid-run worker loss
under ``on_worker_loss="recover"`` costs wall clock only, never findings
(``BENCH_recovery.json``). Parity is asserted unconditionally; the wall
clocks are recorded, not gated.
"""

import itertools
import time

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.server_analysis import _shard_setup
from repro.bench.experiments import FSP_SESSION_MASK
from repro.bench.tables import format_table
from repro.explore import ShardScheduler
from repro.systems import fsp


def _run_fsp(shards: int, transport=None, on_worker_loss: str = "fail"):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, transport=transport,
                            on_worker_loss=on_worker_loss)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        started = time.perf_counter()
        report = achilles.search(fsp.fsp_server, predicates)
        seconds = time.perf_counter() - started
    return report, seconds


def test_cache_snapshot_cuts_duplicate_queries(benchmark, json_artifact):
    """Shipping the coordinator's feasibility snapshot at fan-out must
    cut the shard workers' solver queries vs cold caches — the ~1.6x
    duplicate-query overhead the sharding PR measured at 2 shards."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))

    def sharded_queries(ship_cache: bool):
        achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                           mask=FSP_SESSION_MASK))
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        scheduler = ShardScheduler(
            _shard_setup,
            (fsp.fsp_server, predicates, achilles.server_msg, None, "msg",
             True),
            shards=2, engine_config=achilles.config.server_engine,
            ship_cache=ship_cache)
        # Warm the coordinator cache exactly as search_server would: the
        # phase-1 answers are already in achilles.query_cache.
        scheduler.engine.query_cache.absorb(achilles.query_cache.snapshot())
        sharded = scheduler.run()
        worker_queries = sharded.worker_solver_stats.queries
        return worker_queries, sharded

    cold_queries, cold = sharded_queries(ship_cache=False)
    warm_queries, warm = sharded_queries(ship_cache=True)

    assert warm.cache_entries_shipped > 0
    assert cold.cache_entries_shipped == 0
    # Identical findings either way — the snapshot is an accelerator,
    # never an input.
    assert [f.witness for f in warm.observer.findings] == \
        [f.witness for f in cold.observer.findings]
    assert warm_queries < cold_queries, (
        f"snapshot shipping did not reduce worker queries: "
        f"{warm_queries} vs {cold_queries}")

    json_artifact("transport_cache_snapshot", {
        "workload": "FSP 4-utility subset, shards=2",
        "worker_queries_cold": cold_queries,
        "worker_queries_with_snapshot": warm_queries,
        "reduction_factor": round(cold_queries / max(1, warm_queries), 4),
        "cache_entries_shipped": warm.cache_entries_shipped,
    })


def test_recovery_overhead(benchmark, artifact, json_artifact):
    """What a mid-run worker loss costs under ``on_worker_loss="recover"``.

    The same FSP search four ways — serial, fault-free at shards=2, and
    shards=2 with one worker killed before or after its first result
    (the coordinator then aborts the fleet and walks the frontier
    in-process). Findings must be byte-identical in all four (the
    robustness criterion); the JSON records each server-search wall
    clock and the recovery share of the faulted ones.
    """
    from repro.explore import (FaultPlan, FaultyTransport, KillWorker,
                               LocalTransport)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    serial_report, serial_seconds = _run_fsp(1)
    clean_report, clean_seconds = _run_fsp(2, on_worker_loss="recover")

    def faulted_run(after_results: int):
        faulty = FaultyTransport(
            LocalTransport(), FaultPlan(KillWorker(0, after_results)))
        report, seconds = _run_fsp(2, transport=faulty,
                                   on_worker_loss="recover")
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
