"""Raft + two-phase-commit accuracy benchmark.

The two consensus/commit workloads added after the paper's own targets:
Achilles must find every seeded Trojan class with no false positives on
both (precision == recall == 1.0), and the findings must be
byte-identical when the exploration is sharded — the same contract the
FSP/PBFT suites pin, re-checked here on protocols with genuinely
different grammar shapes (multi-RPC dispatch, over-approximate local
state on the commit path).

Machine-readable wall clocks and pipeline counters land in
``BENCH_raft_tpc.json`` for the CI bench artifact.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_table


@pytest.fixture(scope="module")
def raft_outcome():
    return run_accuracy("raft")


@pytest.fixture(scope="module")
def tpc_outcome():
    return run_accuracy("tpc")


def _finding_signature(report):
    return [(f.server_path_id, f.decisions, f.witness, f.labels)
            for f in report.findings]


def test_raft_accuracy(benchmark, raft_outcome, artifact):
    outcome = benchmark.pedantic(run_accuracy, args=("raft",), rounds=1,
                                 iterations=1)
    assert outcome.true_positives == 9
    assert outcome.false_positives == 0
    assert outcome.classes_found == outcome.classes_total == 9
    assert outcome.precision == 1.0 and outcome.recall == 1.0

    artifact("raft_accuracy", format_table(
        ["", "Seeded", "Here"],
        [["True positives", 9, outcome.true_positives],
         ["False positives", 0, outcome.false_positives],
         ["Classes covered", "9/9", f"{outcome.classes_found}/9"]],
        title="Raft follower ingress accuracy"))


def test_tpc_accuracy(benchmark, tpc_outcome, artifact):
    outcome = benchmark.pedantic(run_accuracy, args=("tpc",), rounds=1,
                                 iterations=1)
    assert outcome.true_positives == 2
    assert outcome.false_positives == 0
    assert outcome.classes_found == outcome.classes_total == 2
    assert outcome.precision == 1.0 and outcome.recall == 1.0

    artifact("tpc_accuracy", format_table(
        ["", "Seeded", "Here"],
        [["True positives", 2, outcome.true_positives],
         ["False positives", 0, outcome.false_positives],
         ["Classes covered", "2/2", f"{outcome.classes_found}/2"]],
        title="Two-phase-commit participant accuracy"))


def test_sharded_runs_stay_byte_identical(raft_outcome, tpc_outcome):
    """Parity smoke at shards=2: the new systems honour the contract the
    FSP/PBFT parity suites pin exhaustively."""
    sharded_raft = run_accuracy("raft", shards=2)
    assert _finding_signature(sharded_raft.report) == \
        _finding_signature(raft_outcome.report)
    sharded_tpc = run_accuracy("tpc", shards=2)
    assert _finding_signature(sharded_tpc.report) == \
        _finding_signature(tpc_outcome.report)


def test_emit_bench_json(raft_outcome, tpc_outcome, json_artifact):
    def counters(outcome):
        report = outcome.report
        return {
            "true_positives": outcome.true_positives,
            "false_positives": outcome.false_positives,
            "classes_found": outcome.classes_found,
            "classes_total": outcome.classes_total,
            "precision": outcome.precision,
            "recall": outcome.recall,
            "total_seconds": report.timings.total,
            "server_paths_explored": report.server_paths_explored,
            "server_paths_pruned": report.server_paths_pruned,
            "solver_queries": report.solver_queries,
            "cache_hit_rate": report.cache_hit_rate,
            "frames_reused": report.frames_reused,
            "propagation_seconds": report.propagation_seconds,
        }

    json_artifact("raft_tpc", {
        "raft": counters(raft_outcome),
        "tpc": counters(tpc_outcome),
    })
