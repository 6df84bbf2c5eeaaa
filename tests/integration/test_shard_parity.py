"""Shard-parity: exploration shard count must never change what Achilles finds.

The FSP, PBFT, Raft, two-phase-commit and broadcast end-to-end
analyses must produce *identical* findings (same order, same path ids,
same witnesses, same live-predicate sets) at shards = 1, 2 and 4 —
shards=1 being the plain in-process walk, so this also pins the sharded
pipeline against the classic serial engine. The canonical ordering is
the same pinned prefix order for every system. The sharded walk must
also compose with the from-scratch solver
(``EngineConfig(incremental=False)``): the frame stacks are a pure
optimization, in every shard.
"""

import itertools
from functools import partial

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.symex.engine import EngineConfig
from repro.systems import broadcast, fsp, raft, tpc
from repro.systems.pbft import REQUEST_LAYOUT, pbft_client, pbft_replica

SHARD_COUNTS = (1, 2, 4)


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards: int, incremental: bool = True):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    server_engine = EngineConfig(incremental=incremental)
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, server_engine=server_engine)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
    return report


def _run_pbft(shards: int, incremental: bool = True):
    server_engine = EngineConfig(incremental=incremental)
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0",
                            shards=shards, server_engine=server_engine)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        report = achilles.search(pbft_replica, predicates)
    return report


def _run_pinned(system, shards: int, incremental: bool = True):
    """Hunt a pinned template system (Raft, 2PC or broadcast)."""
    server_engine = EngineConfig(incremental=incremental)
    config = AchillesConfig(layout=system.layout,
                            destination=system.destination,
                            shards=shards, server_engine=server_engine)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(dict(system.clients))
        report = achilles.search(system.server, predicates)
    return report


_run_raft = partial(_run_pinned, raft.SYSTEM)
_run_tpc = partial(_run_pinned, tpc.SYSTEM)
_run_broadcast = partial(_run_pinned, broadcast.SYSTEM)


@pytest.fixture(scope="module")
def fsp_runs():
    return {shards: _run_fsp(shards) for shards in SHARD_COUNTS}


@pytest.fixture(scope="module")
def pbft_runs():
    return {shards: _run_pbft(shards) for shards in SHARD_COUNTS}


class TestFspShardParity:
    def test_findings_identical_at_every_shard_count(self, fsp_runs):
        baseline = _finding_signature(fsp_runs[1])
        assert baseline  # the serial run must actually find Trojans
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(fsp_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_exploration_counters_identical(self, fsp_runs):
        baseline = fsp_runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = fsp_runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned
            assert report.predicate_samples == baseline.predicate_samples

    def test_report_records_shard_count(self, fsp_runs):
        for shards in SHARD_COUNTS:
            assert fsp_runs[shards].shards == shards

    def test_shards_compose_with_scratch_solving(self, fsp_runs):
        scratch = _run_fsp(2, incremental=False)
        assert _finding_signature(scratch) == \
            _finding_signature(fsp_runs[1])


@pytest.fixture(scope="module")
def raft_runs():
    return {shards: _run_raft(shards) for shards in SHARD_COUNTS}


@pytest.fixture(scope="module")
def tpc_runs():
    return {shards: _run_tpc(shards) for shards in SHARD_COUNTS}


class TestRaftShardParity:
    def test_findings_identical_at_every_shard_count(self, raft_runs):
        baseline = _finding_signature(raft_runs[1])
        assert len(baseline) == 9  # 8 stale appends + the off-by-one vote
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(raft_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_exploration_counters_identical(self, raft_runs):
        baseline = raft_runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = raft_runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned

    def test_witnesses_stay_trojan(self, raft_runs):
        for shards in SHARD_COUNTS:
            for finding in raft_runs[shards].findings:
                assert raft.SYSTEM.classify(finding.witness) is not None

    def test_shards_compose_with_scratch_solving(self, raft_runs):
        scratch = _run_raft(2, incremental=False)
        assert _finding_signature(scratch) == \
            _finding_signature(raft_runs[1])


class TestTpcShardParity:
    def test_findings_identical_at_every_shard_count(self, tpc_runs):
        baseline = _finding_signature(tpc_runs[1])
        assert len(baseline) == 2  # ack-without-wal + empty-op prepare
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(tpc_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_witnesses_stay_trojan(self, tpc_runs):
        for shards in SHARD_COUNTS:
            for finding in tpc_runs[shards].findings:
                assert tpc.SYSTEM.classify(finding.witness) is not None

    def test_shards_compose_with_scratch_solving(self, tpc_runs):
        scratch = _run_tpc(2, incremental=False)
        assert _finding_signature(scratch) == \
            _finding_signature(tpc_runs[1])


@pytest.fixture(scope="module")
def broadcast_runs():
    return {shards: _run_broadcast(shards) for shards in SHARD_COUNTS}


class TestBroadcastShardParity:
    def test_findings_identical_at_every_shard_count(self, broadcast_runs):
        baseline = _finding_signature(broadcast_runs[1])
        assert len(baseline) == 7  # forged sender + 6 thin certificates
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(broadcast_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_exploration_counters_identical(self, broadcast_runs):
        baseline = broadcast_runs[1]
        for shards in SHARD_COUNTS[1:]:
            report = broadcast_runs[shards]
            assert report.server_paths_explored == \
                baseline.server_paths_explored
            assert report.server_paths_pruned == baseline.server_paths_pruned

    def test_witnesses_stay_trojan(self, broadcast_runs):
        for shards in SHARD_COUNTS:
            for finding in broadcast_runs[shards].findings:
                assert broadcast.SYSTEM.classify(finding.witness) is not None

    def test_shards_compose_with_scratch_solving(self, broadcast_runs):
        scratch = _run_broadcast(2, incremental=False)
        assert _finding_signature(scratch) == \
            _finding_signature(broadcast_runs[1])


class TestPbftShardParity:
    def test_findings_identical_at_every_shard_count(self, pbft_runs):
        baseline = _finding_signature(pbft_runs[1])
        assert len(baseline) == 2  # read-only reply + pre-prepare paths
        for shards in SHARD_COUNTS[1:]:
            assert _finding_signature(pbft_runs[shards]) == baseline, (
                f"shards={shards} diverged from serial")

    def test_witnesses_stay_trojan(self, pbft_runs):
        from repro.messages.concrete import decode
        from repro.systems.pbft import MAC_STUB

        for shards in SHARD_COUNTS:
            for finding in pbft_runs[shards].findings:
                mac = decode(REQUEST_LAYOUT, finding.witness)["mac"]
                assert mac != MAC_STUB

    def test_shards_compose_with_scratch_solving(self, pbft_runs):
        scratch = _run_pbft(2, incremental=False)
        assert _finding_signature(scratch) == \
            _finding_signature(pbft_runs[1])
