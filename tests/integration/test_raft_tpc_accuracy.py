"""End-to-end Achilles on the Raft and two-phase-commit workloads.

The executable form of the acceptance bar for the new systems: every
seeded Trojan class is found (recall 1.0), nothing benign is flagged
(precision 1.0), and the witnesses are genuine members of ``PS \\ PC``
under the independent concrete oracles.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.corpus.templates import (
    EMPTY_OP,
    SKIP_WAL,
    STALE_APPEND,
    VOTE_OFF_BY_ONE,
)
from repro.systems import raft, tpc


def _kind(trojan_class: str) -> str:
    return trojan_class.split("(")[0]


def _index(trojan_class: str) -> int:
    return int(trojan_class.rsplit("index=", 1)[1].rstrip(")"))


@pytest.fixture(scope="module")
def raft_outcome():
    return run_accuracy("raft")


@pytest.fixture(scope="module")
def tpc_outcome():
    return run_accuracy("tpc")


class TestRaftAccuracy:
    def test_perfect_precision_and_recall(self, raft_outcome):
        assert raft_outcome.true_positives == 9
        assert raft_outcome.false_positives == 0
        assert raft_outcome.classes_found == raft_outcome.classes_total == 9
        assert raft_outcome.precision == 1.0
        assert raft_outcome.recall == 1.0

    def test_every_witness_is_accepted_and_ungenerable(self, raft_outcome):
        for witness in raft_outcome.report.witnesses():
            assert raft.SYSTEM.accepts(witness)
            assert not raft.SYSTEM.generable(witness)

    def test_both_seeded_bugs_are_represented(self, raft_outcome):
        kinds = {_kind(raft.SYSTEM.classify(w))
                 for w in raft_outcome.report.witnesses()}
        assert kinds == {STALE_APPEND, VOTE_OFF_BY_ONE}

    def test_committed_truncation_labelled(self, raft_outcome):
        # The stale appends probing below the commit point carry the
        # label the follower program records at the truncate step.
        for finding in raft_outcome.report.findings:
            trojan = raft.SYSTEM.classify(finding.witness)
            truncates = (_kind(trojan) == STALE_APPEND
                         and _index(trojan) < raft.COMMIT_INDEX)
            assert ("truncates-committed" in finding.labels) == truncates

    def test_benign_accepting_paths_yield_no_findings(self, raft_outcome):
        # Current-term appends (4 paths) + the up-to-date vote grant:
        # all accepting, none Trojan — the search must prune them all.
        assert raft_outcome.report.server_paths_pruned >= 5


class TestTpcAccuracy:
    def test_perfect_precision_and_recall(self, tpc_outcome):
        assert tpc_outcome.true_positives == 2
        assert tpc_outcome.false_positives == 0
        assert tpc_outcome.classes_found == tpc_outcome.classes_total == 2
        assert tpc_outcome.precision == 1.0
        assert tpc_outcome.recall == 1.0

    def test_every_witness_is_accepted_and_ungenerable(self, tpc_outcome):
        for witness in tpc_outcome.report.witnesses():
            assert tpc.SYSTEM.accepts(witness)
            assert not tpc.SYSTEM.generable(witness)

    def test_both_seeded_classes_found(self, tpc_outcome):
        kinds = {tpc.SYSTEM.classify(w)
                 for w in tpc_outcome.report.witnesses()}
        assert kinds == {SKIP_WAL, EMPTY_OP}

    def test_skip_wal_witness_rides_the_unlogged_path(self, tpc_outcome):
        labels = {tpc.SYSTEM.classify(f.witness): f.labels
                  for f in tpc_outcome.report.findings}
        assert "prepare:ack-without-wal" in labels[SKIP_WAL]
        assert "prepare:logged" in labels[EMPTY_OP]
