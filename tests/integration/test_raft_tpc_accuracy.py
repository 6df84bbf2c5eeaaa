"""End-to-end Achilles on the Raft and two-phase-commit workloads.

The executable form of the acceptance bar for the new systems: every
seeded Trojan class is found (recall 1.0), nothing benign is flagged
(precision 1.0), and the witnesses are genuine members of ``PS \\ PC``
under the independent concrete oracles.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.systems import raft, tpc


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
            assert raft.is_follower_accepted(witness)
            assert not raft.is_peer_generable(witness)

    def test_both_seeded_bugs_are_represented(self, raft_outcome):
        kinds = {raft.classify_message(w).kind
                 for w in raft_outcome.report.witnesses()}
        assert kinds == {raft.STALE_APPEND, raft.VOTE_OFF_BY_ONE}

    def test_committed_truncation_labelled(self, raft_outcome):
        # The stale appends probing below the commit point carry the
        # label the follower program records at the truncate step.
        for finding in raft_outcome.report.findings:
            trojan = raft.classify_message(finding.witness)
            assert (("truncates-committed" in finding.labels)
                    == trojan.truncates_committed)

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
            assert tpc.is_participant_accepted(witness)
            assert not tpc.is_coordinator_generable(witness)

    def test_both_seeded_classes_found(self, tpc_outcome):
        kinds = {tpc.classify_message(w).kind
                 for w in tpc_outcome.report.witnesses()}
        assert kinds == {tpc.SKIP_WAL, tpc.EMPTY_OP}

    def test_skip_wal_witness_rides_the_unlogged_path(self, tpc_outcome):
        labels = {tpc.classify_message(f.witness).kind: f.labels
                  for f in tpc_outcome.report.findings}
        assert "prepare:ack-without-wal" in labels[tpc.SKIP_WAL]
        assert "prepare:logged" in labels[tpc.EMPTY_OP]
