"""End-to-end Achilles on the Bracha reliable-broadcast workload.

The acceptance bar for the broadcast system: all 7 seeded Trojan
classes found (recall 1.0), nothing benign flagged (precision 1.0),
and every witness a genuine member of ``PS \\ PC`` under the
independent concrete oracles.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.corpus.templates import FORGED_SENDER
from repro.systems import broadcast


@pytest.fixture(scope="module")
def broadcast_outcome():
    return run_accuracy("broadcast")


class TestBroadcastAccuracy:
    def test_perfect_precision_and_recall(self, broadcast_outcome):
        assert broadcast_outcome.true_positives == 7
        assert broadcast_outcome.false_positives == 0
        assert broadcast_outcome.classes_found == 7
        assert broadcast_outcome.classes_total == 7
        assert broadcast_outcome.precision == 1.0
        assert broadcast_outcome.recall == 1.0

    def test_every_witness_is_accepted_and_ungenerable(
            self, broadcast_outcome):
        for witness in broadcast_outcome.report.witnesses():
            assert broadcast.SYSTEM.accepts(witness)
            assert not broadcast.SYSTEM.generable(witness)

    def test_both_seeded_bugs_are_represented(self, broadcast_outcome):
        classes = {broadcast.SYSTEM.classify(w)
                   for w in broadcast_outcome.report.witnesses()}
        assert FORGED_SENDER in classes
        assert classes == set(broadcast.SYSTEM.classes)

    def test_thin_certificates_carry_the_label(self, broadcast_outcome):
        # The READY switch labels every below-quorum certificate at the
        # moment it slips past the off-by-one; forged SENDs do not.
        for finding in broadcast_outcome.report.findings:
            trojan = broadcast.SYSTEM.classify(finding.witness)
            assert (("thin-certificate" in finding.labels)
                    == (trojan != FORGED_SENDER))

    def test_benign_accepting_paths_yield_no_findings(
            self, broadcast_outcome):
        # The ECHO path and the 5 full-certificate READY paths accept
        # only generable messages: the search must prune them all.
        assert broadcast_outcome.report.server_paths_pruned >= 6
