"""Run-to-run determinism: an Achilles run is a pure function of its input.

Every solver query of a run is posed in-process, in one fixed order, on
frame stacks that start empty. So two fresh runs of the same analysis
must agree on everything they report: the findings (same order, same
witnesses, same live-predicate sets), the pre-processing products (the
negations and the ``differentFrom`` matrix) and the solver's work
counters. These tests pin that on FSP and PBFT, for the incremental
search and for the §6.4 a-posteriori baseline.
"""

import itertools

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.server_analysis import a_posteriori_search
from repro.bench.experiments import FSP_SESSION_MASK
from repro.messages.concrete import decode
from repro.systems import fsp
from repro.systems.pbft import (
    MAC_STUB, REQUEST_LAYOUT, pbft_client, pbft_replica)

RUNS = 2


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _work_counters(report):
    return (report.solver_queries, report.cache_hits, report.cache_misses,
            report.frames_reused, report.server_paths_explored,
            report.server_paths_pruned, report.predicate_samples)


def _run_fsp():
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
        posterior = a_posteriori_search(fsp.fsp_server, predicates,
                                        achilles.server_msg)
    return predicates, report, posterior


def _run_pbft():
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0")
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        report = achilles.search(pbft_replica, predicates)
    return predicates, report


@pytest.fixture(scope="module")
def fsp_runs():
    return [_run_fsp() for _ in range(RUNS)]


@pytest.fixture(scope="module")
def pbft_runs():
    return [_run_pbft() for _ in range(RUNS)]


class TestFspDeterminism:
    def test_findings_identical_across_runs(self, fsp_runs):
        baseline = _finding_signature(fsp_runs[0][1])
        assert baseline  # the run must actually find Trojans
        for _, report, _ in fsp_runs[1:]:
            assert _finding_signature(report) == baseline

    def test_different_from_matrix_identical(self, fsp_runs):
        baseline = fsp_runs[0][0].different_from._table
        assert baseline
        for predicates, _, _ in fsp_runs[1:]:
            assert predicates.different_from._table == baseline

    def test_negations_identical(self, fsp_runs):
        baseline = [n.disjuncts for n in fsp_runs[0][0].negations]
        for predicates, _, _ in fsp_runs[1:]:
            assert [n.disjuncts for n in predicates.negations] == baseline

    def test_solver_work_identical_across_runs(self, fsp_runs):
        baseline = _work_counters(fsp_runs[0][1])
        assert baseline[0] > 0
        for _, report, _ in fsp_runs[1:]:
            assert _work_counters(report) == baseline

    def test_a_posteriori_findings_identical_across_runs(self, fsp_runs):
        baseline = _finding_signature(fsp_runs[0][2])
        assert baseline
        for _, _, posterior in fsp_runs[1:]:
            assert _finding_signature(posterior) == baseline

    def test_a_posteriori_finds_what_the_search_finds(self, fsp_runs):
        for _, report, posterior in fsp_runs:
            assert sorted(posterior.witnesses()) == \
                sorted(report.witnesses())


class TestPbftDeterminism:
    def test_findings_identical_across_runs(self, pbft_runs):
        baseline = _finding_signature(pbft_runs[0][1])
        assert len(baseline) == 2  # read-only reply + pre-prepare paths
        for _, report in pbft_runs[1:]:
            assert _finding_signature(report) == baseline

    def test_solver_work_identical_across_runs(self, pbft_runs):
        baseline = _work_counters(pbft_runs[0][1])
        for _, report in pbft_runs[1:]:
            assert _work_counters(report) == baseline

    def test_witnesses_stay_trojan(self, pbft_runs):
        for _, report in pbft_runs:
            for finding in report.findings:
                mac = decode(REQUEST_LAYOUT, finding.witness)["mac"]
                assert mac != MAC_STUB
