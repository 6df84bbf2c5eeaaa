"""End-to-end Achilles on FSP — the §6.2 accuracy experiment.

Ground truth: at path bound 5 there are exactly 80 Trojan classes
(``(1+2+3+4) × 8 utilities``). Achilles must find all of them with no
false positives (Table 1, Achilles column).
"""

from dataclasses import replace

import pytest

from repro.achilles import Achilles, AchillesConfig, FieldMask
from repro.systems.fsp import (
    FSP_LAYOUT,
    FSP_PARAMS,
    SYSTEM,
    GroundTruth,
    all_trojan_classes,
    fsp_system,
)
from repro.systems.scoring import bound_ground_truth

SESSION_MASK = FieldMask.hide("sum", "bb_key", "bb_seq", "bb_pos")


def _run(system):
    achilles = Achilles(AchillesConfig(layout=system.layout,
                                       mask=system.mask))
    predicates = achilles.extract_clients(system.clients)
    return predicates, achilles.search(system.server, predicates)


@pytest.fixture(scope="module")
def accuracy_run():
    return _run(SYSTEM)


def test_system_carries_the_session_mask():
    assert SYSTEM.mask == SESSION_MASK
    assert SYSTEM.layout is FSP_LAYOUT


class TestClientPredicate:
    def test_thirty_two_predicates(self, accuracy_run):
        # 8 utilities x 4 true path lengths.
        predicates, _ = accuracy_run
        assert len(predicates) == 32

    def test_bb_len_concrete_per_predicate(self, accuracy_run):
        predicates, _ = accuracy_run
        lengths = sorted({p.field_value("bb_len").value
                          for p in predicates.predicates})
        assert lengths == [1, 2, 3, 4]


class TestTable1AchillesColumn:
    def test_eighty_findings(self, accuracy_run):
        _, report = accuracy_run
        assert report.trojan_count == 80

    def test_all_classes_covered_no_false_positives(self, accuracy_run):
        _, report = accuracy_run
        score = GroundTruth.score(report.witnesses())
        assert score.true_positives == 80
        assert score.false_positives == 0
        assert len(score.classes_found) == len(all_trojan_classes())

    def test_every_witness_is_accepted_and_ungenerable(self, accuracy_run):
        _, report = accuracy_run
        for witness in report.witnesses():
            assert SYSTEM.accepts(witness)
            assert not SYSTEM.generable(witness)

    def test_valid_paths_pruned(self, accuracy_run):
        # 8 utilities x 4 lengths of valid (t == L) accepting paths have
        # no Trojans: the incremental search prunes them (§3.2).
        _, report = accuracy_run
        assert report.server_paths_pruned >= 32

    def test_discovery_is_incremental(self, accuracy_run):
        """Figure 10's defining property: findings arrive over the whole
        analysis, not in one burst at the end."""
        _, report = accuracy_run
        timeline = report.discovery_fractions()
        assert timeline[0][0] < 0.5, "first Trojan well before the end"
        assert timeline[-1][1] == 1.0

    def test_predicate_count_decays_along_paths(self, accuracy_run):
        """Figure 11's shape: deeper server paths retain fewer live
        client predicates."""
        _, report = accuracy_run
        samples = report.predicate_samples
        shallow = [n for length, n in samples if length <= 2]
        deep = [n for length, n in samples if length >= 10]
        assert shallow and deep
        assert max(deep) < max(shallow)
        assert min(deep) < 32  # deep paths retain a strict subset


    def test_solver_work_is_pinned(self, accuracy_run):
        """The serial search is deterministic, so what reaches the solver
        is exact: the observer's trie decides most fresh prefixes itself
        (inherited models, interval refutations), and only the rest
        become queries and cache misses."""
        _, report = accuracy_run
        assert report.solver_queries == 979
        assert report.cache_misses == 999


class TestWildcardExperiment:
    """§6.3: with globbing clients, wildcard paths become Trojans."""

    @pytest.fixture(scope="class")
    def globbing(self):
        return fsp_system(replace(FSP_PARAMS, globbing=True,
                                  listing=("f1", "f2", "doc")))

    @pytest.fixture(scope="class")
    def glob_run(self, globbing):
        _, report = _run(globbing)
        return report

    def test_wildcard_trojans_found(self, glob_run):
        """Some witness must now carry a wildcard character: the only
        printable bytes globbing clients cannot emit."""
        buf_view = FSP_LAYOUT.view("buf")
        wildcard_witnesses = [
            w for w in glob_run.witnesses()
            if any(b in (ord("*"), ord("?"))
                   for b in w[buf_view.offset:buf_view.end])]
        assert wildcard_witnesses

    def test_more_findings_than_accuracy_run(self, glob_run):
        # Valid (t == L) paths now also accept Trojans (the wildcard
        # ones), so every accepting path yields a finding.
        assert glob_run.trojan_count > 80

    def test_no_witness_is_generable_by_globbing_clients(self, glob_run,
                                                         globbing):
        for witness in glob_run.witnesses():
            assert not globbing.generable(witness)

    def test_every_class_found_once(self, glob_run, globbing):
        """The globbing oracle scores the run exactly: 80 length
        mismatches and 32 full-length wildcard paths, one witness each."""
        score = bound_ground_truth(globbing).score(glob_run.witnesses())
        assert (score.true_positives, score.false_positives) == (112, 0)
        assert score.coverage == 1.0
