"""End-to-end scenario-matrix runs: bulk scoring and reproducibility.

A small corpus (one variant per template) must hunt to precision ==
recall == 1.0 on every row, the deterministic JSON payload must be
byte-identical across two runs, and a sharded rerun of a variant must
match its serial findings — the corpus inherits the determinism
contract of the underlying pipeline.
"""

import pytest

from repro.bench.experiments import run_corpus
from repro.corpus import corpus_payload, dump_payload


@pytest.fixture(scope="module")
def small_corpus():
    return run_corpus(corpus_seed=0, variants=3)


class TestCorpusRun:
    def test_every_variant_scores_perfectly(self, small_corpus):
        assert len(small_corpus.results) == 3
        for result in small_corpus.results:
            outcome = result.outcome
            assert outcome.false_positives == 0, result.variant.token
            assert outcome.precision == 1.0, result.variant.token
            assert outcome.recall == 1.0, result.variant.token
        assert small_corpus.perfect

    def test_all_templates_represented(self, small_corpus):
        templates = {r.variant.template for r in small_corpus.results}
        assert templates == {"tpc", "raft", "broadcast"}

    def test_witnesses_are_trojan_under_the_variant_oracle(
            self, small_corpus):
        for result in small_corpus.results:
            variant = result.variant
            for witness in result.outcome.report.witnesses():
                assert variant.accepts(witness), variant.token
                assert not variant.generable(witness), variant.token
                assert variant.classify(witness) in variant.classes

    def test_payload_is_byte_reproducible(self, small_corpus):
        rerun = run_corpus(corpus_seed=0, variants=3)
        assert dump_payload(corpus_payload(rerun)) == \
            dump_payload(corpus_payload(small_corpus))

    def test_payload_carries_the_reproduction_handles(self, small_corpus):
        payload = corpus_payload(small_corpus)
        assert payload["corpus_seed"] == 0
        assert payload["all_perfect"] is True
        for row in payload["results"]:
            template, _, seed = row["token"].partition(":")
            assert row["template"] == template
            assert row["seed"] == int(seed)
            assert row["classes_found"] == row["classes"]

    def test_only_tokens_rerun_single_variants(self, small_corpus):
        target = small_corpus.results[-1]
        rerun = run_corpus(only=(target.variant.token,))
        assert rerun.corpus_seed is None  # not a generated corpus
        assert len(rerun.results) == 1
        assert rerun.results[0].variant.params == target.variant.params
        assert rerun.results[0].outcome.report.witnesses() == \
            target.outcome.report.witnesses()

    def test_sharded_variant_matches_serial(self, small_corpus):
        # The corpus programs are picklable callables: a shards=2 hunt
        # of the same variant must reproduce the serial findings.
        result = small_corpus.results[1]  # the raft variant
        variant = result.variant
        sharded = run_corpus(only=(variant.token,),
                             shards=2).results[0].outcome
        serial_findings = [
            (f.server_path_id, f.decisions, f.witness, f.labels)
            for f in result.outcome.report.findings]
        sharded_findings = [
            (f.server_path_id, f.decisions, f.witness, f.labels)
            for f in sharded.report.findings]
        assert sharded_findings == serial_findings
