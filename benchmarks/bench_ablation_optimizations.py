"""Optimization ablation (§6.4).

Paper: optimized Achilles finishes the FSP analysis in 1h03 against 2h15
for non-optimized a-posteriori constraint differencing (≈2.1×). Here the
same comparison runs at laptop scale, plus per-optimization variants for
the design choices DESIGN.md calls out (incremental predicate dropping,
the differentFrom matrix, state pruning). All variants must find exactly
the same 80 Trojan classes — the optimizations trade time, not accuracy.
"""

import statistics

import pytest

from repro.achilles import server_analysis
from repro.bench.experiments import run_ablation
from repro.bench.tables import format_table
from repro.systems.fsp import GroundTruth


class _TrielessObserver(server_analysis.TrojanSearchObserver):
    """Forgets the prefix trie at every path start, so every replayed
    prefix re-poses its queries: the observer as it was before the trie."""

    def on_path_start(self, ctx):
        self._root = server_analysis._PrefixNode(self._root.live)
        super().on_path_start(ctx)


@pytest.fixture(scope="module")
def outcomes():
    return run_ablation()


@pytest.fixture(scope="module")
def trieless_outcomes():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_analysis, "TrojanSearchObserver",
                      _TrielessObserver)
        return run_ablation()


def test_all_variants_find_the_same_trojans(benchmark, outcomes, artifact,
                                            json_artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    scores = {label: GroundTruth.score(report.witnesses())
              for label, report in outcomes.items()}
    for label, score in scores.items():
        assert len(score.classes_found) == 80, label
        assert score.false_positives == 0, label

    rows = []
    for label, report in outcomes.items():
        score = scores[label]
        rows.append([label, len(score.classes_found),
                     report.server_paths_pruned,
                     report.solver_queries,
                     f"{report.cache_hit_rate:.1%}",
                     report.frames_reused,
                     f"{report.timings.server_analysis:.2f}s"])
    artifact("ablation_optimizations", format_table(
        ["Variant", "Classes", "Paths pruned", "Solver queries",
         "Cache hits", "Frames reused", "Server analysis"],
        rows, title="Optimization ablation (paper: optimized 1h03 vs "
                    "a-posteriori 2h15, ~2.1x)"))
    json_artifact("fsp_ablation", {
        label: {
            "classes_found": len(scores[label].classes_found),
            "server_paths_pruned": report.server_paths_pruned,
            "solver_queries": report.solver_queries,
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "frames_reused": report.frames_reused,
            "propagation_seconds": round(report.propagation_seconds, 6),
            "server_analysis_seconds": round(
                report.timings.server_analysis, 6),
        }
        for label, report in outcomes.items()
    })


def test_incremental_drop_shrinks_final_queries(benchmark, outcomes,
                                                artifact):
    """The §6.4 headline *mechanism*: incremental predicate dropping
    makes the Trojan queries small.

    The paper credits its 2.1x wall-clock win (1h03 vs 2h15) to exactly
    this: by acceptance time, most client predicates have been dropped,
    so the satisfiability query carries a handful of negations instead
    of all of them. We assert the mechanism directly — the wall-clock
    payoff depends on the SMT solver's superlinear cost in formula
    size, which our substituted solver deliberately does not exhibit
    (see EXPERIMENTS.md for the measured timings and discussion).
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    optimized = outcomes["achilles-optimized"]
    posterior = outcomes["a-posteriori"]

    mean_live_optimized = statistics.mean(
        len(f.live_predicates) for f in optimized.findings)
    mean_live_posterior = statistics.mean(
        len(f.live_predicates) for f in posterior.findings)

    # A-posteriori queries always carry every predicate's negation; the
    # incremental search acceptance queries carry a small residue.
    assert mean_live_posterior == optimized.client_predicate_count == 32
    assert mean_live_optimized <= 4

    artifact("ablation_headline", format_table(
        ["", "Paper", "Here"],
        [["Negations per accept query (optimized)", "few",
          f"{mean_live_optimized:.1f}"],
         ["Negations per accept query (a-posteriori)", "all (thousands)",
          f"{mean_live_posterior:.0f}"],
         ["Optimized wall clock", "1h03",
          f"{optimized.timings.server_analysis:.2f}s"],
         ["A-posteriori wall clock", "2h15",
          f"{posterior.timings.server_analysis:.2f}s"]],
        title="§6.4 ablation: query-size mechanism (see EXPERIMENTS.md "
              "for the wall-clock discussion)"))


def test_pruning_reduces_explored_paths(benchmark, outcomes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_pruning = outcomes["achilles-optimized"]
    without_pruning = outcomes["no-pruning"]
    assert with_pruning.server_paths_pruned > 0
    assert without_pruning.server_paths_pruned == 0
    # Without pruning, valid accepting paths run to completion.
    assert (without_pruning.server_paths_explored
            > with_pruning.server_paths_explored)


def test_query_cache_absorbs_repeated_queries(benchmark, outcomes,
                                              trieless_outcomes):
    """The canonical query cache still answers repeats the observer's
    prefix trie cannot see — pathS ∧ pathC_i re-posed across sibling
    prefixes, branch probes, cross-phase reuse — without reaching the
    solver.

    Replayed prefixes no longer reach the cache at all (the trie answers
    them), so the hit rate is no longer the measure: FSP's drops from
    ~97% to ~26% with identical solver work. The gate is that solver
    work: every row poses exactly as many solver queries, and misses the
    cache exactly as often, as the same row run without the trie.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for label, report in outcomes.items():
        if label == "a-posteriori":
            # Vanilla exploration poses each branch query exactly once and
            # differences every accepting path once: nothing repeats.
            continue
        reference = trieless_outcomes[label]
        assert report.cache_hits > 0, label
        assert report.solver_queries == reference.solver_queries, label
        assert report.cache_misses == reference.cache_misses, label
        assert report.cache_hits < reference.cache_hits, label
