"""Figure 11 — live client path predicates vs server path length (§6.4).

Paper shape: the number of client path predicates that can still trigger
a server execution path *decays* as the path grows — longer paths are
more specialized, so the Trojan-feasibility queries shrink. (The paper
plots ~5,000 predicates at short paths decaying toward 1 around length
100; our bounded workload starts at 32 and decays the same way.)
"""

import statistics

import pytest

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_series


@pytest.fixture(scope="module")
def outcome():
    return run_accuracy("fsp")


def _mean_by_length(samples):
    by_length: dict[int, list[int]] = {}
    for length, live in samples:
        by_length.setdefault(length, []).append(live)
    return {length: statistics.mean(values)
            for length, values in sorted(by_length.items())}


def test_fig11_predicate_decay(benchmark, outcome, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    samples = outcome.report.predicate_samples
    assert samples, "the observer recorded per-constraint samples"

    means = _mean_by_length(samples)
    lengths = list(means)
    # Decay: the average count over the deepest third is well below the
    # average over the shallowest third.
    third = max(1, len(lengths) // 3)
    shallow = statistics.mean(means[l] for l in lengths[:third])
    deep = statistics.mean(means[l] for l in lengths[-third:])
    assert deep < shallow / 2

    artifact("fig11_predicate_decay", format_series(
        [(float(l), means[l]) for l in lengths],
        title="Figure 11: mean live client predicates vs path length",
        x_label="path len", y_label="predicates"))


def test_fig11_starts_at_full_predicate_set(benchmark, outcome):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    samples = outcome.report.predicate_samples
    assert max(live for _, live in samples) == \
        outcome.report.client_predicate_count


def test_fig11_deep_paths_reach_single_digits(benchmark, outcome):
    """Long paths end up triggerable by only a handful of predicates."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    samples = outcome.report.predicate_samples
    deepest = max(length for length, _ in samples)
    at_deepest = [live for length, live in samples
                  if length >= deepest - 1]
    assert min(at_deepest) <= 8
