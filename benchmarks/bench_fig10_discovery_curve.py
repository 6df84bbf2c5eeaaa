"""Figure 10 — % of FSP Trojan messages discovered vs analysis time (§6.2).

Paper shape: Achilles produces Trojans *incrementally* while the server
analysis runs — the first one well before the end (paper: ~45% into the
analysis), 100% before the analysis finishes. An interrupted run still
yields useful results.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_series


@pytest.fixture(scope="module")
def outcome():
    return run_accuracy("fsp")


def test_fig10_discovery_curve(benchmark, outcome, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    curve = outcome.report.discovery_fractions()
    assert len(curve) == 80

    # Monotone non-decreasing cumulative curve reaching 100%.
    fractions_found = [y for _, y in curve]
    assert fractions_found == sorted(fractions_found)
    assert fractions_found[-1] == 1.0

    # Decimated series for the artifact (every 8th finding).
    series = curve[::8] + [curve[-1]]
    artifact("fig10_discovery_curve", format_series(
        series, title="Figure 10: fraction of Trojans found vs "
                      "fraction of server-analysis time",
        x_label="time", y_label="found"))


def test_fig10_first_trojan_is_early(benchmark, outcome):
    """Paper: first Trojan after 20 of 43 minutes (~47%); interrupting
    the analysis early still yields findings."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    first_time, _ = outcome.report.discovery_fractions()[0]
    assert first_time < 0.6


def test_fig10_discovery_is_spread_out(benchmark, outcome):
    """Findings arrive throughout the analysis, not in one final burst."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    curve = outcome.report.discovery_fractions()
    at_half_time = sum(1 for t, _ in curve if t <= 0.5)
    assert 0 < at_half_time < 80
