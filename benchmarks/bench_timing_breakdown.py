"""Phase timing split of the FSP analysis (§6.2 text).

Paper wall-clock: client predicate 3 min / preprocessing 15 min / server
analysis 45 min (≈5% / 24% / 71% of the hour). Absolute times differ on
this substrate; the reproduced shape is the *ordering*: extracting the
client predicate is by far the cheapest phase ("clients are usually less
complex than servers", §3.2), and the analysis spends the bulk of its
time on predicate pre-processing plus server search.
"""

import pytest

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_table

PAPER_SPLIT = {"client_extraction": 3 / 63, "preprocessing": 15 / 63,
               "server_analysis": 45 / 63}


@pytest.fixture(scope="module")
def outcome():
    return run_accuracy("fsp")


def test_timing_breakdown(benchmark, outcome, artifact, json_artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report = outcome.report
    timings = report.timings
    fractions = timings.fractions()

    rows = []
    for phase, paper_fraction in PAPER_SPLIT.items():
        rows.append([phase, f"{paper_fraction:.0%}",
                     f"{fractions[phase]:.0%}",
                     f"{getattr(timings, phase):.2f}s"])
    artifact("timing_breakdown", format_table(
        ["Phase", "Paper share", "Here share", "Here seconds"], rows,
        title="Analysis wall-clock split (paper: 3min/15min/45min)"))
    json_artifact("fsp_timing_breakdown", {
        "workload": "FSP end-to-end (Table 1 accuracy run)",
        "client_extraction_seconds": round(timings.client_extraction, 6),
        "preprocessing_seconds": round(timings.preprocessing, 6),
        "server_analysis_seconds": round(timings.server_analysis, 6),
        "total_seconds": round(timings.total, 6),
        "findings": report.trojan_count,
        "solver_queries": report.solver_queries,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "frames_reused": report.frames_reused,
        "propagation_seconds": round(report.propagation_seconds, 6),
    })

    # The orderings the paper's split implies.
    assert timings.client_extraction < timings.preprocessing
    assert timings.client_extraction < timings.server_analysis
    # Client extraction is a small sliver of the total (paper: ~5%).
    assert fractions["client_extraction"] < 0.15


def test_total_time_is_dominated_by_solver_phases(benchmark, outcome):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fractions = outcome.report.timings.fractions()
    solver_heavy = fractions["preprocessing"] + fractions["server_analysis"]
    assert solver_heavy > 0.8
