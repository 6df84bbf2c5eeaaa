"""Shared infrastructure for the evaluation benchmarks.

The ``benchmarks/`` tree regenerates every table and figure of the
paper's §6; the reusable pieces live here so the examples can drive the
same experiments:

* :mod:`~repro.bench.tables` — plain-text table/series rendering in the
  paper's shapes;
* :mod:`~repro.bench.experiments` — one driver function per experiment,
  returning structured results the benchmarks assert on and print.
"""

from repro.bench.tables import format_series, format_table
from repro.bench.experiments import (
    AccuracyOutcome,
    FuzzingOutcome,
    PbftOutcome,
    run_ablation,
    run_accuracy,
    run_classic_baseline,
    run_fsp_wildcard,
    run_fuzzing_comparison,
    run_pbft_analysis,
    run_pbft_impact,
)

__all__ = [
    "AccuracyOutcome",
    "FuzzingOutcome",
    "PbftOutcome",
    "format_series",
    "format_table",
    "run_ablation",
    "run_accuracy",
    "run_classic_baseline",
    "run_fsp_wildcard",
    "run_fuzzing_comparison",
    "run_pbft_analysis",
    "run_pbft_impact",
]
