"""Scaling sweeps: Achilles cost vs client-predicate count and vs shards.

Not a paper figure, but the scaling behaviour behind Figures 10/11: both
phases grow with ``|PC|`` — pre-processing with the per-predicate
negations, and the server search roughly linearly in the per-path
live-predicate load (the ``differentFrom`` entries it reads included).
The sweep varies the number of FSP utilities analyzed (2 → 4 → 8) and
records the phase costs.

The *shard* sweep runs the same FSP end-to-end analysis at 1, 2 and 4
exploration shards (decision-prefix sharding of the phase-2 path tree,
:mod:`repro.explore`), asserts the findings are byte-identical at every
shard count, gates the shards=2 solver-query count against serial and
emits ``BENCH_explore_scaling.json``. The wall-clock speedup assertion
is gated on the machine actually having the cores — on a single-core
box the shards can only add dispatch overhead, which the emitted JSON
records rather than hides.
"""

import itertools
import os
import time

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK, run_accuracy
from repro.bench.tables import format_table
from repro.systems import fsp


def _run(utilities: int):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), utilities))
    achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                       mask=FSP_SESSION_MASK))
    predicates = achilles.extract_clients(fsp.literal_clients(commands))
    report = achilles.search(fsp.fsp_server, predicates)
    return predicates, report


@pytest.fixture(scope="module")
def sweep():
    return {n: _run(n) for n in (2, 4, 8)}


def test_scaling_sweep(benchmark, sweep, artifact):
    benchmark.pedantic(_run, args=(4,), rounds=1, iterations=1)
    rows = []
    for utilities, (predicates, report) in sweep.items():
        rows.append([
            utilities, len(predicates),
            report.trojan_count,
            f"{predicates.stats.preprocess_seconds:.2f}s",
            f"{report.timings.server_analysis:.2f}s",
            report.solver_queries,
        ])
    artifact("scaling_sweep", format_table(
        ["Utilities", "|PC|", "Findings", "Preprocess", "Server",
         "Queries"],
        rows, title="Scaling with client-predicate count"))

    # |PC| grows linearly with utilities (4 predicates each).
    assert [len(sweep[n][0]) for n in (2, 4, 8)] == [8, 16, 32]


def test_finding_count_tracks_uncovered_commands(benchmark, sweep):
    """With fewer utilities, *more* messages are Trojan: the uncovered
    commands' accepting paths have no generating client at all."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    findings = {n: sweep[n][1].trojan_count for n in (2, 4, 8)}
    # 8 utilities: 80 (the ground-truth classes). Fewer utilities: the
    # remaining commands' valid paths also become Trojan (14 paths per
    # uncovered command at bound 5: 10 mismatch + 4 valid).
    assert findings[8] == 80
    assert findings[4] == 40 + 4 * 14
    assert findings[2] == 20 + 6 * 14


#: ``differentFrom`` entries the serial full-FSP search reads; the eager
#: §3.3 build posed all 2,976 of them during pre-processing.
FSP_MATRIX_ENTRIES = 992


def test_different_from_is_computed_lazily(benchmark, sweep):
    """Pre-processing poses no matrix query; the search computes exactly
    the entries its drop step reads (queries, not seconds, to stay robust
    on noisy machines)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                       mask=FSP_SESSION_MASK))
    predicates = achilles.extract_clients(fsp.literal_clients())
    assert predicates.different_from.stats.entries_computed == 0
    full, _ = sweep[8]
    assert full.different_from.stats.entries_computed == FSP_MATRIX_ENTRIES


# -- exploration-shard scaling ------------------------------------------------

SHARD_COUNTS = (1, 2, 4)

#: Solver queries a shards=2 FSP hunt may pose per serial one. Workers
#: keep one Trojan observer per session and start from the coordinator's
#: seeded prefix trie, so they re-decide only the prefixes a steal moved
#: between them: 983-990 queries against 979 serially. A worker that
#: rebuilt its observer per assignment posed ~1,065; one that also
#: started from an empty trie, 1,170-1,309.
SHARD_QUERY_RATIO = 1.05


@pytest.fixture(scope="module")
def shard_sweep():
    """Full FSP end-to-end (Table 1 workload) at each exploration shard
    count.

    Two runs per count, keeping the faster wall clock — best-of-n is the
    standard defense against scheduler noise on shared CI runners, so the
    speedup gate below compares two minima rather than single samples.
    """
    runs = {}
    for shards in SHARD_COUNTS:
        best_seconds, outcome = None, None
        for _ in range(2):
            started = time.perf_counter()
            outcome = run_accuracy("fsp", shards=shards)
            elapsed = time.perf_counter() - started
            if best_seconds is None or elapsed < best_seconds:
                best_seconds = elapsed
        runs[shards] = (best_seconds, outcome)
    return runs


def test_shard_sweep_end_to_end(benchmark, shard_sweep, artifact,
                                json_artifact):
    """Decision-prefix sharding: parity and worker queries are
    unconditional, speedup gated.

    Times one shards=2 FSP hunt, and holds it and the sweep's shards=2
    run to :data:`SHARD_QUERY_RATIO` times the serial solver queries.
    Emits ``BENCH_explore_scaling.json``. The >=1.5x wall-clock gate at 4
    shards only runs on machines with >= 4 cores — a smaller box can only
    time-slice the shard processes, which the JSON records rather than
    hides.
    """
    timed = benchmark.pedantic(run_accuracy, args=("fsp",),
                               kwargs={"shards": 2}, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    serial_seconds = shard_sweep[1][0]

    rows = []
    payload = {"cpu_count": cores,
               "workload": "FSP end-to-end (Table 1), sharded exploration",
               "end_to_end": {}}
    for shards in SHARD_COUNTS:
        seconds, outcome = shard_sweep[shards]
        report = outcome.report
        speedup = serial_seconds / seconds
        rows.append([shards, f"{seconds:.2f}s", f"{speedup:.2f}x",
                     report.trojan_count, report.server_paths_explored,
                     report.server_paths_pruned])
        payload["end_to_end"][str(shards)] = {
            "seconds": round(seconds, 4),
            "speedup_vs_serial": round(speedup, 4),
            "findings": report.trojan_count,
            "server_paths_explored": report.server_paths_explored,
            "server_paths_pruned": report.server_paths_pruned,
            "solver_queries": report.solver_queries,
        }
    artifact("explore_scaling", format_table(
        ["Shards", "Wall clock", "Speedup", "Findings", "Paths", "Pruned"],
        rows, title=f"Exploration-shard scaling, FSP end-to-end "
                    f"({cores} core(s) available)"))
    json_artifact("explore_scaling", payload)

    # Parity is unconditional: shard count must never change findings.
    baseline = shard_sweep[1][1].report.witnesses()
    for shards in SHARD_COUNTS[1:]:
        assert shard_sweep[shards][1].report.witnesses() == baseline, (
            f"shards={shards} changed the findings")
    assert timed.report.witnesses() == baseline
    for shards in SHARD_COUNTS:
        assert shard_sweep[shards][1].true_positives == 80
        assert shard_sweep[shards][1].false_positives == 0

    # Workers must not re-decide what the coordinator or they already
    # decided.
    serial_queries = shard_sweep[1][1].report.solver_queries
    budget = round(SHARD_QUERY_RATIO * serial_queries)
    for report in (timed.report, shard_sweep[2][1].report):
        assert report.solver_queries <= budget, (
            f"shards=2 posed {report.solver_queries} solver queries, "
            f"over {budget} ({SHARD_QUERY_RATIO}x the serial "
            f"{serial_queries})")

    if cores < 4:
        pytest.skip("shard speedup gate needs >= 4 cores "
                    "(numbers recorded in BENCH_explore_scaling.json)")
    speedup4 = serial_seconds / shard_sweep[4][0]
    assert speedup4 >= 1.5, (
        f"4-shard FSP run only {speedup4:.2f}x over serial")
