#!/usr/bin/env python3
"""The §6.2 FSP accuracy experiment, end to end.

Runs Achilles over the eight FSP client utilities and the FSP server with
file paths bounded below length 5, then scores the findings against the
mathematically known 80 Trojan classes — reproducing Table 1's Achilles
column (80 true positives, 0 false positives) and the Figure 10 curve.

Run::

    python examples/fsp_trojan_hunt.py
    python examples/fsp_trojan_hunt.py --shards 4    # sharded exploration

``--shards N`` partitions the server's path tree by decision prefixes
across N local exploration processes, which take the seeded frontier
one prefix at a time. The findings are byte-identical to the serial
run. ``--search-order`` and ``--max-paths`` override the exploration
policy.

Watch it live with ``--progress`` (one fleet-status line per second on
stderr), or record a full trace with ``--trace-dir DIR`` and inspect it
afterwards::

    python examples/fsp_trojan_hunt.py --shards 4 --trace-dir run
    python -m repro trace summarize run
    python -m repro trace export run -o fsp.chrome.json  # open in Perfetto
"""

import argparse
from collections import Counter

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_series, format_table
from repro.symex.engine import EngineConfig
from repro.systems.fsp import FSP_LAYOUT, SYSTEM


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=1,
                        help="exploration shard processes for the server "
                             "search (default: 1, one in-process walk)")
    parser.add_argument("--search-order", choices=["dfs", "bfs"], default=None,
                        help="exploration worklist order (default: dfs)")
    parser.add_argument("--max-paths", type=int, default=None,
                        help="cap on completed paths per exploration")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="record structured spans for the whole hunt "
                             "and write DIR/trace.jsonl (inspect with "
                             "`python -m repro trace summarize DIR`)")
    parser.add_argument("--progress", action="store_true",
                        help="print a live one-line fleet status to "
                             "stderr while the hunt runs")
    args = parser.parse_args()
    print(f"Running Achilles on FSP (8 utilities, path bound 5, "
          f"shards={args.shards})...")
    engine = EngineConfig(search_order=args.search_order or "dfs",
                          max_paths=args.max_paths or EngineConfig.max_paths)
    outcome = run_accuracy("fsp", shards=args.shards,
                           client_engine=engine, server_engine=engine,
                           trace_dir=args.trace_dir,
                           progress=args.progress)
    report = outcome.report

    print(format_table(
        ["", "Paper", "This run"],
        [["True positives", 80, outcome.true_positives],
         ["False positives", 0, outcome.false_positives],
         ["Class coverage", "80/80",
          f"{outcome.classes_found}/{outcome.classes_total}"],
         ["Server paths pruned", "-", report.server_paths_pruned],
         ["Total time", "1h03",
          f"{report.timings.total:.1f}s"]],
        title="Table 1 — Achilles on FSP"))

    print("\nFindings per utility:")
    # Class labels read "fcat(L=3, t=2)": utility, reported and true length.
    by_utility = Counter(
        SYSTEM.classify(w).partition("(")[0] for w in report.witnesses())
    for utility, count in sorted(by_utility.items()):
        print(f"  {utility}: {count} Trojan classes")

    print("\n" + format_series(
        report.discovery_fractions()[::8] + [report.discovery_fractions()[-1]],
        title="Figure 10 — discovery over analysis time",
        x_label="time", y_label="found"))

    example = report.findings[0]
    fields = example.witness_fields(FSP_LAYOUT)
    trojan_class = SYSTEM.classify(example.witness)
    buf = example.witness[FSP_LAYOUT.view("buf").offset:]
    print(f"\nExample Trojan: {trojan_class}")
    print(f"  wire bytes: {example.witness.hex()}")
    print(f"  bb_len says {fields['bb_len']}, but the path ends at "
          f"{buf.index(0)} - the unvalidated gap is a "
          f"hidden payload channel.")


if __name__ == "__main__":
    main()
