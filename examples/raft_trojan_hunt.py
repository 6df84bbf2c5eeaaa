#!/usr/bin/env python3
"""The Raft consensus workload, end to end.

Runs Achilles over the correct Raft peers (the current-term leader and a
campaigning candidate) and one follower's RPC ingress, scores the
findings against the 9 seeded Trojan classes, then *detonates* one of
them: a single stale-term AppendEntries delivered to a live concrete
follower erases its committed log entries.

Run::

    python examples/raft_trojan_hunt.py
    python examples/raft_trojan_hunt.py --shards 4    # sharded exploration

``--shards N`` partitions the follower's path tree by decision prefixes
across N local exploration processes. The findings are byte-identical
to the serial run.
"""

import argparse

from repro.bench.experiments import run_accuracy
from repro.bench.tables import format_table
from repro.symex.engine import EngineConfig
from repro.systems.raft import SYSTEM, run_truncation_attack


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=1,
                        help="exploration shard processes for the follower "
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
    print(f"Running Achilles on the Raft follower "
          f"(shards={args.shards})...")
    engine = EngineConfig(search_order=args.search_order or "dfs",
                          max_paths=args.max_paths or EngineConfig.max_paths)
    outcome = run_accuracy("raft", shards=args.shards,
                           client_engine=engine, server_engine=engine,
                           trace_dir=args.trace_dir,
                           progress=args.progress)
    report = outcome.report

    print(format_table(
        ["", "Seeded", "This run"],
        [["True positives", 9, outcome.true_positives],
         ["False positives", 0, outcome.false_positives],
         ["Class coverage", "9/9",
          f"{outcome.classes_found}/{outcome.classes_total}"],
         ["Precision / recall", "1.00 / 1.00",
          f"{outcome.precision:.2f} / {outcome.recall:.2f}"],
         ["Total time", "-", f"{report.timings.total:.1f}s"]],
        title="Raft follower ingress vs seeded ground truth"))

    print("\nFindings:")
    for finding in report.findings:
        marker = (" [erases committed entries]"
                  if "truncates-committed" in finding.labels else "")
        print(f"  {SYSTEM.classify(finding.witness)}  "
              f"wire={finding.witness.hex()}{marker}")

    print("\nDetonating one stale-term AppendEntries on a live follower:")
    attack = run_truncation_attack()
    print(f"  log terms before: {attack.log_terms_before} "
          f"(committed through index 2)")
    print(f"  log terms after:  {attack.log_terms_after}")
    print(f"  committed entries erased: {attack.committed_lost}; "
          f"follower acked the Trojan: {attack.acked}")


if __name__ == "__main__":
    main()
