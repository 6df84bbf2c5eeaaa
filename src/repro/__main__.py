"""Command-line entry point: run the reproduction experiments.

Usage::

    python -m repro toy            # §2.1 working example
    python -m repro fsp            # Table 1 accuracy run on FSP
    python -m repro fsp-wildcard   # §6.3 wildcard experiment
    python -m repro pbft           # MAC-attack analysis + cluster impact
    python -m repro raft           # Raft follower ingress (9 seeded classes)
    python -m repro tpc            # two-phase commit (ack-without-WAL)
    python -m repro broadcast      # Bracha broadcast (7 seeded classes)
    python -m repro list           # show available experiments

    python -m repro trace summarize RUN/trace.jsonl  # inspect a trace
    python -m repro corpus run --variants 12       # scenario-matrix corpus

Each experiment is one row of ``_EXPERIMENTS``: a driver from
:mod:`repro.bench.experiments` and a printer for its outcome. The run
settings come from flags and become
:class:`~repro.achilles.AchillesConfig` fields, which that class's
docstring describes. Experiments and ``corpus run`` share these flags:
``--shards`` (the one parallelism knob: it partitions the server's path
tree across local worker processes; findings are byte-identical at any
count), ``--on-worker-loss`` (what a lost worker costs),
``--search-order/--max-paths`` (one exploration policy for both phases)
and ``--progress``.
Only experiments take ``--trace-dir`` and ``-v/-q``. A setting the
config rejects is reported on stderr, without a traceback, with exit
code 2.

A run keeps no durable state: the query cache and the sharded search's
progress live in memory for one run, and a killed run is simply run
again. With ``--on-worker-loss recover`` a killed shard worker no longer
aborts the run: the coordinator stops the other workers and finishes the
search in-process, and the findings stay byte-identical.

Observability: ``--trace-dir DIR`` records structured spans across the
coordinator, the shard workers and every solver layer, writing the
merged trace to ``DIR/trace.jsonl`` (``trace summarize`` prints span
statistics, ``trace export`` converts to Chrome trace-event JSON for
Perfetto). ``--progress`` prints a live one-line fleet status to stderr
while the search runs. ``--verbose``/``--quiet`` move the ``repro``
logger's threshold (worker loss and recovery notices). All of
it is observational: findings are byte-identical with everything on or
off.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from functools import partial

from repro.bench.experiments import (
    run_accuracy,
    run_corpus,
    run_fsp_wildcard,
    run_pbft_impact,
    run_toy,
)
from repro.bench.tables import format_table
from repro.errors import ReproError
from repro.symex.engine import EngineConfig


def _print_toy(report) -> int:
    from repro.systems.toy import TOY_LAYOUT

    rows = [[f.server_path_id, f.witness.hex(),
             str(f.witness_fields(TOY_LAYOUT))] for f in report.findings]
    print(format_table(["path", "witness", "fields"], rows,
                       title=f"{report.trojan_count} Trojan finding(s) "
                             f"in {report.timings.total:.2f}s"))
    _report_health(report)
    return 0


def _print_fsp(outcome) -> int:
    print(format_table(
        ["metric", "paper", "here"],
        [["true positives", 80, outcome.true_positives],
         ["false positives", 0, outcome.false_positives],
         ["classes", "80/80",
          f"{outcome.classes_found}/{outcome.classes_total}"],
         ["time", "1h03", f"{outcome.report.timings.total:.1f}s"]],
        title="FSP accuracy (Table 1, Achilles column)"))
    _report_health(outcome.report)
    return 0 if outcome.false_positives == 0 else 1


def _print_fsp_wildcard(report) -> int:
    from repro.systems.fsp import FSP_LAYOUT

    buf = FSP_LAYOUT.view("buf")
    wildcard = [w for w in report.witnesses()
                if any(b in (42, 63) for b in w[buf.offset:buf.end])]
    print(f"findings: {report.trojan_count}; wildcard witnesses: "
          f"{len(wildcard)}")
    for witness in wildcard[:5]:
        path = bytes(witness[buf.offset:buf.end]).split(b"\x00")[0]
        print(f"  Trojan path: {path!r}")
    _report_health(report)
    return 0 if wildcard else 1


def _print_pbft(outcome) -> int:
    print(f"findings: {outcome.report.trojan_count} "
          f"(MAC != {outcome.mac_stub.hex()}) in "
          f"{outcome.report.timings.total:.2f}s")
    rows = [[label, stats.committed, stats.view_changes,
             f"{stats.throughput:.4f}"]
            for label, stats in outcome.impact.items()]
    print(format_table(["workload", "committed", "view changes",
                        "throughput"], rows, title="MAC attack impact"))
    _report_health(outcome.report)
    return 0


def _print_scored(title: str, system: str, outcome) -> int:
    """Printer of a :func:`run_accuracy` row: the accuracy table, run
    health, and each finding's Trojan class."""
    total = outcome.classes_total
    print(format_table(
        ["metric", "seeded", "here"],
        [["true positives", f">= {total}", outcome.true_positives],
         ["false positives", 0, outcome.false_positives],
         ["classes", f"{total}/{total}", f"{outcome.classes_found}/{total}"],
         ["precision", "1.00", f"{outcome.precision:.2f}"],
         ["recall", "1.00", f"{outcome.recall:.2f}"],
         ["time", "-", f"{outcome.report.timings.total:.1f}s"]],
        title=title))
    _report_health(outcome.report)
    classify = importlib.import_module(
        f"repro.systems.{system}").classify_message
    for finding in outcome.report.findings:
        print(f"  {classify(finding.witness)}  "
              f"wire={finding.witness.hex()}")
    return 0 if outcome.precision == 1.0 and outcome.recall == 1.0 else 1


def _print_broadcast(outcome) -> int:
    from repro.systems.broadcast import run_forged_delivery_demo

    code = _print_scored("Bracha broadcast node vs seeded ground truth",
                         "broadcast", outcome)
    demo = run_forged_delivery_demo()
    print(f"concrete impact: buggy node delivered "
          f"{demo.delivered:#04x} from a forged slot; strict control "
          f"node delivered {demo.control_delivered}")
    return code


def _report_health(report) -> None:
    """Robustness/observability counters after the experiment tables.

    Surfaces what the run survived (worker deaths) and what it cost
    (solver queries, recovery time) in one scannable block.
    The cache hit rate counts only lookups that reach the query cache,
    and counts phase 1's (client extraction) with the search's: the
    Trojan observer's prefix trie answers replayed server prefixes, and
    decides most fresh ones, before any lookup. FSP shows 18.2% (222 of
    1,221 lookups), of which phase 1 makes 160 lookups with 140 hits;
    the search alone hits 82 of 1,061 (7.7%), where a trie-less search
    read ~97.5%.
    """
    queries = report.cache_hits + report.cache_misses
    hit_rate = f"{report.cache_hits / queries:.1%}" if queries else "n/a"
    rows = [("solver queries", report.solver_queries),
            ("cache hit rate", hit_rate),
            ("worker failures", report.worker_failures),
            ("recovery seconds", f"{report.recovery_seconds:.2f}")]
    print("run health:")
    for name, value in rows:
        print(f"  {name:20} {value}")


#: name -> (description, driver, printer). A driver takes the run
#: settings as AchillesConfig keywords and returns an outcome; the
#: printer prints that outcome and returns the exit code.
_EXPERIMENTS = {
    "toy": ("the §2.1 working example", run_toy, _print_toy),
    "fsp": ("Table 1 accuracy run on FSP", partial(run_accuracy, "fsp"),
            _print_fsp),
    "fsp-wildcard": ("§6.3 wildcard experiment", run_fsp_wildcard,
                     _print_fsp_wildcard),
    "pbft": ("MAC-attack analysis + cluster impact", run_pbft_impact,
             _print_pbft),
    "raft": ("Raft follower ingress vs 9 seeded Trojan classes",
             partial(run_accuracy, "raft"),
             partial(_print_scored,
                     "Raft follower ingress vs seeded ground truth",
                     "raft")),
    "tpc": ("two-phase commit: ack-without-WAL + empty-op prepare",
            partial(run_accuracy, "tpc"),
            partial(_print_scored,
                    "Two-phase-commit participant vs seeded ground truth",
                    "tpc")),
    "broadcast": ("Bracha broadcast: forged-sender SEND + thin-quorum READY",
                  partial(run_accuracy, "broadcast"), _print_broadcast),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _settings_parser() -> argparse.ArgumentParser:
    """The run-settings flags experiments and ``corpus run`` share."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--shards", type=int, default=1,
                        help="exploration shard processes for the server "
                             "search (default: 1, one in-process walk; "
                             "findings are identical at any shard count)")
    parser.add_argument("--on-worker-loss", choices=["fail", "recover"],
                        default="fail",
                        help="policy when a shard worker dies silently "
                             "mid-run (default: fail loudly naming the "
                             "lost assignment; recover stops the other "
                             "workers and finishes the search in-process "
                             "— findings are identical either way)")
    parser.add_argument("--search-order", choices=["dfs", "bfs"],
                        default=None,
                        help="exploration worklist order (default: the "
                             "engine default, dfs)")
    parser.add_argument("--max-paths", type=_positive_int, default=None,
                        help="cap on completed paths per exploration "
                             "(default: the engine default)")
    parser.add_argument("--progress", action="store_true",
                        help="print a live one-line fleet status to "
                             "stderr while the search runs (paths= counts "
                             "executed paths, pruned ones included)")
    return parser


def _settings(args: argparse.Namespace) -> dict:
    """The shared flags as AchillesConfig keywords."""
    engine = EngineConfig()
    if args.search_order is not None:
        engine.search_order = args.search_order
    if args.max_paths is not None:
        engine.max_paths = args.max_paths
    return dict(
        shards=args.shards, on_worker_loss=args.on_worker_loss,
        client_engine=engine, server_engine=engine, progress=args.progress)


def _run_trace(argv: list[str]) -> int:
    """The ``trace`` subcommand: inspect/convert a recorded trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Inspect a trace recorded with --trace-dir. "
                    "'summarize' prints per-span statistics and the "
                    "metrics trailer; 'export' converts the trace to "
                    "Chrome trace-event JSON (open in Perfetto or "
                    "chrome://tracing). A trace is JSON Lines; a "
                    "damaged one salvages the records before its first "
                    "bad line.")
    parser.add_argument("action", choices=["summarize", "export"],
                        help="print span statistics, or convert to "
                             "Chrome trace-event JSON")
    parser.add_argument("path", metavar="TRACE",
                        help="the trace.jsonl a run wrote under "
                             "--trace-dir (the directory itself also "
                             "works)")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="output file for 'export' (default: the "
                             "trace path with a .chrome.json suffix)")
    args = parser.parse_args(argv)
    import json
    from pathlib import Path

    from repro.obs.trace import (
        TRACE_FILE_NAME,
        format_summary,
        read_trace,
        summarize,
        to_chrome_trace,
    )

    path = Path(args.path)
    if path.is_dir():
        path = path / TRACE_FILE_NAME
    try:
        trace = read_trace(path)
    except OSError as exc:
        print(f"cannot read trace {path}: {exc}", file=sys.stderr)
        return 1
    if args.action == "summarize":
        print(format_summary(summarize(trace.records),
                             damaged=trace.damaged, reason=trace.reason))
        return 0
    if trace.damaged:
        # A torn tail (crashed run, interrupted copy) still leaves a
        # usable prefix; export it rather than fail, but say so.
        print(f"warning: trace {path} is damaged ({trace.reason}); "
              f"exporting the salvaged prefix of "
              f"{len(trace.records)} record(s)", file=sys.stderr)
    chrome = to_chrome_trace(trace.records)
    out = Path(args.output) if args.output else path.with_suffix(
        ".chrome.json")
    out.write_text(json.dumps(chrome))
    print(f"wrote {len(chrome['traceEvents'])} event(s) to {out}")
    return 0


def _run_corpus(argv: list[str]) -> int:
    """The ``corpus`` subcommand: scenario-matrix generation + scoring."""
    parser = argparse.ArgumentParser(
        prog="python -m repro corpus", parents=[_settings_parser()],
        description="Generate a corpus of randomized seeded-bug system "
                    "variants from the registered templates and score a "
                    "full Achilles hunt on each against the variant's "
                    "derived ground truth. 'run' generates and scores "
                    "(exit 0 only when every variant reaches precision "
                    "== recall == 1.0); 'report' re-renders a JSON file "
                    "a previous run wrote with --out. Every variant is "
                    "reproducible from its printed TEMPLATE:SEED token "
                    "alone via --variant.")
    parser.add_argument("action", choices=["run", "report"],
                        help="run a corpus, or re-render a saved report")
    parser.add_argument("path", nargs="?", metavar="REPORT",
                        help="for 'report': the JSON file a run wrote "
                             "with --out")
    parser.add_argument("--variants", type=int, default=12, metavar="N",
                        help="how many systems to generate (default: 12, "
                             "round-robin across the templates)")
    parser.add_argument("--corpus-seed", type=int, default=0, metavar="S",
                        help="run-level seed every variant derives from "
                             "(default: 0); recorded in the report so "
                             "any row reproduces from print-out alone")
    parser.add_argument("--templates", default="", metavar="NAME[,...]",
                        help="template subset to draw from (default: "
                             "all registered templates)")
    parser.add_argument("--variant", action="append", default=[],
                        metavar="TEMPLATE:SEED",
                        help="skip generation and score exactly this "
                             "variant token (repeatable) — the "
                             "reproduce-one-failing-row path")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the deterministic JSON report "
                             "here (byte-identical across runs of the "
                             "same seed)")
    args = parser.parse_args(argv)
    import json
    from pathlib import Path

    from repro.corpus import corpus_payload, dump_payload, render_payload

    if args.action == "report":
        if not args.path:
            parser.error("'report' needs the JSON file a corpus run "
                         "wrote with --out")
        try:
            payload = json.loads(Path(args.path).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read corpus report {args.path}: {exc}",
                  file=sys.stderr)
            return 1
        print(render_payload(payload))
        return 0 if payload.get("all_perfect") else 1

    templates = tuple(t.strip() for t in args.templates.split(",")
                      if t.strip())
    outcome = run_corpus(
        corpus_seed=args.corpus_seed, variants=args.variants,
        templates=templates or None, only=tuple(args.variant),
        **_settings(args))
    payload = corpus_payload(outcome)
    seconds = {result.variant.token: result.outcome.report.timings.total
               for result in outcome.results}
    print(render_payload(payload, seconds))
    if args.out:
        Path(args.out).write_text(dump_payload(payload))
        print(f"wrote corpus report to {args.out}")
    return 0 if outcome.perfect else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except ReproError as exc:
        # A setting the run rejects (or a malformed corpus token) is bad
        # input, not a crash: say what is wrong, without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str]) -> int:
    if argv[:1] == ["trace"]:
        return _run_trace(argv[1:])
    if argv[:1] == ["corpus"]:
        return _run_corpus(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro", parents=[_settings_parser()],
        description="Run Achilles reproduction experiments "
                    "('python -m repro trace --help' for the trace "
                    "inspector, 'python -m repro corpus --help' for the "
                    "scenario-matrix corpus).")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["list", "trace",
                                                        "corpus"],
                        help="experiment to run, 'list', 'trace' (trace "
                             "inspector), or 'corpus' (scenario-matrix "
                             "corpus)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="record structured spans (coordinator, "
                             "workers, every solver layer) and write the "
                             "merged trace to DIR/trace.jsonl; inspect "
                             "with 'python -m repro trace'")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="raise repro logger verbosity (repeatable: "
                             "-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors (hides worker loss and "
                             "recovery warnings)")
    args = parser.parse_args(argv)
    from repro.obs.log import configure

    configure(verbosity=-1 if args.quiet else args.verbose)
    if args.experiment == "list":
        for name, (description, _, _) in sorted(_EXPERIMENTS.items()):
            print(f"{name:14} {description}")
        print("trace          trace inspector/exporter "
              "(python -m repro trace --help)")
        print("corpus         scenario-matrix corpus runner "
              "(python -m repro corpus --help)")
        return 0
    _, driver, printer = _EXPERIMENTS[args.experiment]
    return printer(driver(**_settings(args), trace_dir=args.trace_dir))


if __name__ == "__main__":
    sys.exit(main())
