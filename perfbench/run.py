"""Trojan-hunt benchmark: whole hunts, timed the way a tester runs them.

Run from the repository root::

    python3 perfbench/run.py --workload fsp-table1 --seed 1 --seconds 38 --trace 0

Load is a closed loop: one hunt at a time in one process, each hunt
(``Achilles`` -> ``extract_clients`` -> ``search``) starting when the
previous one ends. Every hunt's verdict is checked against the
workload's oracle (see ``workloads.py``). A run takes about ``--seconds``
in all, set-up and fresh processes included.

``--trace 0`` reports the end-to-end metrics. The benchmark shares its
cores with other tenants, whose load slows every Python program on the
host by up to about 2x for minutes at a time. So the benchmark times a
fixed pure-Python reference loop (:func:`reference_s`) before and after
the hunts, and reports every time scaled to the host speed at which that
loop takes :data:`REFERENCE_S`: a hunt's wall time is multiplied by
``REFERENCE_S`` over the mean of the reference times around it. The
unscaled medians are printed above the result line. Set-up and the cold
first hunt are timed in this fresh process and in more fresh processes
(``workloads.FRESH_PROCESSES`` in all), and their medians reported.

``--trace 1`` reports the per-layer metrics instead: hunts run in
untraced/traced pairs on the same input, the traced one with the layer
wrappers of ``layers.py`` installed, and the ratio of their wall times is
the tracing overhead.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it stamps the run.
"""

import time

STARTED = time.perf_counter()  # set-up time includes every import

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds a set-up probe process may take before the run fails.
PROBE_TIMEOUT = 60

#: Warm hunts a run makes however slow the host, before whole passes
#: over the inputs.
MIN_WARM_HUNTS = 5

#: Iterations of the reference loop, and the seconds it takes at the
#: reference host speed (about an unloaded 2 GHz Xeon core, Python 3.11).
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.0125
#: Seconds of hunting between reference timings; shorter hunts share one.
REFERENCE_EVERY_S = 0.25

#: Percentiles tried for ``hunt_s.tail``, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cases = workloads.setup(args.workload, args.seed)
    cold_cases = cases[:workloads.COLD_HUNTS[args.workload]]
    first = workloads.new_achilles(cold_cases[0])
    setup_wall = time.perf_counter() - STARTED
    before = reference_s()
    colds = [workloads.run_hunt(cold_cases[0], first)]
    colds += [workloads.run_hunt(case) for case in cold_cases[1:]]
    cold_wall = statistics.mean(hunt.wall_s for hunt in colds)
    after = reference_s()
    setup_s = setup_wall * REFERENCE_S / before
    cold_s = cold_wall * REFERENCE_S / ((before + after) / 2)
    if args.setup_probe:
        print(json.dumps({
            "setup_s": setup_s, "cold_hunt_s": cold_s,
            "hunts": [[hunt.digest, hunt.error] for hunt in colds]}))
        return 0

    run = Run(cases, first_case=len(cold_cases))
    for hunt in colds:
        run.record(hunt)
    # A fresh process costs about what this one has cost so far.
    process_s = time.perf_counter() - STARTED
    if args.trace:
        metrics = run.traced(args.seconds - process_s)
    else:
        probes = workloads.FRESH_PROCESSES[args.workload] - 1
        metrics = run.untraced(args.seconds - process_s * (1 + probes))
        metrics.update(run.fresh_processes(setup_s, cold_s, probes, args))
        metrics["hunts_ok_ratio"] = (
            (run.attempted - run.failed) / run.attempted, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"  {name:20s} {value:12.6g} {unit}")
    correct = not run.errors
    for error in run.errors[:10]:
        print(f"FAILED: {error}")
    stamp = {"workload": args.workload, "seed": args.seed,
             "run_seconds": args.seconds, "trace": args.trace,
             "nproc": len(os.sched_getaffinity(0)),
             "python": sys.version.split()[0], "git_sha": git_sha()}
    print("stamp: " + json.dumps(stamp))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(REFERENCE_LOOPS):
        total += index * 3 % 7
        table[index & 1023] = total
    return time.perf_counter() - started


class Run:
    """Hunts of one benchmark run, their failures, and the digests seen."""

    def __init__(self, cases: list[workloads.Case], first_case: int):
        self.cases = cases
        self.first_case = first_case
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, hunt: workloads.Hunt) -> workloads.Hunt:
        self.attempted += 1
        label = hunt.case.label
        if hunt.error is None:
            seen = self.digests.setdefault(label, hunt.digest)
            if seen != hunt.digest:
                hunt.error = (f"findings digest {hunt.digest} differs from "
                              f"this run's earlier {seen}")
        if hunt.error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {hunt.error}")
        return hunt

    def case(self, index: int) -> workloads.Case:
        # Later hunts cycle on from the case after the cold hunts.
        return self.cases[(self.first_case + index) % len(self.cases)]

    def untraced(self, seconds: float) -> dict:
        """Closed loop of warm hunts for ``seconds``, in whole passes."""
        # Per hunt: wall, first finding, index of the reference before it.
        hunts: list[tuple[float, float | None, int]] = []
        references = [reference_s()]
        since_reference = 0.0
        least = max(MIN_WARM_HUNTS, len(self.cases))
        started = time.perf_counter()
        while (len(hunts) < least or len(hunts) % len(self.cases)
               or time.perf_counter() - started < seconds):
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference_s())
                since_reference = 0.0
            hunt = self.record(workloads.run_hunt(self.case(len(hunts))))
            hunts.append((hunt.wall_s, hunt.first_finding_s,
                          len(references) - 1))
            since_reference += hunt.wall_s
        references.append(reference_s())
        elapsed = time.perf_counter() - started
        scales = [REFERENCE_S / ((references[index]
                                  + references[index + 1]) / 2)
                  for _, _, index in hunts]
        walls = [wall * scale for (wall, _, _), scale in zip(hunts, scales)]
        firsts = [first * scale for (_, first, _), scale in zip(hunts, scales)
                  if first is not None]
        percentile, tail_s = tail(walls)
        print(f"{len(hunts)} warm hunts in {elapsed:.2f}s "
              f"({len(hunts) / elapsed:.4g} hunts/s); unscaled hunt_s.p50 "
              f"{statistics.median(wall for wall, _, _ in hunts):.4f}; "
              f"median reference loop {statistics.median(references):.5f}s; "
              f"hunt_s.tail is the p{percentile:g}")
        # Read before any probe process exists: the children counted are
        # the shard workers, of which ``shards`` run at once.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        shards = self.cases[0].config.shards
        if shards > 1:
            peak_kb += shards * resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "hunt_s.p50": (statistics.median(walls), "s"),
            "hunt_s.tail": (tail_s, "s"),
            # No hunt without a finding passes its check, so an empty
            # list only comes with a failed run.
            "first_finding_s.p50": (statistics.median(firsts or [0.0]), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    def fresh_processes(self, setup_s: float, cold_s: float, probes: int,
                        args) -> dict:
        """Median set-up and cold-hunt time over this and ``probes`` fresh
        processes; each probe's digests are checked against this run's."""
        setups = [setup_s]
        colds = [cold_s]
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", "0", "--setup-probe"]
        for index in range(1, probes + 1):
            try:
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, timeout=PROBE_TIMEOUT)
                probe = json.loads(done.stdout.strip().splitlines()[-1])
            except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"set-up probe {index} failed: {exc!r}")
                continue
            hunts = [self.record(workloads.Hunt(
                case=self.cases[case], wall_s=0.0, digest=digest,
                error=error)) for case, (digest, error) in enumerate(
                    probe["hunts"])]
            if all(hunt.error is None for hunt in hunts):
                setups.append(probe["setup_s"])
                colds.append(probe["cold_hunt_s"])
        return {"setup_s": (statistics.median(setups), "s"),
                "cold_hunt_s": (statistics.median(colds), "s")}

    def traced(self, seconds: float) -> dict:
        """Untraced/traced hunt pairs on the same input for ``seconds``."""
        tracer = layers.Tracer()
        plain_s = traced_s = 0.0
        pairs = 0
        started = time.perf_counter()
        while not pairs or time.perf_counter() - started < seconds:
            case = self.case(pairs)
            # Alternate which of the pair goes first, so warming one
            # input's memos favours neither side.
            for with_trace in (pairs % 2 == 1, pairs % 2 == 0):
                if not with_trace:
                    plain_s += self.record(workloads.run_hunt(case)).wall_s
                    continue
                with tracer.installed(), tracer.hunt():
                    hunt = workloads.run_hunt(case)
                traced_s += self.record(hunt).wall_s
                if hunt.report is not None:
                    cache = hunt.achilles.query_cache
                    tracer.add("cache.lookups", cache.stats.queries)
                    tracer.add("cache.hits", cache.stats.hits)
                    tracer.add("cache.entries", len(cache))
                    tracer.add("solver.queries", hunt.report.solver_queries)
                    tracer.add("incremental.frames_reused",
                               hunt.report.frames_reused)
            pairs += 1
        self.errors.extend(tracer.errors)
        values = tracer.metrics(overhead_ratio=traced_s / plain_s)
        print(f"{pairs} untraced/traced hunt pairs; per-layer values are "
              "per traced hunt")
        for name, value in values.items():
            moves = layers.MOVES.get(name)
            target = f"  -> {moves[0]} on {moves[1]}" if moves else ""
            print(f"  {name:34s} {value:14.6g} {layers.METRICS[name]:5s}"
                  f"{target}")
        return {name: (value, layers.METRICS[name])
                for name, value in values.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles from :data:`TAIL_PERCENTILES`; the median
    when there are too few samples for any of them.
    """
    ordered = sorted(values)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
