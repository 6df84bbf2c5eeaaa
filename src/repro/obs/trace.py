"""Low-overhead structured tracing for analysis runs.

A :class:`Tracer` records *spans* (named, timed, nestable regions) and
*point events* into an in-memory buffer. Tracing is off unless a run
activates the module-global tracer; every instrumented call site guards
on ``trace.active is None``, so the disabled cost is one module
attribute load and a pointer comparison.

Hot solver layers fire hundreds of thousands of spans per run, far more
than a readable trace wants. Each span name therefore has a recording
*budget*: the first :data:`DEFAULT_SPAN_BUDGET` occurrences are kept as
individual spans, the rest are folded into one aggregate record per
name (count + total duration), so the trace stays bounded while the
aggregates still account for all the time.

Workers trace locally and ship a picklable :class:`TraceDelta` home on
the result frame of each assignment; the coordinator merges its own
records with every worker's deltas in a deterministic order (coordinator
first, then workers by id, each in local sequence order), so the merged
trace file is stable regardless of message arrival order or shard
count.

The on-disk format is plain JSON Lines: one compact, key-sorted JSON
object per line, written whole to a temp file and renamed into place, so
``jq`` and ``head`` read it directly. A reader keeps every record before
the first line that is not one complete JSON object (a torn final line
included) and flags the file as damaged.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import metrics as obs_metrics

#: File name used for merged traces inside a trace directory.
TRACE_FILE_NAME = "trace.jsonl"

#: Individually recorded spans per name before aggregation kicks in.
DEFAULT_SPAN_BUDGET = 512

#: Hard cap on buffered records per tracer (backstop, not a tuning knob).
MAX_RECORDS = 200_000

#: The module-global active tracer. ``None`` means tracing is off; hot
#: call sites read this exact attribute, so rebinding here is the whole
#: on/off switch.
active: "Tracer | None" = None


def activate(source: str = "coordinator", *,
             span_budget: int = DEFAULT_SPAN_BUDGET) -> "Tracer":
    """Turn tracing on (idempotent) and return the active tracer."""
    global active
    if active is None:
        active = Tracer(source=source, span_budget=span_budget,
                        metrics=obs_metrics.activate())
    return active


def deactivate() -> "Tracer | None":
    """Turn tracing off; returns the tracer that was active, if any."""
    global active
    tracer, active = active, None
    obs_metrics.deactivate()
    return tracer


@dataclass(frozen=True)
class TraceDelta:
    """A worker's trace records for one assignment, shipped on its
    result message. Plain tuples/dicts of JSON-able values, so it
    pickles through the worker's result queue."""

    source: str
    records: tuple = ()
    dropped: int = 0
    metrics: dict | None = None


class Tracer:
    """Buffers spans and events; near-zero cost when not active."""

    def __init__(self, source: str = "coordinator", *,
                 span_budget: int = DEFAULT_SPAN_BUDGET,
                 metrics: "obs_metrics.MetricsRegistry | None" = None):
        self.source = source
        self.span_budget = span_budget
        self.metrics = metrics
        self.records: list[dict] = []
        self.dropped = 0
        self._seq = 0
        self._depth = 0
        self._name_counts: dict[str, int] = {}
        self._overflow: dict[str, list] = {}  # name -> [count, total_dur]

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a named region. Nesting is tracked via a depth field;
        the Chrome exporter reconstructs the flame from ts/dur."""
        depth = self._depth
        self._depth = depth + 1
        wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._depth = depth
            self._finish_span(name, wall, duration, depth, attrs)

    def _finish_span(self, name, wall, duration, depth, attrs) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.observe(name, duration)
        used = self._name_counts.get(name, 0)
        if used < self.span_budget and len(self.records) < MAX_RECORDS:
            self._name_counts[name] = used + 1
            record = {"seq": self._seq, "kind": "span", "name": name,
                      "ts": wall, "dur": duration, "depth": depth,
                      "src": self.source}
            if attrs:
                record["attrs"] = attrs
            self.records.append(record)
            self._seq += 1
        else:
            slot = self._overflow.get(name)
            if slot is None:
                self._overflow[name] = [1, duration]
            else:
                slot[0] += 1
                slot[1] += duration

    def event(self, name: str, **attrs) -> None:
        """Record a point event (no duration)."""
        if len(self.records) >= MAX_RECORDS:
            self.dropped += 1
            return
        record = {"seq": self._seq, "kind": "event", "name": name,
                  "ts": time.time(), "depth": self._depth,
                  "src": self.source}
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        self._seq += 1

    # -- snapshotting --------------------------------------------------

    def flush_aggregates(self) -> None:
        """Fold over-budget span tallies into ``agg`` records and reset
        the per-name budgets (so e.g. each assignment gets fresh ones)."""
        for name in sorted(self._overflow):
            count, total = self._overflow[name]
            self.records.append({
                "seq": self._seq, "kind": "agg", "name": name,
                "ts": time.time(), "src": self.source,
                "attrs": {"count": count, "total_dur": total},
            })
            self._seq += 1
        self._overflow.clear()
        self._name_counts.clear()

    def take_delta(self) -> TraceDelta:
        """Drain buffered records into a shippable delta. The sequence
        counter keeps running, so successive deltas from one tracer
        stay totally ordered."""
        self.flush_aggregates()
        metrics = self.metrics.drain() if self.metrics is not None else None
        delta = TraceDelta(source=self.source,
                           records=tuple(self.records),
                           dropped=self.dropped, metrics=metrics)
        self.records = []
        self.dropped = 0
        return delta


# -- merging -----------------------------------------------------------


def merge_traces(coordinator_records,
                 worker_deltas: dict[int, list] | None = None,
                 extra_records=()) -> list[dict]:
    """Deterministically merge coordinator records with worker deltas.

    Order is: coordinator records (local order), then workers by id,
    each worker's deltas in arrival order (per-worker arrival order is
    deterministic — result frames are FIFO per worker), records inside a
    delta in local order. Sequence numbers are renumbered per source, so
    two deltas that each restart their counter cannot collide. The output
    is therefore identical however the deltas interleaved in real time.
    """
    merged: list[dict] = []
    for seq, record in enumerate(coordinator_records):
        out = dict(record)
        out["src"] = "coordinator"
        out["seq"] = seq
        merged.append(out)
    for wid in sorted(worker_deltas or ()):
        seq = 0
        for delta in worker_deltas[wid]:
            for record in delta.records:
                out = dict(record)
                out["src"] = f"worker-{wid}"
                out["seq"] = seq
                seq += 1
                merged.append(out)
    merged.extend(dict(record) for record in extra_records)
    return merged


def metrics_record(snapshot: dict) -> dict:
    """A trailer record carrying the merged metrics snapshot."""
    return {"kind": "metrics", "name": "metrics", "src": "coordinator",
            "ts": time.time(), "attrs": snapshot}


# -- file I/O ----------------------------------------------------------


@dataclass
class TraceFile:
    """A parsed trace file: the records before the first bad line, and
    whether (and why) the scan stopped early."""

    records: list[dict] = field(default_factory=list)
    damaged: bool = False
    reason: str | None = None


def write_trace(path, records) -> Path:
    """Write records as JSON Lines: temp file, then atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".tmp-{path.name}.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
    os.replace(tmp, path)
    return path


def _parse_line(line: bytes) -> dict | None:
    """The JSON object on one line, or None if the line is not one."""
    try:
        record = json.loads(line)
    except ValueError:  # includes JSONDecodeError and UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None


def read_trace(path) -> TraceFile:
    """Read a trace file, salvaging the records before any damage."""
    lines = Path(path).read_bytes().split(b"\n")
    # Whatever follows the last newline is a line the writer never
    # finished: empty for a whole file, a torn record otherwise.
    tail = lines.pop()
    trace = TraceFile()
    for number, line in enumerate(lines, 1):
        record = _parse_line(line)
        if record is None:
            trace.damaged = True
            trace.reason = f"line {number} is not a JSON object"
            return trace
        trace.records.append(record)
    if tail:
        trace.damaged = True
        trace.reason = f"line {len(lines) + 1} has no final newline"
    return trace


# -- Chrome trace-event export ----------------------------------------


def _thread_ids(records) -> dict[str, int]:
    """Stable tid per source: coordinator first, workers by id."""
    sources = {record.get("src", "coordinator") for record in records}
    ordered = sorted(sources, key=lambda s: (s != "coordinator", s))
    return {source: tid for tid, source in enumerate(ordered)}

def to_chrome_trace(records) -> dict:
    """Records -> Chrome trace-event JSON (the Perfetto/chrome://tracing
    format): one pid, one tid per source, ``X`` complete events for
    spans, ``i`` instants for events, timestamps normalized to the run
    start in microseconds."""
    tids = _thread_ids(records)
    timestamps = [r["ts"] for r in records if "ts" in r]
    base = min(timestamps) if timestamps else 0.0
    events = [
        {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
         "args": {"name": source}}
        for source, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    for record in records:
        tid = tids[record.get("src", "coordinator")]
        kind = record.get("kind", "span")
        ts = (record.get("ts", base) - base) * 1e6
        args = dict(record.get("attrs", ()))
        if kind == "span":
            events.append({"ph": "X", "pid": 1, "tid": tid,
                           "name": record["name"], "cat": "span",
                           "ts": ts, "dur": record.get("dur", 0.0) * 1e6,
                           "args": args})
        elif kind == "agg":
            args.setdefault("note", "aggregate of over-budget spans")
            events.append({"ph": "i", "pid": 1, "tid": tid, "s": "t",
                           "name": f"{record['name']} (agg)",
                           "cat": "agg", "ts": ts, "args": args})
        elif kind == "event":
            events.append({"ph": "i", "pid": 1, "tid": tid, "s": "t",
                           "name": record["name"], "cat": "event",
                           "ts": ts, "args": args})
        elif kind == "metrics":
            events.append({"ph": "i", "pid": 1, "tid": tid, "s": "g",
                           "name": "metrics", "cat": "metrics",
                           "ts": ts, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- summaries ---------------------------------------------------------


def summarize(records) -> dict:
    """Aggregate a trace: per-source record counts, per-name span stats
    (individual spans plus their over-budget aggregates), event counts,
    and the metrics trailer if present."""
    sources: dict[str, int] = {}
    spans: dict[str, dict] = {}
    events: dict[str, int] = {}
    metrics: dict = {}
    for record in records:
        source = record.get("src", "coordinator")
        sources[source] = sources.get(source, 0) + 1
        kind = record.get("kind", "span")
        if kind == "span":
            stat = spans.setdefault(record["name"],
                                    {"count": 0, "total_s": 0.0, "max_s": 0.0})
            stat["count"] += 1
            stat["total_s"] += record.get("dur", 0.0)
            stat["max_s"] = max(stat["max_s"], record.get("dur", 0.0))
        elif kind == "agg":
            attrs = record.get("attrs", {})
            stat = spans.setdefault(record["name"],
                                    {"count": 0, "total_s": 0.0, "max_s": 0.0})
            stat["count"] += attrs.get("count", 0)
            stat["total_s"] += attrs.get("total_dur", 0.0)
        elif kind == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
        elif kind == "metrics":
            metrics = obs_metrics.merge_snapshots(metrics,
                                                  record.get("attrs", {}))
    return {"records": len(records), "sources": sources, "spans": spans,
            "events": events, "metrics": metrics}


def format_summary(summary: dict, *, damaged: bool = False,
                   reason: str | None = None) -> str:
    """Human-readable rendering of :func:`summarize` output."""
    lines = [f"records: {summary['records']}"]
    if damaged:
        lines.append(f"damaged tail salvaged ({reason})")
    lines.append("sources:")
    for source in sorted(summary["sources"]):
        lines.append(f"  {source}: {summary['sources'][source]} records")
    if summary["spans"]:
        lines.append("spans (name, count, total, max):")
        by_total = sorted(summary["spans"].items(),
                          key=lambda kv: -kv[1]["total_s"])
        for name, stat in by_total:
            lines.append(f"  {name}: {stat['count']}"
                         f"  total {stat['total_s'] * 1e3:.1f}ms"
                         f"  max {stat['max_s'] * 1e3:.2f}ms")
    if summary["events"]:
        lines.append("events:")
        for name in sorted(summary["events"]):
            lines.append(f"  {name}: {summary['events'][name]}")
    counters = summary.get("metrics", {}).get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
    return "\n".join(lines)
