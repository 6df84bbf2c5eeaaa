"""The tracer: spans, budgets, deltas, deterministic merge, file I/O.

Determinism is the load-bearing property: merged traces must come out
identical however worker deltas interleaved in real time. The file is
plain JSON Lines, and a damaged one salvages the records before its
first bad line.
"""

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import (
    TraceDelta,
    Tracer,
    format_summary,
    merge_traces,
    metrics_record,
    read_trace,
    summarize,
    to_chrome_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests that activate the module global must not leak it."""
    obs_trace.deactivate()
    yield
    obs_trace.deactivate()


class TestActivation:
    def test_off_by_default(self):
        assert obs_trace.active is None
        assert obs_metrics.active is None

    def test_activate_is_idempotent(self):
        first = obs_trace.activate(source="coordinator")
        assert obs_trace.activate() is first
        assert first.metrics is obs_metrics.active

    def test_deactivate_returns_the_tracer_and_clears_metrics(self):
        tracer = obs_trace.activate()
        assert obs_trace.deactivate() is tracer
        assert obs_trace.active is None
        assert obs_metrics.active is None


class TestSpans:
    def test_span_records_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        # Spans close inner-first, so 'inner' lands before 'outer'.
        inner, outer = tracer.records
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert inner["attrs"] == {"detail": 1}
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert [r["seq"] for r in tracer.records] == [0, 1]

    def test_span_depth_recovers_after_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        with tracer.span("after"):
            pass
        assert [r["depth"] for r in tracer.records] == [0, 0]

    def test_events_are_points(self):
        tracer = Tracer()
        tracer.event("tick", n=3)
        (record,) = tracer.records
        assert record["kind"] == "event"
        assert "dur" not in record
        assert record["attrs"] == {"n": 3}

    def test_budget_folds_overflow_into_aggregates(self):
        tracer = Tracer(span_budget=2)
        for _ in range(5):
            with tracer.span("hot"):
                pass
        assert len(tracer.records) == 2
        tracer.flush_aggregates()
        agg = tracer.records[-1]
        assert agg["kind"] == "agg" and agg["name"] == "hot"
        assert agg["attrs"]["count"] == 3
        assert agg["attrs"]["total_dur"] >= 0.0

    def test_flush_resets_budgets(self):
        tracer = Tracer(span_budget=1)
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        tracer.flush_aggregates()
        with tracer.span("a"):  # fresh budget after the flush
            pass
        kinds = [r["kind"] for r in tracer.records]
        assert kinds == ["span", "agg", "span"]

    def test_span_feeds_metrics_histogram(self):
        registry = obs_metrics.MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("layer"):
            pass
        snap = registry.snapshot()
        assert snap["histograms"]["layer"]["count"] == 1


class TestDeltas:
    def test_take_delta_drains_and_keeps_seq_running(self):
        tracer = Tracer(source="worker")
        with tracer.span("one"):
            pass
        first = tracer.take_delta()
        with tracer.span("two"):
            pass
        second = tracer.take_delta()
        assert [r["name"] for r in first.records] == ["one"]
        assert [r["name"] for r in second.records] == ["two"]
        # The counter spans deltas: successive records stay ordered.
        assert second.records[0]["seq"] > first.records[0]["seq"]
        assert tracer.records == []

    def test_delta_ships_metrics_snapshot(self):
        registry = obs_metrics.MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("layer"):
            pass
        delta = tracer.take_delta()
        assert delta.metrics["histograms"]["layer"]["count"] == 1
        # drained: the next delta starts fresh
        assert tracer.take_delta().metrics["histograms"] == {}


def _delta(source, names, seq_start=0):
    records = tuple({"seq": seq_start + i, "kind": "event", "name": name,
                     "ts": float(i), "depth": 0, "src": source}
                    for i, name in enumerate(names))
    return TraceDelta(source=source, records=records)


class TestMerge:
    def test_merge_orders_coordinator_then_workers_by_id(self):
        coord = [{"seq": 5, "kind": "event", "name": "c0", "ts": 0.0,
                  "depth": 0, "src": "coordinator"}]
        deltas = {2: [_delta("worker", ["w2a"])],
                  0: [_delta("worker", ["w0a"]), _delta("worker", ["w0b"])]}
        merged = merge_traces(coord, deltas)
        assert [(r["src"], r["name"]) for r in merged] == [
            ("coordinator", "c0"), ("worker-0", "w0a"),
            ("worker-0", "w0b"), ("worker-2", "w2a")]
        # renumbered per source
        assert [r["seq"] for r in merged] == [0, 0, 1, 0]

    def test_merge_is_stable_under_delta_arrival_permutation(self):
        coord = [{"seq": 0, "kind": "event", "name": "seed", "ts": 0.0,
                  "depth": 0, "src": "coordinator"}]
        deltas = {0: [_delta("worker", ["a"])], 1: [_delta("worker", ["b"])]}
        permuted = {1: deltas[1], 0: deltas[0]}  # reversed insertion order
        assert merge_traces(coord, deltas) == merge_traces(coord, permuted)

    def test_restarted_seq_counters_cannot_collide(self):
        # Two deltas from the same wid both starting at seq 0 renumber
        # into one gapless range.
        deltas = {0: [_delta("worker", ["a", "b"], seq_start=0),
                      _delta("worker", ["c"], seq_start=0)]}
        merged = merge_traces([], deltas)
        assert [r["seq"] for r in merged] == [0, 1, 2]

    def test_extra_records_append_at_the_end(self):
        trailer = metrics_record({"counters": {"x": 1}})
        merged = merge_traces([], {}, extra_records=[trailer])
        assert merged[-1]["kind"] == "metrics"


class TestFileRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        records = merge_traces(
            [], {0: [_delta("worker", ["a", "b"])]},
            extra_records=[metrics_record({"counters": {"n": 2}})])
        path = write_trace(tmp_path / "run" / "trace.jsonl", records)
        loaded = read_trace(path)
        assert not loaded.damaged
        assert loaded.records == records

    def test_torn_trace_salvages_prefix(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records("a", "b", "c"))
        _truncate(path, 2)
        loaded = read_trace(path)
        assert loaded.damaged
        assert [r["name"] for r in loaded.records] == ["a", "b"]


def _records(*names):
    return [dict(r, seq=i) for i, r in enumerate(
        _delta("coordinator", names).records)]


def _truncate(path, drop_bytes):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - drop_bytes])


def _line(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


class TestJsonLines:
    """The trace file is plain JSON Lines: one compact, key-sorted object
    per line, readable by ``jq``/``head`` and by :func:`read_trace`."""

    def test_every_line_parses_and_there_is_no_header(self, tmp_path):
        records = _records("a", "b", "c")
        path = write_trace(tmp_path / "trace.jsonl", records)
        data = path.read_bytes()
        assert data.startswith(b"{")
        assert data.endswith(b"\n")
        lines = data.decode("ascii").splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_file_is_exactly_one_canonical_line_per_record(self, tmp_path):
        records = _records("b", "a")
        path = write_trace(tmp_path / "trace.jsonl", records)
        assert path.read_bytes() == b"".join(_line(r) for r in records)

    def test_records_round_trip_in_merge_order(self, tmp_path):
        deltas = {1: [_delta("worker", ["w1"])],
                  0: [_delta("worker", ["w0a", "w0b"])]}
        coordinator = _records("seed", "merge")
        records = merge_traces(
            coordinator, deltas,
            extra_records=[metrics_record({"counters": {"n": 1}})])
        loaded = read_trace(write_trace(tmp_path / "t.jsonl", records))
        assert [(r["src"], r["name"]) for r in loaded.records] == [
            ("coordinator", "seed"), ("coordinator", "merge"),
            ("worker-0", "w0a"), ("worker-0", "w0b"),
            ("worker-1", "w1"), ("coordinator", "metrics")]
        assert loaded.records == records

    @pytest.mark.parametrize("drop_bytes", [1, 2, 10])
    def test_truncated_last_line_keeps_the_preceding_records(
            self, tmp_path, drop_bytes):
        path = write_trace(tmp_path / "trace.jsonl", _records("a", "b", "c"))
        _truncate(path, drop_bytes)
        loaded = read_trace(path)
        assert loaded.damaged
        assert loaded.reason == "line 3 has no final newline"
        assert [r["name"] for r in loaded.records] == ["a", "b"]

    def test_missing_final_newline_drops_that_record(self, tmp_path):
        """A complete object without its newline is still a line the
        writer never finished."""
        path = write_trace(tmp_path / "trace.jsonl", _records("a", "b"))
        _truncate(path, 1)
        assert path.read_bytes().endswith(b"}")
        loaded = read_trace(path)
        assert loaded.damaged
        assert "no final newline" in loaded.reason
        assert [r["name"] for r in loaded.records] == ["a"]

    @pytest.mark.parametrize("garbage", [
        b"not json", b"", b"[1, 2]", b'"text"', b"{\"seq\": 1",
        b"\xff\xfe"], ids=["text", "blank", "array", "string",
                           "open-object", "invalid-utf8"])
    def test_garbage_middle_line_keeps_exactly_the_prefix(self, tmp_path,
                                                          garbage):
        a, b, c = _records("a", "b", "c")
        path = tmp_path / "trace.jsonl"
        path.write_bytes(_line(a) + _line(b) + garbage + b"\n" + _line(c))
        loaded = read_trace(path)
        assert loaded.damaged
        assert loaded.reason == "line 3 is not a JSON object"
        assert loaded.records == [a, b]

    def test_garbage_first_line_salvages_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"ACHSEG\x01\n" + _line(_records("a")[0]))
        loaded = read_trace(path)
        assert loaded.damaged
        assert loaded.records == []

    def test_empty_file_is_zero_records_and_not_damaged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        loaded = read_trace(path)
        assert loaded.records == []
        assert not loaded.damaged
        assert loaded.reason is None

    def test_no_records_write_an_empty_file(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", [])
        assert path.read_bytes() == b""
        assert not read_trace(path).damaged

    def test_rewrite_replaces_whole_and_leaves_no_temp_file(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records("a", "b", "c"))
        write_trace(path, _records("z"))
        assert [r["name"] for r in read_trace(path).records] == ["z"]
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_write_creates_the_directory(self, tmp_path):
        path = write_trace(tmp_path / "a" / "b" / "trace.jsonl",
                           _records("x"))
        assert path.exists()
        assert [p.name for p in path.parent.iterdir()] == ["trace.jsonl"]

    def test_strings_with_newlines_stay_on_one_line(self, tmp_path):
        record = dict(_records("multi")[0], attrs={"msg": "one\ntwo"})
        path = write_trace(tmp_path / "trace.jsonl", [record, record])
        assert path.read_bytes().count(b"\n") == 2
        assert read_trace(path).records == [record, record]


class TestChromeExport:
    def test_export_round_trips_through_json(self, tmp_path):
        tracer = Tracer(source="coordinator")
        with tracer.span("phase", shard=1):
            tracer.event("tick")
        records = merge_traces(tracer.records,
                               {1: [_delta("worker", ["w"])]},
                               extra_records=[metrics_record({})])
        chrome = json.loads(json.dumps(to_chrome_trace(records)))
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        names = {e["name"] for e in events}
        assert {"thread_name", "phase", "tick", "w", "metrics"} <= names
        meta = [e for e in events if e["ph"] == "M"]
        # coordinator is tid 0, workers follow in sorted order
        assert meta[0]["args"]["name"] == "coordinator"
        span = next(e for e in events if e["name"] == "phase")
        assert span["ph"] == "X" and span["dur"] >= 0
        assert span["args"] == {"shard": 1}
        assert all(e["ts"] >= 0 for e in events if "ts" in e)

    def test_agg_records_become_instants(self):
        tracer = Tracer(span_budget=0)
        with tracer.span("hot"):
            pass
        tracer.flush_aggregates()
        chrome = to_chrome_trace(tracer.records)
        instant = next(e for e in chrome["traceEvents"]
                       if e["name"] == "hot (agg)")
        assert instant["ph"] == "i"
        assert instant["args"]["count"] == 1


class TestSummarize:
    def test_summary_folds_spans_aggs_events_metrics(self):
        tracer = Tracer(span_budget=1)
        with tracer.span("layer"):
            pass
        with tracer.span("layer"):
            pass
        tracer.event("steal")
        tracer.flush_aggregates()
        records = list(tracer.records)
        records.append(metrics_record({"counters": {"hits": 3}}))
        summary = summarize(records)
        assert summary["spans"]["layer"]["count"] == 2  # span + agg fold
        assert summary["events"]["steal"] == 1
        assert summary["metrics"]["counters"]["hits"] == 3
        text = format_summary(summary, damaged=True, reason="torn tail")
        assert "layer" in text and "torn tail" in text and "hits" in text
