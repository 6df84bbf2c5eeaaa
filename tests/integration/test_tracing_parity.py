"""Tracing parity: recording a trace must never change what Achilles finds.

The FSP analysis (reduced command set) runs with ``--trace-dir`` at
shards = 1, 2 and 4 on local worker processes. Its findings must be
byte-identical to the untraced serial run, and the merged trace must
cover every solver layer and obey the canonical source ordering.
``test_shard_parity.py`` pins the untraced runs across shard counts.
"""

import itertools

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.systems import fsp

SHARD_COUNTS = (1, 2, 4)


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards, trace_dir=None, **settings):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, trace_dir=trace_dir, **settings)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        return achilles.search(fsp.fsp_server, predicates)


@pytest.fixture(scope="module")
def fsp_baseline():
    """The untraced serial FSP signature."""
    return _finding_signature(_run_fsp(1))


SOLVER_LAYERS = {"solver.canonicalize", "solver.cache",
                 "solver.incremental", "solver.scratch"}


def _assert_canonical_trace_order(records):
    """The merged trace's ordering invariant: one contiguous block per
    source — coordinator first, workers in ascending id order — with
    sequence numbers renumbered gaplessly inside each block. This is
    what makes the merge independent of real-time delta arrival."""
    body = [r for r in records if r["kind"] != "metrics"]
    blocks = []
    for record in body:
        if not blocks or blocks[-1] != record["src"]:
            blocks.append(record["src"])
    assert blocks[0] == "coordinator"
    workers = blocks[1:]
    assert workers == sorted(workers, key=lambda s: int(s.split("-")[1]))
    assert len(set(blocks)) == len(blocks), "source blocks not contiguous"
    for source in set(blocks):
        seqs = [r["seq"] for r in body if r["src"] == source]
        assert seqs == list(range(len(seqs)))


def _assert_trace_covers(records, shards):
    names = {r["name"] for r in records if r["kind"] in ("span", "agg")}
    assert SOLVER_LAYERS <= names, f"missing {SOLVER_LAYERS - names}"
    sources = {r["src"] for r in records}
    if shards == 1:
        assert "coordinator.explore" in names
    else:
        assert {"coordinator.seed", "coordinator.assign",
                "coordinator.merge", "worker.assignment"} <= names
        assert sources == {"coordinator"} | {
            f"worker-{w}" for w in range(shards)}
    assert records[-1]["kind"] == "metrics"  # the trailer survived


class TestTracingParity:
    """Tracing is observational: findings must stay byte-identical with
    it on, and the merged trace must cover every layer and obey the
    canonical source ordering — at any shard count."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_traced_local_run_is_byte_identical(self, shards, tmp_path,
                                                fsp_baseline):
        from repro.obs.trace import read_trace

        report = _run_fsp(shards, trace_dir=str(tmp_path))
        assert _finding_signature(report) == fsp_baseline, (
            f"tracing changed the findings at shards={shards}")
        trace = read_trace(tmp_path / "trace.jsonl")
        assert not trace.damaged
        _assert_trace_covers(trace.records, shards)
        _assert_canonical_trace_order(trace.records)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_trace_file_is_canonical_json_lines(self, shards, tmp_path):
        """The file is exactly the merged records, one canonical JSON
        line each, in the canonical source order."""
        import json

        from repro.obs.trace import read_trace

        _run_fsp(shards, trace_dir=str(tmp_path))
        path = tmp_path / "trace.jsonl"
        records = read_trace(path).records
        assert path.read_bytes() == b"".join(
            json.dumps(record, sort_keys=True,
                       separators=(",", ":")).encode() + b"\n"
            for record in records)
        _assert_canonical_trace_order(records)

    @pytest.mark.parametrize("shards", (2, 4))
    def test_traced_run_survives_injected_worker_loss(self, shards,
                                                      tmp_path,
                                                      fsp_baseline):
        """A worker lost mid-run takes its unshipped spans with it; the
        findings and the merged trace's ordering stay intact."""
        from repro.explore import (FaultPlan, FaultyTransport, KillWorker,
                                   LocalTransport)
        from repro.obs.trace import read_trace

        faulty = FaultyTransport(LocalTransport(), FaultPlan(KillWorker(0)))
        report = _run_fsp(shards, trace_dir=str(tmp_path),
                          transport=faulty, on_worker_loss="recover")
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        assert _finding_signature(report) == fsp_baseline
        trace = read_trace(tmp_path / "trace.jsonl")
        assert not trace.damaged
        _assert_canonical_trace_order(trace.records)

    def test_traced_serial_run_records_matrix_entries(self, tmp_path,
                                                      fsp_baseline):
        """Each ``differentFrom`` entry the search computes is one
        ``achilles.different_from`` span, so ``trace summarize`` splits
        the matrix's cost from the search's own solver layers."""
        from repro.obs.trace import read_trace, summarize

        commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
        config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                                trace_dir=str(tmp_path))
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients(
                fsp.literal_clients(commands))
            report = achilles.search(fsp.fsp_server, predicates)
        assert _finding_signature(report) == fsp_baseline
        spans = summarize(read_trace(tmp_path / "trace.jsonl").records)["spans"]
        computed = predicates.different_from.stats.entries_computed
        assert computed > 0
        assert spans["achilles.different_from"]["count"] == computed

    def test_tracing_leaves_no_global_tracer_behind(self, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        _run_fsp(1, trace_dir=str(tmp_path))
        assert obs_trace.active is None
        assert obs_metrics.active is None
