"""Chaos suite: injected worker loss must never change what Achilles finds.

The headline robustness criterion, end to end: the FSP, Raft and
broadcast analyses run under a scripted :class:`FaultPlan` — one worker
killed before it delivers anything — on local worker processes at
shards = 2 and 4, with the default configuration. The coordinator then
aborts the fleet and finishes the search in-process; the findings must
be byte-identical to a fault-free serial run, and the report must prove
the fault actually fired (``worker_failures``, ``recovery_seconds``)
rather than silently missing the injection.

One kill is all a plan can do: the coordinator aborts the whole fleet
at the first loss it detects, so a second scheduled kill never fires.

This is the suite the CI chaos job runs.
"""

import itertools
from functools import partial

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.explore import (
    FaultPlan,
    FaultyTransport,
    KillWorker,
    LocalTransport,
)
from repro.systems import broadcast, fsp, raft

SHARD_COUNTS = (2, 4)


def _kill_one():
    """One worker dead before its first result."""
    return FaultPlan(KillWorker(0, after_results=0))


def _finding_signature(report):
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards, transport=None):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, transport=transport)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        return achilles.search(fsp.fsp_server, predicates)


def _run_pinned(system, shards, transport=None):
    config = AchillesConfig(layout=system.layout,
                            destination=system.destination, shards=shards,
                            transport=transport)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(dict(system.clients))
        return achilles.search(system.server, predicates)


_RUNNERS = {"broadcast": partial(_run_pinned, broadcast.SYSTEM),
            "fsp": _run_fsp, "raft": partial(_run_pinned, raft.SYSTEM)}

#: (system, shards) pairs whose path trees outlive the seed phase, so the
#: kill is guaranteed a worker to hit. The broadcast tree, and the
#: Raft tree at shards=4 (a 16-prefix seed target against 36 paths),
#: finish at seed time — their chaos runs assert parity (and clean
#: counters), but cannot assert the injection fired.
_FANS_OUT = (("fsp", 2), ("fsp", 4), ("raft", 2))


@pytest.fixture(scope="module")
def baselines():
    """Fault-free serial signature per system."""
    return {name: _finding_signature(run(1)) for name, run in _RUNNERS.items()}


def _assert_parity(report, faulty, baseline, label):
    """Findings must match the fault-free serial baseline; the recovery
    accounting must be consistent with whether the kill actually fired
    (a tree small enough to finish at seed time never spawns workers, so
    there is nothing to kill — parity is still required)."""
    assert baseline, f"{label}: serial run found nothing"
    assert _finding_signature(report) == baseline, (
        f"{label}: findings diverged under injected worker loss")
    if faulty.injected_kills:
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        assert report.recovery_seconds > 0.0
    else:
        assert report.worker_failures == 0
        assert report.recovery_seconds == 0.0


class TestChaosParityLocal:
    @pytest.mark.parametrize("system", sorted(_RUNNERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_findings_survive_injected_worker_loss(self, system, shards,
                                                   baselines):
        faulty = FaultyTransport(LocalTransport(), _kill_one())
        report = _RUNNERS[system](shards, transport=faulty)
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards={shards}")

    @pytest.mark.parametrize("system,shards", _FANS_OUT)
    def test_injection_fires(self, system, shards, baselines):
        """Teeth check: wherever the search fans out, the kill must
        actually fire — a chaos run whose fault never triggered proves
        nothing."""
        faulty = FaultyTransport(LocalTransport(), _kill_one())
        report = _RUNNERS[system](shards, transport=faulty)
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards={shards}")


class TestRecoveryCountersSurface:
    def test_report_counts_the_recovery(self):
        """AchillesReport carries the fault accounting: how many workers
        died and what the wall-clock overhead was."""
        faulty = FaultyTransport(LocalTransport(), _kill_one())
        report = _run_fsp(2, transport=faulty)
        assert report.worker_failures == 1
        assert report.recovery_seconds > 0.0
        assert report.recovery_seconds < report.timings.server_analysis

    def test_kill_after_first_result_keeps_findings(self, baselines):
        """Worker 0 goes silent after delivering its first result, which
        is one frontier prefix: the next prefix it is handed bounces,
        the coordinator walks the frontier in-process, and the findings
        still match the serial run byte for byte."""
        faulty = FaultyTransport(LocalTransport(),
                                 FaultPlan(KillWorker(0, after_results=1)))
        report = _run_fsp(2, transport=faulty)
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        assert _finding_signature(report) == baselines["fsp"]

    def test_fault_free_run_reports_clean_counters(self):
        report = _run_fsp(2)
        assert report.worker_failures == 0
        assert report.recovery_seconds == 0.0
