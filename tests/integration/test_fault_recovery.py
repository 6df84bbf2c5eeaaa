"""Chaos suite: injected worker loss must never change what Achilles finds.

The headline robustness criterion, end to end: the FSP, Raft and
broadcast analyses run under a scripted :class:`FaultPlan` — one worker
killed before it delivers anything, or every worker killed — with
``on_worker_loss="recover"``, on local worker processes at shards = 2
and 4. The coordinator then aborts the fleet and finishes the search
in-process; the findings must be byte-identical to a fault-free serial
run, and the report must prove the faults actually fired
(``worker_failures``, ``recovery_seconds``) rather than silently
missing the injection.

This is the suite the CI chaos job runs.
"""

import itertools

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


def _kill_one(shards):
    """One worker dead before its first result."""
    return FaultPlan(KillWorker(0, after_results=0))


def _kill_all(shards):
    """Every worker dead before its first result."""
    return FaultPlan(*(KillWorker(wid) for wid in range(shards)))


_PLANS = {"kill-one": _kill_one, "kill-all": _kill_all}


def _finding_signature(report):
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


def _run_fsp(shards, transport=None, on_worker_loss="fail"):
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, transport=transport,
                            on_worker_loss=on_worker_loss)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        return achilles.search(fsp.fsp_server, predicates)


def _run_raft(shards, transport=None, on_worker_loss="fail"):
    config = AchillesConfig(layout=raft.RAFT_LAYOUT, destination="follower",
                            shards=shards, transport=transport,
                            on_worker_loss=on_worker_loss)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(raft.peer_clients())
        return achilles.search(raft.raft_follower, predicates)


def _run_broadcast(shards, transport=None, on_worker_loss="fail"):
    config = AchillesConfig(layout=broadcast.BROADCAST_LAYOUT,
                            destination="node", shards=shards,
                            transport=transport,
                            on_worker_loss=on_worker_loss)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(broadcast.peer_clients())
        return achilles.search(broadcast.broadcast_node, predicates)


_RUNNERS = {"broadcast": _run_broadcast, "fsp": _run_fsp,
            "raft": _run_raft}

#: (system, shards) pairs whose path trees outlive the seed phase, so the
#: kill plan is guaranteed a worker to hit. The broadcast tree, and the
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
        assert report.worker_failures >= 1
        assert report.recovery_seconds > 0.0
    else:
        assert report.worker_failures == 0
        assert report.recovery_seconds == 0.0


class TestChaosParityLocal:
    @pytest.mark.parametrize("plan", sorted(_PLANS))
    @pytest.mark.parametrize("system", sorted(_RUNNERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_findings_survive_injected_worker_loss(self, system, shards,
                                                   plan, baselines):
        faulty = FaultyTransport(LocalTransport(), _PLANS[plan](shards))
        report = _RUNNERS[system](shards, transport=faulty,
                                  on_worker_loss="recover")
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards={shards} {plan}")

    @pytest.mark.parametrize("plan", sorted(_PLANS))
    @pytest.mark.parametrize("system,shards", _FANS_OUT)
    def test_injection_fires(self, system, shards, plan, baselines):
        """Teeth check: wherever the search fans out, the plan must
        actually fire — a chaos run whose faults never triggered proves
        nothing."""
        faulty = FaultyTransport(LocalTransport(), _PLANS[plan](shards))
        report = _RUNNERS[system](shards, transport=faulty,
                                  on_worker_loss="recover")
        assert faulty.injected_kills >= 1
        _assert_parity(report, faulty, baselines[system],
                       f"{system} local shards={shards} {plan}")


class TestRecoveryCountersSurface:
    def test_report_counts_the_recovery(self):
        """AchillesReport carries the fault accounting: how many workers
        died and what the wall-clock overhead was."""
        faulty = FaultyTransport(LocalTransport(), _kill_one(2))
        report = _run_fsp(2, transport=faulty, on_worker_loss="recover")
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
        report = _run_fsp(2, transport=faulty, on_worker_loss="recover")
        assert faulty.injected_kills == 1
        assert report.worker_failures == 1
        assert _finding_signature(report) == baselines["fsp"]

    def test_fault_free_run_reports_clean_counters(self):
        report = _run_fsp(2, on_worker_loss="recover")
        assert report.worker_failures == 0
        assert report.recovery_seconds == 0.0

    def test_fail_policy_names_the_lost_worker(self):
        """The default policy is unchanged: a lost worker fails the run
        with an error naming it."""
        from repro.errors import SymexError

        faulty = FaultyTransport(LocalTransport(), _kill_one(2))
        with pytest.raises(SymexError, match="local worker 0"):
            _run_fsp(2, transport=faulty)
