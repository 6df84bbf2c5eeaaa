"""Crash-safe coordinator: kill/resume byte-parity on real systems.

``tests/explore/test_checkpoint.py`` pins the journal mechanics on toy
trees; this suite closes the acceptance criterion on the real analyses:
the coordinator is killed at *every* checkpoint boundary of an FSP
(reduced command set, as in the tracing-parity suite) and a Raft hunt,
the run is resumed from the journal, and the findings — path ids,
witnesses, live-predicate sets, labels — plus the exploration and
sampling counters must be byte-identical to an uninterrupted run.

The kill is injected through the ``checkpoint_hook`` test seam of
:func:`search_server` (:class:`KillCoordinatorAt` fires *after* the
journal checkpoint is durable, exactly where a real crash is
survivable). Checkpoint counts are scheduling-dependent, so the loop
walks the kill target upward until a run completes before reaching it —
that run closes the loop, and the harness asserts at least one kill
actually fired along the way.
"""

import itertools
from dataclasses import replace

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.server_analysis import search_server
from repro.bench.experiments import FSP_SESSION_MASK
from repro.explore import CoordinatorKilled, KillCoordinatorAt
from repro.systems import fsp, raft


def _finding_signature(report):
    """Everything observable about the findings, in discovery order."""
    return [
        (f.server_path_id, f.decisions, f.path_condition, f.negation,
         f.witness, f.live_predicates, f.labels)
        for f in report.findings
    ]


_SYSTEMS = {
    "fsp": dict(
        config=dict(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK),
        clients=lambda: fsp.literal_clients(
            dict(itertools.islice(fsp.COMMANDS.items(), 4))),
        server=fsp.fsp_server),
    "raft": dict(
        config=dict(layout=raft.RAFT_LAYOUT, destination="follower"),
        clients=raft.peer_clients,
        server=raft.raft_follower),
}


def _search(system, run_dir, *, resume=False, hook=None):
    """One full pipeline run, phase 2 journaled under ``run_dir``.

    ``run_dir=None`` runs unjournaled (the uninterrupted baseline)."""
    spec = _SYSTEMS[system]
    config = AchillesConfig(shards=2, **spec["config"])
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(spec["clients"]())
        report, _ = search_server(
            spec["server"], predicates, achilles.server_msg,
            replace(config,
                    run_dir=None if run_dir is None else str(run_dir),
                    checkpoint_interval=1, resume=resume),
            query_cache=achilles.query_cache, checkpoint_hook=hook)
        return report


@pytest.fixture(scope="module")
def baselines():
    """Uninterrupted (unjournaled) report per system."""
    reports = {name: _search(name, None) for name in _SYSTEMS}
    for name, report in reports.items():
        assert report.findings, f"{name}: baseline run found nothing"
    return reports


def _assert_parity(report, baseline, context):
    assert _finding_signature(report) == _finding_signature(baseline), (
        f"findings diverged {context}")
    assert report.server_paths_explored == baseline.server_paths_explored
    assert report.server_paths_pruned == baseline.server_paths_pruned
    assert report.predicate_samples == baseline.predicate_samples


def _kill_at_every_checkpoint(system, baseline, tmp_path):
    """Walk the kill target across every checkpoint boundary."""
    kills_fired = 0
    target = 1
    while True:
        run_dir = tmp_path / f"{system}-kill-{target}"
        try:
            report = _search(system, run_dir,
                             hook=KillCoordinatorAt(target))
        except CoordinatorKilled:
            kills_fired += 1
            report = _search(system, run_dir, resume=True)
            assert report.resumed_regions >= 0
            completed = False
        else:
            completed = True
        _assert_parity(report, baseline, f"for {system} killed@{target}")
        if completed:
            break
        target += 1
    assert kills_fired >= 1, f"{system}: no kill ever fired"


class TestLocalResumeParity:
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_kill_at_every_checkpoint(self, system, baselines, tmp_path):
        _kill_at_every_checkpoint(system, baselines[system], tmp_path)

    def test_uninterrupted_journaled_run_matches(self, baselines, tmp_path):
        """Journaling alone (no kill, no resume) must not perturb the
        analysis."""
        report = _search("fsp", tmp_path / "run")
        _assert_parity(report, baselines["fsp"], "for journaled fsp")
        assert report.checkpoints_written >= 1
        assert report.resumed_regions == 0
