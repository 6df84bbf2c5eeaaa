"""Coordinator checkpoint/resume: journal mechanics and region algebra.

Three layers: :class:`RunJournal` file mechanics (durability, torn-tail
recovery, validation errors), the :func:`outstanding_regions` resume
algebra (including donation chains), and scheduler-level kill/resume
parity — the coordinator is killed at every checkpoint boundary via
:class:`KillCoordinatorAt` and the resumed run must produce results
byte-identical to an uninterrupted one.

Setup callables live at module level so worker processes can unpickle
them under any start method.
"""

import pytest

from repro.errors import SymexError
from repro.explore import (
    CoordinatorKilled,
    JournalMeta,
    KillCoordinatorAt,
    RunJournal,
    ShardScheduler,
    TruncateSegment,
    apply_disk_fault,
    load_journal,
    outstanding_regions,
)
from repro.explore.checkpoint import JOURNAL_NAME, engine_signature
from repro.explore.shard import ShardOutcome
from repro.symex.engine import Engine, EngineConfig, ExplorationStats

META = JournalMeta(setup="tests:setup", engine_signature=("sig",))


def _outcome(executed=1):
    return ShardOutcome(executed=executed, paths=(),
                        stats=ExplorationStats(), delta=None)


def _begin(tmp_path, interval=1, hook=None):
    journal = RunJournal(tmp_path / "run", checkpoint_interval=interval,
                        on_checkpoint=hook)
    journal.begin(META, _outcome(), frontier=((True,), (False,)))
    return journal


def tree_setup(engine, depth, thresholds=()):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None


TREE_ARGS = (4, [30, 200])


def _signature(result):
    return [(p.path_id, p.verdict, p.decisions, p.constraints, p.labels)
            for p in result.paths]


class TestRunJournal:
    def test_begin_is_the_first_durable_checkpoint(self, tmp_path):
        fired = []
        journal = _begin(tmp_path, hook=fired.append)
        assert journal.checkpoints_written == 1
        assert fired == [1]
        journal.close()
        replay = load_journal(tmp_path / "run" / JOURNAL_NAME, META)
        assert replay.frontier == ((True,), (False,))
        assert replay.regions == []

    def test_interval_buffers_completions(self, tmp_path):
        journal = _begin(tmp_path, interval=2)
        journal.note_outcome(((True,),), (), _outcome())
        assert journal.checkpoints_written == 1  # buffered, not durable
        journal.note_outcome(((False,),), (), _outcome())
        assert journal.checkpoints_written == 2
        journal.close()
        replay = load_journal(tmp_path / "run" / JOURNAL_NAME)
        assert len(replay.regions) == 2

    def test_close_flushes_the_tail(self, tmp_path):
        journal = _begin(tmp_path, interval=10)
        journal.note_outcome(((True,),), (), _outcome())
        journal.close()
        replay = load_journal(tmp_path / "run" / JOURNAL_NAME)
        assert replay.regions == [(((True,),), ())]

    def test_abandon_drops_the_buffer(self, tmp_path):
        """A crash simulation must lose the unflushed buffer — that is
        the state a real kill leaves behind."""
        journal = _begin(tmp_path, interval=10)
        journal.note_outcome(((True,),), (), _outcome())
        journal.abandon()
        replay = load_journal(tmp_path / "run" / JOURNAL_NAME)
        assert replay.regions == []

    def test_torn_tail_is_truncated_and_appending_resumes(self, tmp_path):
        journal = _begin(tmp_path)
        journal.note_outcome(((True,),), (), _outcome())
        journal.close()
        path = tmp_path / "run" / JOURNAL_NAME
        apply_disk_fault(path, TruncateSegment(drop_bytes=5))
        resumed = RunJournal(tmp_path / "run")
        replay = resumed.load_for_resume(META)
        assert replay.damaged
        assert replay.regions == []  # the torn completion is gone
        resumed.note_outcome(((False,),), (), _outcome())
        resumed.close()
        final = load_journal(path)
        assert not final.damaged
        assert final.regions == [(((False,),), ())]

    def test_resumed_journal_can_be_killed_again(self, tmp_path):
        journal = _begin(tmp_path)
        journal.close()
        resumed = RunJournal(tmp_path / "run")
        resumed.load_for_resume(META)
        resumed.note_outcome(((True,),), (), _outcome())
        resumed.abandon()
        replay = load_journal(tmp_path / "run" / JOURNAL_NAME)
        assert replay.regions == [(((True,),), ())]


class TestLoadJournalErrors:
    def test_missing_journal(self, tmp_path):
        with pytest.raises(SymexError, match="--resume needs a run"):
            load_journal(tmp_path / "nothing" / JOURNAL_NAME)

    def test_unrecognizable_file(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(b"not a journal at all")
        with pytest.raises(SymexError, match="unrecognizable"):
            load_journal(path)

    def test_died_before_first_checkpoint(self, tmp_path):
        from repro.framing import HEADER

        path = tmp_path / JOURNAL_NAME
        path.write_bytes(HEADER)
        with pytest.raises(SymexError, match="no seed checkpoint"):
            load_journal(path)

    def test_meta_mismatch_names_both_runs(self, tmp_path):
        journal = _begin(tmp_path)
        journal.close()
        other = JournalMeta(setup="tests:other", engine_signature=("sig",))
        with pytest.raises(SymexError, match="different run"):
            load_journal(tmp_path / "run" / JOURNAL_NAME, other)

    def test_engine_signature_is_process_stable(self):
        a = engine_signature(EngineConfig())
        b = engine_signature(EngineConfig())
        assert a == b
        assert engine_signature(EngineConfig(max_paths=7)) != a


class TestOutstandingRegions:
    def test_nothing_journaled_everything_outstanding(self):
        frontier = ((True,), (False,))
        assert outstanding_regions(frontier, []) == [
            ((True,), ()), ((False,), ())]

    def test_completed_root_is_covered(self):
        frontier = ((True,), (False,))
        regions = [(((True,),), ())]
        assert outstanding_regions(frontier, regions) == [((False,), ())]

    def test_all_completed_nothing_outstanding(self):
        frontier = ((True,), (False,))
        regions = [(((True,), (False,)), ())]
        assert outstanding_regions(frontier, regions) == []

    def test_donated_subtree_becomes_a_candidate(self):
        """A region completed minus a donation leaves the donated
        subtree outstanding — under its own root, with no exclusions."""
        frontier = ((True,),)
        regions = [(((True,),), ((True, False),))]
        assert outstanding_regions(frontier, regions) == [
            ((True, False), ())]

    def test_completed_donation_closes_the_chain(self):
        frontier = ((True,),)
        regions = [(((True,),), ((True, False),)),
                   (((True, False),), ())]
        assert outstanding_regions(frontier, regions) == []

    def test_donation_chain_tracks_the_deepest_outstanding(self):
        """A donated B, B donated C: only C is outstanding."""
        frontier = ((True,),)
        regions = [(((True,),), ((True, False),)),
                   (((True, False),), ((True, False, True),))]
        assert outstanding_regions(frontier, regions) == [
            ((True, False, True), ())]

    def test_outstanding_root_excludes_nested_completions(self):
        """An unfinished frontier root carves out the completed regions
        strictly inside it — exactly the reclaim rule for dead workers."""
        frontier = ((True,), (False,))
        regions = [(((True, False),), ())]
        entries = outstanding_regions(frontier, regions)
        assert (((True,), ((True, False),))) in entries
        assert ((False,), ()) in entries

    def test_exclusion_set_is_minimal(self):
        """A completed root nested inside another excluded subtree is
        already carved out by it and must not repeat."""
        frontier = ((True,),)
        regions = [(((True, False),), ()),
                   (((True, False, True),), ())]
        entries = outstanding_regions(frontier, regions)
        assert entries == [((True,), ((True, False),))]


class TestSchedulerResumeParity:
    """Kill the coordinator at every checkpoint; resume must restore
    byte parity. A run that completes before reaching the kill target is
    a normal completion (checkpoint counts are scheduling-dependent)."""

    def _run(self, run_dir, resume=False, hook=None, interval=1):
        scheduler = ShardScheduler(
            tree_setup, TREE_ARGS, shards=2, seed_factor=2,
            run_dir=str(run_dir), checkpoint_interval=interval,
            resume=resume, checkpoint_hook=hook)
        return scheduler.run()

    def test_kill_at_every_checkpoint_resumes_byte_identical(self, tmp_path):
        serial = Engine(EngineConfig())
        program, _ = tree_setup(serial, *TREE_ARGS)
        baseline = serial.explore(program)
        kills_fired = 0
        target = 1
        while True:
            run_dir = tmp_path / f"kill-{target}"
            try:
                result = self._run(run_dir, hook=KillCoordinatorAt(target))
            except CoordinatorKilled:
                kills_fired += 1
                result = self._run(run_dir, resume=True)
                assert result.resumed_regions >= 0
                completed = False
            else:
                completed = True
            assert _signature(result.exploration) == _signature(baseline)
            assert result.exploration.executed == baseline.executed
            if completed:
                break
            target += 1
        assert kills_fired >= 1  # the harness must actually have killed

    def test_double_kill_still_resumes(self, tmp_path):
        serial = Engine(EngineConfig())
        program, _ = tree_setup(serial, *TREE_ARGS)
        baseline = serial.explore(program)
        run_dir = tmp_path / "run"
        with pytest.raises(CoordinatorKilled):
            self._run(run_dir, hook=KillCoordinatorAt(1))
        try:
            result = self._run(run_dir, resume=True,
                               hook=KillCoordinatorAt(1))
        except CoordinatorKilled:
            result = self._run(run_dir, resume=True)
        assert _signature(result.exploration) == _signature(baseline)

    def test_coarse_checkpoint_interval_resumes(self, tmp_path):
        """interval > 1 loses more on a kill but must still resume to
        the identical result."""
        serial = Engine(EngineConfig())
        program, _ = tree_setup(serial, *TREE_ARGS)
        baseline = serial.explore(program)
        run_dir = tmp_path / "run"
        try:
            result = self._run(run_dir, hook=KillCoordinatorAt(2),
                               interval=3)
        except CoordinatorKilled:
            result = self._run(run_dir, resume=True, interval=3)
        assert _signature(result.exploration) == _signature(baseline)

    def test_unjournaled_run_reports_zero_checkpoints(self, tmp_path):
        scheduler = ShardScheduler(tree_setup, TREE_ARGS, shards=2,
                                   seed_factor=2)
        result = scheduler.run()
        assert result.journal_checkpoints == 0
        assert result.resumed_regions == 0

    def test_resume_without_run_dir_rejected(self):
        with pytest.raises(SymexError, match="resume=True needs run_dir"):
            ShardScheduler(tree_setup, TREE_ARGS, shards=2, resume=True)

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(SymexError, match="checkpoint_interval"):
            ShardScheduler(tree_setup, TREE_ARGS, shards=2,
                           run_dir="/tmp/x", checkpoint_interval=0)

    def test_resume_against_different_setup_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        self._run(run_dir)  # a completed journaled run
        scheduler = ShardScheduler(
            tree_setup, (2, [9]), shards=2, seed_factor=2,
            engine_config=EngineConfig(max_paths=5),
            run_dir=str(run_dir), resume=True)
        with pytest.raises(SymexError, match="different run"):
            scheduler.run()
