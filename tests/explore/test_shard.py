"""Units for the shard-side primitives and the deterministic merge."""

import pytest

from repro.errors import SymexError
from repro.explore.merge import merge_outcomes
from repro.explore.shard import FrontierControl, ShardOutcome
from repro.symex.engine import Engine, EngineConfig, ExplorationStats
from repro.symex.state import canonical_key


def _chain_program(thresholds):
    def program(ctx):
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program


class TestCanonicalKey:
    def test_true_sorts_before_false(self):
        assert canonical_key((True,)) < canonical_key((False,))
        assert canonical_key((True, False)) < canonical_key((False, True))

    def test_matches_serial_dfs_completion_order(self):
        """Serial DFS path ids are exactly canonical-key ranks."""
        result = Engine(EngineConfig()).explore(_chain_program([50, 120, 200]))
        keys = [canonical_key(decisions)
                for decisions, _verdict in result.executed]
        assert keys == sorted(keys)


def _tree_program(depth):
    """A full binary tree: every level branches on a fresh boolean."""
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
    return program


class TestFrontierControl:
    def test_stops_once_worklist_reaches_target(self):
        engine = Engine(EngineConfig())
        result = engine.explore(_tree_program(4), control=FrontierControl(3))
        assert len(result.frontier) >= 3
        # The run stopped early: frontier + executed must cover the tree.
        total = Engine(EngineConfig()).explore(_tree_program(4))
        assert len(result.executed) < len(total.executed)

    def test_frontier_replay_covers_the_tree(self):
        """Replaying every frontier prefix completes the seed run exactly."""
        engine = Engine(EngineConfig())
        seed = engine.explore(_tree_program(4), control=FrontierControl(3))
        executed = list(seed.executed)
        for prefix in seed.frontier:
            part = Engine(EngineConfig()).explore(_tree_program(4),
                                                  roots=[prefix])
            executed.extend(part.executed)
        serial = Engine(EngineConfig()).explore(_tree_program(4))
        assert (sorted(executed, key=lambda e: canonical_key(e[0]))
                == serial.executed)

    def test_drained_tree_leaves_empty_frontier(self):
        result = Engine(EngineConfig()).explore(_chain_program([10]),
                                                control=FrontierControl(50))
        assert result.frontier == ()


class TestMergeOutcomes:
    def test_renumbers_canonically_regardless_of_outcome_order(self):
        serial = Engine(EngineConfig()).explore(_chain_program([40, 90, 180]))
        # Split the serial run's paths into two fake shard outcomes in a
        # scrambled order; the merge must rebuild serial numbering.
        half = len(serial.executed) // 2
        outcome_a = ShardOutcome(
            executed=serial.executed[half:],
            paths=[p for p in serial.paths
                   if (p.decisions, p.verdict) in serial.executed[half:]],
            stats=ExplorationStats())
        outcome_b = ShardOutcome(
            executed=serial.executed[:half],
            paths=[p for p in serial.paths
                   if (p.decisions, p.verdict) in serial.executed[:half]],
            stats=ExplorationStats())
        merged, _ = merge_outcomes([outcome_a, outcome_b])
        assert [(p.path_id, p.decisions, p.constraints, p.verdict)
                for p in merged.paths] == \
               [(p.path_id, p.decisions, p.constraints, p.verdict)
                for p in serial.paths]
        assert merged.executed == serial.executed

    def test_records_united_in_canonical_path_order(self):
        serial = Engine(EngineConfig()).explore(_chain_program([40, 90, 180]))
        records = {decisions: f"record {rank}"
                   for rank, (decisions, _) in enumerate(serial.executed)}
        half = len(serial.executed) // 2
        outcomes = [
            ShardOutcome(executed=part, stats=ExplorationStats(),
                         records={decisions: records[decisions]
                                  for decisions, _ in reversed(part)})
            for part in (serial.executed[half:], serial.executed[:half])]
        merged, _ = merge_outcomes(outcomes)
        assert list(merged.records.items()) == list(
            records.items())

    def test_overlapping_outcomes_rejected(self):
        serial = Engine(EngineConfig()).explore(_chain_program([40]))
        outcome = ShardOutcome(executed=serial.executed, paths=serial.paths,
                               stats=ExplorationStats())
        with pytest.raises(SymexError, match="overlap"):
            merge_outcomes([outcome, outcome])

    def test_counters_summed(self):
        serial = Engine(EngineConfig()).explore(_chain_program([40, 90]))
        half = len(serial.executed) // 2
        outcomes = [
            ShardOutcome(executed=serial.executed[:half],
                         stats=ExplorationStats(paths_finished=half)),
            ShardOutcome(executed=serial.executed[half:],
                         stats=ExplorationStats(
                             paths_finished=len(serial.executed) - half)),
        ]
        merged, _ = merge_outcomes(outcomes)
        assert merged.stats.paths_finished == len(serial.executed)
