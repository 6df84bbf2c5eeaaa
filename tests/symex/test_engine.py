"""Tests for the symbolic execution engine: forking, verdicts, limits."""

import pytest

from repro.solver import ast
from repro.solver.ast import bv_const, bv_var
from repro.solver.solver import Solver
from repro.symex.engine import Engine, EngineConfig, client_verdict, server_verdict
from repro.symex.state import ACCEPTED, COMPLETED, LIMIT, REJECTED


def _engine(**overrides) -> Engine:
    return Engine(EngineConfig(**overrides))


class TestExploration:
    def test_straight_line_program_is_one_path(self):
        result = _engine().explore(lambda ctx: None)
        assert len(result.paths) == 1
        assert result.stats.forks == 0

    def test_symbolic_branch_forks_two_paths(self):
        def program(ctx):
            ctx.branch(ctx.fresh_byte("x") < 10)

        result = _engine().explore(program)
        assert len(result.paths) == 2
        assert result.stats.forks == 1

    def test_nested_branches_enumerate_all_paths(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            ctx.branch(x < 100)
            ctx.branch(x.eq(5))

        result = _engine().explore(program)
        # x<100/x==5 has three feasible combinations (x==5 implies x<100).
        assert len(result.paths) == 3

    def test_infeasible_direction_not_explored(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            if ctx.branch(x < 10):
                taken = ctx.branch(x > 20)  # infeasible under x < 10
                assert not taken

        result = _engine().explore(program)
        assert len(result.paths) == 2  # x<10 (with x>20 false) and x>=10

    def test_path_constraints_recorded_in_order(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            ctx.branch(x < 10)
            ctx.branch(x.eq(3))

        result = _engine().explore(program)
        deepest = max(result.paths, key=lambda p: p.branch_count)
        assert deepest.branch_count == 2
        assert len(deepest.constraints) == 2

    def test_concrete_branch_does_not_fork(self):
        def program(ctx):
            ctx.branch(True)
            ctx.branch(False)

        result = _engine().explore(program)
        assert len(result.paths) == 1
        assert result.paths[0].branch_count == 0


class TestVerdicts:
    def test_server_default_classifies_by_reply(self):
        def program(ctx):
            if ctx.branch(ctx.fresh_byte("x") < 10):
                ctx.send("client", [1])

        result = _engine().explore(program)
        assert {p.verdict for p in result.paths} == {ACCEPTED, REJECTED}

    def test_explicit_markers_override_default(self):
        def program(ctx):
            if ctx.branch(ctx.fresh_byte("x") < 10):
                ctx.send("client", [1])
                ctx.reject("reply-then-reject")
            else:
                ctx.accept("silent-accept")

        result = _engine().explore(program)
        verdicts = sorted(p.verdict for p in result.paths)
        assert verdicts == [ACCEPTED, REJECTED]
        rejected = next(p for p in result.paths if p.verdict == REJECTED)
        assert rejected.sends  # sent a reply yet explicitly rejected

    def test_client_verdict_marks_completed(self):
        result = _engine(default_verdict=client_verdict).explore(
            lambda ctx: ctx.send("server", [1, 2]))
        assert result.paths[0].verdict == COMPLETED

    def test_accept_labels_recorded(self):
        def program(ctx):
            ctx.accept("the-label")

        result = _engine().explore(program)
        assert result.paths[0].labels == ("the-label",)


class TestLimits:
    def test_branch_budget_limits_path(self):
        def program(ctx):
            while True:
                ctx.branch(ctx.fresh_byte("x") < 10)

        result = _engine(max_branches_per_path=5, max_paths=3).explore(program)
        assert all(p.verdict == LIMIT for p in result.paths)
        assert all(p.branch_count <= 5 for p in result.paths)

    def test_max_paths_caps_exploration(self):
        def program(ctx):
            for i in range(10):
                ctx.branch(ctx.fresh_byte(f"x{i}") < 10)

        result = _engine(max_paths=4).explore(program)
        assert len(result.paths) == 4

    def test_limited_paths_not_double_counted(self):
        def program(ctx):
            while True:
                ctx.branch(ctx.fresh_byte("x") < 10)

        result = _engine(max_branches_per_path=4, max_paths=5).explore(program)
        stats = result.stats
        assert stats.paths_limited == len(result.paths) == 5
        assert stats.paths_finished == 0

    def test_path_ids_dense_when_budget_hit(self):
        """Engine path ids must not skip values (each pop gets the next id)."""

        def program(ctx):
            while True:
                ctx.branch(ctx.fresh_byte("x") < 10)

        result = _engine(max_branches_per_path=3, max_paths=6).explore(program)
        ids = sorted(p.path_id for p in result.paths)
        assert ids == list(range(len(ids)))

    def test_path_ids_dense_with_mixed_verdicts(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            if ctx.branch(x < 10):
                ctx.branch(x > 20)  # one direction infeasible
            ctx.branch(x.eq(3))

        result = _engine().explore(program)
        ids = sorted(p.path_id for p in result.paths)
        # Finished-path ids are unique and drawn from one dense counter
        # shared with infeasible/pruned pops, so no id repeats.
        assert len(set(ids)) == len(ids)
        assert ids[0] == 0


class TestDeterminism:
    def test_same_program_same_paths(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            if ctx.branch(x < 50):
                ctx.send("s", [x])

        first = _engine().explore(program)
        second = _engine().explore(program)
        assert [p.decisions for p in first.paths] == \
            [p.decisions for p in second.paths]
        assert [p.constraints for p in first.paths] == \
            [p.constraints for p in second.paths]

    def test_fresh_names_stable_across_replays(self):
        def program(ctx):
            x = ctx.fresh_byte("x")
            y = ctx.fresh_byte("x")  # same base name: gets a suffix
            ctx.branch(x < 10)
            ctx.branch(y < 10)

        result = _engine().explore(program)
        names = {v.name for p in result.paths for c in p.constraints
                 for v in _vars(c)}
        assert names == {"x", "x#1"}


class TestConstruction:
    def test_takes_no_solver_service(self):
        """Batched probes run on the engine's own frame stack; there is
        no pool-backed service to hand it."""
        from repro.solver.service import SolverService

        with pytest.raises(TypeError, match="service"):
            Engine(EngineConfig(), service=SolverService())

    def test_shares_the_given_solver(self):
        solver = Solver()
        engine = Engine(EngineConfig(), solver=solver)
        assert engine.solver is solver
        assert engine.incremental.solver is solver


class TestIncrementalParity:
    """The incremental frame stack is a pure optimization: exploration
    must produce identical paths with it on or off."""

    @staticmethod
    def _program(ctx):
        x = ctx.fresh_byte("x")
        y = ctx.fresh_byte("y")
        if ctx.branch(x < 100):
            ctx.branch(x.eq(5))
            if ctx.branch(y > 200):
                ctx.send("s", [x, y])
        else:
            ctx.branch(ast.or_(y.eq(1), y.eq(2)))

    def test_same_paths_with_and_without_frame_stack(self):
        with_frames = _engine(incremental=True).explore(self._program)
        without = _engine(incremental=False).explore(self._program)
        assert [(p.decisions, p.verdict, p.constraints)
                for p in with_frames.paths] == \
            [(p.decisions, p.verdict, p.constraints) for p in without.paths]

    def test_exploration_reuses_prefix_frames(self):
        engine = _engine(incremental=True)
        engine.explore(self._program)
        stats = engine.solver.stats
        assert stats.frames_pushed > 0
        # Branch probes pose pc+(cond,) then pc+(¬cond,): the pc prefix
        # frames must be reused between the two, not re-pushed.
        assert stats.frames_reused > 0

    def test_incremental_off_uses_plain_solver(self):
        engine = _engine(incremental=False)
        assert engine.incremental is None
        engine.explore(self._program)
        assert engine.solver.stats.frames_pushed == 0


class TestProbesOnTheMainStack:
    """``probe_feasible_batch`` decides cache misses on the engine's one
    frame stack, posed as ``prefix + probe`` like any other query."""

    def test_probes_reuse_the_prefix_frames(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        prefix = (x > 3, x < 200, y > 1)
        probes = [(x < 10,), (y < 5, x > 5), (x > 250,)]
        engine = _engine()
        stats = engine.solver.stats
        assert engine.probe_feasible_batch(prefix, probes) == \
            [True, True, False]
        assert stats.cache_misses == len(probes)
        # The prefix is pushed once; each later probe pops the previous
        # one and keeps the prefix frames.
        assert stats.frames_pushed == len(prefix) + 1 + 2 + 1
        assert stats.frames_reused == len(prefix) * (len(probes) - 1)
        assert engine.incremental.depth == len(prefix) + len(probes[-1])

    def test_fallback_search_sees_the_query_order(self):
        # The from-scratch search branches in conjunct order. Posed as
        # prefix + probe this unsat query takes ~7.4k branch steps;
        # posed probe-first it exhausts the 50k budget below (and runs
        # past 30 s without one), so the stack must hand its fallback
        # the query order.
        b = [bv_var(f"b{i}", 8) for i in range(4)]
        hi = ast.concat(b[0], b[1])
        lo = ast.concat(b[2], b[3])
        w = bv_var("w", 8)
        prefix = (ast.eq(ast.bvor(lo, bv_const(0x09EC, 16)),
                         bv_const(0x5BF6, 16)),)
        probe = (ast.not_(ast.sle(ast.bvor(hi, bv_const(0x21, 16)),
                                  bv_const(0x7F, 16))),
                 ast.eq(ast.bvxor(w, bv_const(0x55, 8)), bv_const(0x12, 8)))
        engine = Engine(solver=Solver(max_branch_steps=50_000))
        assert engine.probe_feasible_batch(prefix, [probe]) == [False]

    def test_feasibility_hands_back_the_deciding_model(self):
        x = bv_var("x", 8)
        prefix, probe = (x > 3,), (x < 10,)
        engine = _engine()
        feasible, model = engine.feasibility(prefix, probe)
        assert feasible and 3 < model[x] < 10
        # A cache hit knows only the boolean; UNSAT has no model.
        assert engine.feasibility(prefix, probe) == (True, None)
        assert engine.feasibility(prefix, (x < 2,)) == (False, None)


def _vars(expr):
    from repro.solver.walk import collect_vars

    return collect_vars(expr)
