"""Tests for the incremental push/pop assertion stack.

The load-bearing property is *agreement*: at every stack depth, under any
push/pop interleaving, ``IncrementalSolver.check_current()`` must return
the same status a from-scratch ``Solver().check(stack)`` would. The
randomized suites drive exactly that, over constraint shapes spanning the
quick-sat path, the propagation-contradiction path and the full-search
fallback.
"""

import random

import pytest

from repro.errors import SolverError
from repro.solver import ast
from repro.solver.ast import bv_const, bv_var, eq, ne, not_, or_
from repro.solver.incremental import IncrementalSolver
from repro.solver.interval import Interval
from repro.solver.propagate import (
    TrailDomains,
    build_var_index,
    initial_domains,
    propagate_delta,
)
from repro.solver.solver import Solver

X = bv_var("x", 8)
Y = bv_var("y", 8)
Z = bv_var("z", 8)


def _scratch_status(stack):
    return Solver().check(list(stack)).status


class TestPushPop:
    def test_empty_stack_is_sat(self):
        inc = IncrementalSolver()
        result = inc.check_current()
        assert result.is_sat
        assert result.model == {}

    def test_push_narrows_then_pop_restores(self):
        inc = IncrementalSolver()
        inc.push(X < 10)
        assert inc.check_current().is_sat
        inc.push(X > 20)
        assert not inc.check_current().is_sat
        inc.pop()
        assert inc.check_current().is_sat
        inc.pop()
        assert inc.depth == 0

    def test_pop_empty_raises(self):
        with pytest.raises(SolverError):
            IncrementalSolver().pop()

    def test_push_requires_boolean(self):
        with pytest.raises(SolverError):
            IncrementalSolver().push(X + 1)

    def test_pushes_under_contradiction_stay_unsat(self):
        inc = IncrementalSolver()
        inc.push(X < 5)
        inc.push(X > 9)
        inc.push(Y < 3)  # stacked on an unsat prefix
        assert not inc.check_current().is_sat
        inc.pop()
        assert not inc.check_current().is_sat
        inc.pop()
        assert inc.check_current().is_sat

    def test_model_covers_all_variables(self):
        inc = IncrementalSolver()
        inc.push(eq(X, Y + 1))
        inc.push(Y < 10)
        result = inc.check_current()
        assert result.is_sat
        assert result.model[X] == (result.model[Y] + 1) % 256
        assert result.model[Y] < 10

    def test_definition_chain_resolved_without_fallback(self):
        inc = IncrementalSolver()
        inc.push(eq(Z, X + Y))
        inc.push(eq(X, bv_const(3, 8)))
        inc.push(Y > 100)
        result = inc.check_current()
        assert result.is_sat
        model = result.model
        assert model[Z] == (model[X] + model[Y]) % 256
        assert inc.solver.stats.incremental_fallbacks == 0
        assert inc.solver.stats.quick_sats > 0

    def test_quick_unsat_skips_full_solver(self):
        inc = IncrementalSolver()
        inc.push(X < 5)
        inc.push(X > 9)
        assert not inc.check_current().is_sat
        assert inc.solver.stats.quick_unsats == 1
        assert inc.solver.stats.incremental_fallbacks == 0


class TestAlign:
    def test_align_reuses_common_prefix(self):
        inc = IncrementalSolver()
        a, b, c, d = X < 10, Y < 10, Z < 10, X > 2
        inc.align((a, b, c))
        assert inc.depth == 3
        reused = inc.align((a, b, d))
        assert reused == 2
        assert inc.depth == 3
        assert inc.solver.stats.frames_reused == 2

    def test_align_to_empty_pops_everything(self):
        inc = IncrementalSolver()
        inc.align((X < 10, Y < 10))
        inc.align(())
        assert inc.depth == 0
        assert inc.check_current().is_sat

    def test_check_matches_scratch_after_alignment(self):
        inc = IncrementalSolver()
        stacks = [
            (X < 10,),
            (X < 10, eq(Y, X + 1)),
            (X < 10, eq(Y, X + 1), Y > 200),
            (X < 10, Y > 200),
            (eq(X, bv_const(7, 8)),),
        ]
        for stack in stacks:
            assert inc.check(stack).status == _scratch_status(stack)


def _conjunct_pool(rng):
    """Constraint shapes spanning every check_current code path."""
    consts = [bv_const(rng.randrange(256), 8) for _ in range(6)]
    vars_ = [X, Y, Z]
    pool = []
    for var in vars_:
        pool.append(var < consts[0].params[0] + 1)
        pool.append(var > consts[1].params[0] - 1)
        pool.append(eq(var, consts[2]))
        pool.append(ne(var, consts[3]))
    pool.append(eq(X, Y + consts[4].params[0]))
    pool.append(eq(Z, X + Y))
    pool.append(or_(eq(X, consts[0]), eq(X, consts[1])))
    pool.append(or_(X < consts[2].params[0] + 1, Y > consts[3].params[0]))
    pool.append(not_(or_(eq(Y, consts[4]), eq(Y, consts[5]))))
    pool.append(ast.ult(X, Y))
    return pool


class TestSuffixFrames:
    def test_fallback_receives_suffix_frames_last(self):
        posed = []

        class RecordingSolver(Solver):
            def check(self, constraints, *args, **kwargs):
                posed.append(tuple(constraints))
                return super().check(constraints, *args, **kwargs)

        # x*y == 6 with x, y in 2..3: propagation alone neither refutes
        # nor satisfies it, so check_current falls back.
        probe = (ast.mul(X, Y).eq(bv_const(6, 8)), X >= 2)
        prefix = (Y >= 2, X < 4, Y < 4)
        inc = IncrementalSolver(solver=RecordingSolver(), suffix_frames=2)
        result = inc.check(probe + prefix)
        assert result.status == _scratch_status(prefix + probe)
        assert posed == [prefix + probe]


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_push_pop_agrees_with_scratch(self, seed):
        """Random interleaving: the incremental answer must equal the
        from-scratch answer after every single operation."""
        rng = random.Random(seed)
        pool = _conjunct_pool(rng)
        inc = IncrementalSolver()
        stack = []
        for _ in range(60):
            if stack and rng.random() < 0.4:
                stack.pop()
                inc.pop()
            else:
                conjunct = rng.choice(pool)
                stack.append(conjunct)
                inc.push(conjunct)
            assert inc.check_current().status == _scratch_status(stack)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_agreement_at_every_depth_on_unwind(self, seed):
        """Build a deep stack, then pop to zero checking each depth."""
        rng = random.Random(seed)
        pool = _conjunct_pool(rng)
        stack = [rng.choice(pool) for _ in range(10)]
        inc = IncrementalSolver()
        for conjunct in stack:
            inc.push(conjunct)
        while True:
            assert inc.check_current().status == _scratch_status(stack)
            if not stack:
                break
            stack.pop()
            inc.pop()

    @pytest.mark.parametrize("seed", [20, 21])
    def test_sat_models_verify(self, seed):
        """Any SAT model the incremental layer returns satisfies the stack."""
        from repro.solver.evalmodel import all_hold

        rng = random.Random(seed)
        pool = _conjunct_pool(rng)
        inc = IncrementalSolver()
        stack = []
        for _ in range(40):
            if stack and rng.random() < 0.35:
                stack.pop()
                inc.pop()
            else:
                conjunct = rng.choice(pool)
                stack.append(conjunct)
                inc.push(conjunct)
            result = inc.check_current()
            if result.is_sat:
                assert all_hold(stack, result.model)


_QUICK_COUNTERS = ("quick_sats", "quick_unsats", "incremental_fallbacks")


def _checked_against_fresh(inc, stack):
    """check_current on ``inc`` must match a fresh stack aligned to
    ``stack``: same status, same model, same quick-path counter deltas.
    A fresh stack has no verification memo, so it verifies in full."""
    stats = inc.solver.stats
    before = [getattr(stats, name) for name in _QUICK_COUNTERS]
    result = inc.check_current()
    deltas = [getattr(stats, name) - was
              for name, was in zip(_QUICK_COUNTERS, before)]
    fresh = IncrementalSolver()
    fresh.align(tuple(stack))
    expected = fresh.check_current()
    assert result.status == expected.status
    assert result.model == expected.model
    assert deltas == [getattr(fresh.solver.stats, name)
                      for name in _QUICK_COUNTERS]
    return result


class TestDeltaVerification:
    """check_current re-evaluates only conjuncts whose variables changed
    value since the last check; the memo must never change an answer."""

    def test_repush_after_sibling_changed_a_definition(self):
        # Z's candidate value comes from the definition Z == X + Y, and
        # propagation cannot see Z != 7 fail; only evaluation can.
        defined, guard = eq(Z, X + Y), ne(Z, bv_const(7, 8))
        inc = IncrementalSolver()
        stack = [defined, guard]
        inc.align(stack)
        assert _checked_against_fresh(inc, stack).model[Z] == 0
        # A sibling of the guard moves X (and with it Z) to 7 ...
        inc.pop()
        stack[-1] = X > 6
        inc.push(stack[-1])
        assert _checked_against_fresh(inc, stack).model[Z] == 7
        # ... so the re-pushed guard, memoized as holding at Z == 0
        # before its pop, must be evaluated again and fail there.
        stack.append(guard)
        inc.push(guard)
        result = _checked_against_fresh(inc, stack)
        assert result.is_sat and result.model[Z] != 7
        assert inc.solver.stats.incremental_fallbacks == 1

    def test_extend_by_one_evaluates_only_the_new_conjunct(self, monkeypatch):
        from repro.solver import incremental

        evaluated = []
        real = incremental.holds
        monkeypatch.setattr(incremental, "holds", lambda c, *args:
                            evaluated.append(c) or real(c, *args))
        variables = [bv_var(f"v{i}", 8) for i in range(12)]
        inc = IncrementalSolver()
        for depth, var in enumerate(variables):
            conjunct = var > depth
            inc.push(conjunct)
            evaluated.clear()
            assert inc.check_current().is_sat
            assert evaluated == [conjunct]

    @pytest.mark.parametrize("seed", [40, 41, 42, 43, 44, 45])
    def test_random_walk_matches_fresh_stack(self, seed):
        """Push/pop/align walks over a pool with definition frames; a
        popped conjunct is re-pushed after its siblings moved values."""
        rng = random.Random(seed)
        pool = _conjunct_pool(rng) + [eq(Y, X + rng.randrange(256)),
                                      eq(X, Z + Y)]
        inc = IncrementalSolver()
        stack, popped = [], []
        for _ in range(80):
            move = rng.random()
            if stack and move < 0.3:
                popped.append(stack.pop())
                inc.pop()
            elif popped and move < 0.5:
                stack.append(rng.choice(popped))
                inc.push(stack[-1])
            elif move < 0.6:
                keep = rng.randrange(len(stack) + 1)
                stack = stack[:keep] + [rng.choice(pool)
                                        for _ in range(rng.randrange(3))]
                inc.align(tuple(stack))
            else:
                stack.append(rng.choice(pool))
                inc.push(stack[-1])
            _checked_against_fresh(inc, stack)


class TestTrailDomains:
    def test_undo_restores_exact_state(self):
        domains = TrailDomains({X: Interval(0, 255), Y: Interval(0, 255)})
        snapshot = dict(domains)
        mark = domains.mark()
        domains[X] = Interval(5, 10)
        domains[Y] = Interval(1, 2)
        domains[Z] = Interval(0, 255)  # fresh key must vanish on undo
        domains.undo_to(mark)
        assert dict(domains) == snapshot
        assert Z not in domains

    def test_nested_marks_unwind_independently(self):
        domains = TrailDomains({X: Interval(0, 255)})
        outer = domains.mark()
        domains[X] = Interval(0, 100)
        inner = domains.mark()
        domains[X] = Interval(0, 10)
        domains[Y] = Interval(3, 3)
        domains.undo_to(inner)
        assert domains[X] == Interval(0, 100)
        assert Y not in domains
        domains.undo_to(outer)
        assert domains[X] == Interval(0, 255)

    def test_repeated_writes_unwind_to_original(self):
        domains = TrailDomains({X: Interval(0, 255)})
        mark = domains.mark()
        for hi in (100, 50, 10, 4):
            domains[X] = Interval(0, hi)
        domains.undo_to(mark)
        assert domains[X] == Interval(0, 255)

    def test_propagation_through_trail_restores_domains_exactly(self):
        constraints = [X < 10, eq(Y, X + 1), ast.ult(Z, Y)]
        domains = TrailDomains(initial_domains(constraints))
        index = build_var_index(constraints)
        baseline = dict(domains)
        mark = domains.mark()
        assert propagate_delta(domains, index, constraints)
        assert domains[X] == Interval(0, 9)  # actually narrowed
        domains.undo_to(mark)
        assert dict(domains) == baseline

    def test_contradiction_leaves_recoverable_trail(self):
        constraints = [X < 5, X > 9]
        domains = TrailDomains(initial_domains(constraints))
        index = build_var_index(constraints)
        baseline = dict(domains)
        mark = domains.mark()
        assert not propagate_delta(domains, index, constraints)
        domains.undo_to(mark)
        assert dict(domains) == baseline

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_randomized_nested_undo(self, seed):
        """Random interleaved propagation rounds over nested marks."""
        rng = random.Random(seed)
        pool = _conjunct_pool(rng)
        constraints = rng.sample(pool, 6)
        domains = TrailDomains(initial_domains(constraints))
        index = build_var_index(constraints)
        snapshots = []
        for constraint in constraints:
            snapshots.append((domains.mark(), dict(domains)))
            propagate_delta(domains, index, [constraint])
        for mark, snapshot in reversed(snapshots):
            domains.undo_to(mark)
            assert dict(domains) == snapshot
