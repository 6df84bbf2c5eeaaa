"""Tests for the batched solver service.

The load-bearing properties:

* **agreement** — every batched answer equals what a from-scratch
  ``Solver().check`` returns for the same query;
* **sharing** — every batch rides the service's one frame stack;
* **stats** — :class:`SolverStats` aggregation is a plain field-wise sum.
"""

import random

import pytest

from repro.solver import ast
from repro.solver.ast import bv_const, bv_var, eq, ne
from repro.solver.evalmodel import all_hold
from repro.solver.incremental import IncrementalSolver
from repro.solver.interval import Interval
from repro.solver.service import SolverService
from repro.solver.solver import Solver, SolverStats

X = bv_var("x", 8)
Y = bv_var("y", 8)
Z = bv_var("z", 8)


def _random_query(rng: random.Random) -> tuple:
    """A small random conjunction spanning sat, unsat and fallback shapes."""
    variables = [X, Y, Z]
    conjuncts = []
    for _ in range(rng.randint(1, 4)):
        var = rng.choice(variables)
        value = bv_const(rng.randint(0, 255), 8)
        kind = rng.randrange(5)
        if kind == 0:
            conjuncts.append(eq(var, value))
        elif kind == 1:
            conjuncts.append(ne(var, value))
        elif kind == 2:
            conjuncts.append(ast.ult(var, value))
        elif kind == 3:
            conjuncts.append(ast.ugt(var, value))
        else:
            other = rng.choice([v for v in variables if v is not var])
            conjuncts.append(eq(var, other + rng.randint(0, 255)))
    return tuple(conjuncts)


class TestSerialBackend:
    def test_check_batch_matches_scratch(self):
        service = SolverService()
        queries = [(ast.ult(X, bv_const(4, 8)),),
                   (ast.ult(X, bv_const(4, 8)), ast.ugt(X, bv_const(9, 8))),
                   (eq(Y, X + 1), ast.ugt(X, bv_const(250, 8)))]
        results = service.check_batch(queries)
        assert [r.status for r in results] == [
            Solver().check(list(q)).status for q in queries]

    def test_probe_batch_feasibility(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        probes = [(eq(X, bv_const(3, 8)),),
                  (eq(X, bv_const(30, 8)),),
                  (ne(X, bv_const(200, 8)),)]
        assert service.probe_batch(prefix, probes) == [True, False, True]

    def test_serial_probes_share_one_frame_stack(self):
        """Satellite property: all serial callers ride one IncrementalSolver."""
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        service.probe_batch(prefix, [(eq(X, bv_const(1, 8)),)])
        before = service.solver.stats.frames_reused
        service.probe_batch(prefix, [(eq(X, bv_const(2, 8)),)])
        # The second batch re-poses the same prefix: its frame is reused,
        # not re-propagated.
        assert service.solver.stats.frames_reused > before

    def test_empty_batches(self):
        service = SolverService()
        assert service.check_batch([]) == []
        assert service.probe_batch((ast.ult(X, bv_const(4, 8)),), []) == []

    def test_random_checks_match_scratch(self):
        service = SolverService()
        rng = random.Random(20140301)
        queries = [_random_query(rng) for _ in range(24)]
        results = service.check_batch(queries)
        for query, result in zip(queries, results):
            scratch = Solver().check(list(query))
            assert result.status == scratch.status, query
            if result.is_sat:
                # The model is complete and actually satisfies the query.
                assert all_hold(list(query), dict(result.model))

    def test_results_in_input_order(self):
        # Alternate sat/unsat so any reordering flips an answer.
        queries = []
        for i in range(17):
            if i % 2 == 0:
                queries.append((eq(X, bv_const(i, 8)),))
            else:
                queries.append((eq(X, bv_const(i, 8)),
                                ne(X, bv_const(i, 8))))
        statuses = [r.is_sat for r in SolverService().check_batch(queries)]
        assert statuses == [i % 2 == 0 for i in range(17)]

    def test_each_model_answers_its_own_query(self):
        results = SolverService().check_batch(
            [(eq(X, bv_const(v, 8)),) for v in (1, 2, 3)]
            + [(eq(Y, bv_const(v, 8)),) for v in (4, 5)])
        assert [r.model[X] for r in results[:3]] == [1, 2, 3]
        assert [r.model[Y] for r in results[3:]] == [4, 5]

    def test_models_are_a_function_of_the_constraint_set(self):
        # Two canonically-equal but raw-distinct queries get the same
        # model, so a witness cannot depend on which stack state a query
        # happens to meet.
        q1 = (ast.ult(X, bv_const(10, 8)), eq(Y, bv_const(3, 8)))
        q2 = (eq(Y, bv_const(3, 8)), ast.ult(X, bv_const(10, 8)))
        r1, r2 = SolverService().check_batch([q1, q2])
        assert r1.model == r2.model

    def test_probe_batch_matches_check_batch(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(50, 8)), ast.ugt(Y, bv_const(5, 8)))
        probes = [(eq(X, bv_const(v, 8)),) for v in (0, 49, 50, 120, 3)]
        checked = SolverService().check_batch(
            [prefix + probe for probe in probes])
        assert service.probe_batch(prefix, probes) == \
            [r.is_sat for r in checked] == [True, True, False, False, True]

    def test_random_probes_match_scratch(self):
        service = SolverService()
        rng = random.Random(20140302)
        for _ in range(12):
            prefix = _random_query(rng)
            probes = [_random_query(rng) for _ in range(5)]
            assert service.probe_batch(prefix, probes) == [
                Solver().is_satisfiable(list(prefix + probe))
                for probe in probes]

    def test_repeated_batches_answer_identically(self):
        service = SolverService()
        queries = [(eq(X, bv_const(v, 8)),) for v in (3, 9, 250)]
        queries.append((eq(X, bv_const(1, 8)), eq(X, bv_const(2, 8))))
        first = service.check_batch(queries)
        second = service.check_batch(queries)
        assert [r.status for r in first] == [r.status for r in second]
        assert [r.model for r in first] == [r.model for r in second]

    def test_unsat_query_leaves_the_stack_usable(self):
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)),)
        assert service.probe_batch(prefix, [(eq(X, bv_const(30, 8)),)]) \
            == [False]
        result, = service.check_batch([prefix + (eq(X, bv_const(7, 8)),)])
        assert result.is_sat and result.model[X] == 7

    def test_counters_land_on_the_callers_solver(self):
        solver = Solver()
        service = SolverService(solver=solver)
        assert service.solver is solver
        service.check_batch([(eq(X, bv_const(v, 8)),) for v in range(8)])
        assert solver.stats.frames_pushed > 0
        assert solver.stats.sat_answers == 8

    def test_check_and_probe_share_one_frame_stack(self):
        """The negate overlap checks (probes) and whole-query checks ride
        the same stack: a prefix pushed by one is reused by the other."""
        service = SolverService()
        prefix = (ast.ult(X, bv_const(10, 8)), ast.ugt(Y, bv_const(3, 8)))
        service.check_batch([prefix])
        before = service.solver.stats.frames_reused
        service.probe_batch(prefix, [(eq(X, bv_const(2, 8)),)])
        assert service.solver.stats.frames_reused > before

    def test_services_keep_separate_stacks(self):
        prefix = (ast.ult(X, bv_const(10, 8)),)
        SolverService().probe_batch(prefix, [(eq(X, bv_const(1, 8)),)])
        fresh = SolverService()
        fresh.probe_batch(prefix, [(eq(X, bv_const(2, 8)),)])
        assert fresh.solver.stats.frames_reused == 0


class TestNoPool:
    """The service is serial: there is no worker pool to size or close."""

    def test_rejects_a_worker_count(self):
        with pytest.raises(TypeError):
            SolverService(workers=2)

    def test_no_async_or_pool_surface(self):
        for name in ("submit_check_batch", "submit_probe_batch",
                     "submit_iter_models_batch", "iter_models_batch",
                     "close", "workers", "parallel", "stats",
                     "__enter__", "__exit__"):
            assert not hasattr(SolverService(), name), name


class TestSolverStatsAggregation:
    def test_merge_sums_every_field(self):
        a = SolverStats(queries=3, cache_hits=5, cache_misses=1,
                        propagation_seconds=0.25, frames_pushed=7)
        b = SolverStats(queries=2, cache_hits=1, cache_misses=3,
                        propagation_seconds=0.5, frames_pushed=2)
        a += b
        assert a.queries == 5
        assert a.cache_hits == 6
        assert a.cache_misses == 4
        assert a.frames_pushed == 9
        assert a.propagation_seconds == pytest.approx(0.75)
        # hit rate stays consistent with the merged counters
        assert a.cache_hit_rate == pytest.approx(0.6)

    def test_merge_order_independent_for_counters(self):
        parts = [SolverStats(queries=i, cache_hits=2 * i) for i in range(5)]
        forward = SolverStats()
        for part in parts:
            forward += part
        backward = SolverStats()
        for part in reversed(parts):
            backward += part
        assert forward == backward

    def test_copy_is_independent(self):
        stats = SolverStats(queries=4)
        snapshot = stats.copy()
        stats.queries += 10
        assert snapshot.queries == 4
        assert stats.queries == 14

    def test_hit_rate_zero_when_unused(self):
        assert SolverStats().cache_hit_rate == 0.0


class TestSeededFallback:
    """The from-scratch fallback starts from the frame stack's fixpoint."""

    def test_seed_domains_narrow_the_model(self):
        constraints = [ast.ult(X, bv_const(100, 8))]
        seeded = Solver().check(constraints,
                                seed_domains={X: Interval(40, 60)})
        assert seeded.is_sat
        assert 40 <= seeded.model[X] <= 60

    def test_seeds_for_absent_variables_are_ignored(self):
        result = Solver().check([eq(X, bv_const(3, 8))],
                                seed_domains={Y: Interval(1, 2)})
        assert result.is_sat
        assert result.model[X] == 3

    def test_incremental_fallback_agrees_with_scratch(self):
        # A disjunction over two variables defeats the quick-sat candidate
        # (lower bounds violate it), forcing the seeded fallback path.
        rng = random.Random(7)
        for _ in range(50):
            stack = [_random_query(rng) for _ in range(rng.randint(1, 3))]
            flat = tuple(c for q in stack for c in q)
            disjunct = ast.or_(eq(X, bv_const(rng.randint(1, 255), 8)),
                               eq(Y, bv_const(rng.randint(1, 255), 8)))
            query = flat + (disjunct,)
            inc = IncrementalSolver()
            result = inc.check(query)
            scratch = Solver().check(list(query))
            assert result.status == scratch.status, query
