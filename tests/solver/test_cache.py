"""Tests for expression interning and the canonical query cache."""

from repro.solver import ast
from repro.solver.ast import and_, bool_var, bv_const, bv_var, eq, not_, or_, ule, ult
from repro.solver.cache import QueryCache
from repro.solver.solver import Solver
from repro.symex.engine import Engine, EngineConfig

X = bv_var("x", 8)
Y = bv_var("y", 8)


class TestInterning:
    def test_equal_constructions_are_identical(self):
        e1 = (X + 1) * Y
        e2 = (bv_var("x", 8) + 1) * bv_var("y", 8)
        assert e1 is e2

    def test_distinct_constructions_are_distinct(self):
        assert (X + 1) is not (X + 2)
        assert bv_var("x", 8) is not bv_var("x", 16)
        assert bv_var("a", 8) is not bool_var("a")

    def test_interning_spans_operator_families(self):
        assert ult(X, Y) is ult(X, Y)
        assert and_(bool_var("p"), bool_var("q")) is \
            and_(bool_var("p"), bool_var("q"))
        assert ast.extract(X, 7, 4) is ast.extract(X, 7, 4)

    def test_copy_and_pickle_preserve_identity(self):
        import copy
        import pickle

        expr = or_(eq(X, bv_const(3, 8)), ult(X, Y))
        assert copy.copy(expr) is expr
        assert copy.deepcopy(expr) is expr
        assert pickle.loads(pickle.dumps(expr)) is expr

    def test_structural_equality_matches_identity(self):
        e1 = not_(ule(X, Y))
        e2 = not_(ule(X, Y))
        assert e1 == e2 and e1 is e2
        assert hash(e1) == hash(e2)

    def test_transient_expressions_are_reclaimed(self):
        """Interning and the per-node memos must not pin dead expressions:
        once the last formula referencing a node goes, reference counting
        alone frees it — no memo slot forms a cycle the garbage collector
        would have to break — and its intern-table entry goes with it."""
        import gc
        import weakref

        from repro.solver.simplify import _fingerprint, canonicalize
        from repro.solver.walk import collect_vars, expr_size

        def churn(watched):
            for i in range(500):
                x = bv_var(f"transient{i}", 8)
                y = bv_var(f"transient_rhs{i}", 8)
                for expr in ((x + 3) * y,          # canonical already
                             not_(ult(x, y)),      # canonicalizes to ule(y, x)
                             eq(bv_const(i % 256, 8), (y + x) + 1)):
                    canonical = canonicalize(expr)
                    for node in (expr, canonical, x):
                        collect_vars(node)
                        expr_size(node)
                        _fingerprint(node)
                    if i == 0:
                        watched += [weakref.ref(node)
                                    for node in (x, expr, canonical)]

        gc.collect()
        baseline = len(ast._INTERN_TABLE)
        watched = []
        gc.disable()
        try:
            churn(watched)
            assert watched and all(ref() is None for ref in watched), \
                "a churned node outlived its last reference (memo cycle?)"
            assert len(ast._INTERN_TABLE) == baseline, "intern table leaked"
        finally:
            gc.enable()


class TestQueryCache:
    def test_feasibility_miss_then_hit(self):
        cache = QueryCache()
        key = cache.key([ult(X, bv_const(10, 8))])
        assert cache.get_feasible(key) is None
        cache.put_feasible(key, True)
        assert cache.get_feasible(key) is True
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_syntactic_variants_share_an_entry(self):
        cache = QueryCache()
        cache.put_feasible(cache.key([and_(ult(X, Y), eq(Y, bv_const(9, 8)))]),
                           True)
        variant = [eq(bv_const(9, 8), Y), not_(ule(Y, X))]
        assert cache.get_feasible(cache.key(variant)) is True

    def test_trivially_unsat_key(self):
        cache = QueryCache()
        key = cache.key([ult(X, Y), ast.FALSE])
        assert cache.is_trivially_unsat(key)

    def test_model_entries_imply_feasibility(self):
        cache = QueryCache()
        key = cache.key([eq(X, bv_const(5, 8))])
        cache.put_model(key, {X: 5})
        assert cache.get_feasible(key) is True
        hit, model = cache.get_model(key)
        assert hit and model == {X: 5}

    def test_hit_rate(self):
        cache = QueryCache()
        assert cache.stats.hit_rate == 0.0
        key = cache.key([ult(X, Y)])
        cache.get_feasible(key)          # miss
        cache.put_feasible(key, True)
        cache.get_feasible(key)          # hit
        assert cache.stats.hit_rate == 0.5

    def test_no_disk_store_surface(self):
        """The cache lives in memory for one run: nothing attaches a
        store, preloads from one or flushes to one."""
        cache = QueryCache()
        for name in ("attach_store", "preload_feasible", "preload_model",
                     "is_disk_loaded", "flush_store", "peek_model"):
            assert not hasattr(cache, name), name

    def test_no_snapshot_surface(self):
        """Entries never cross engines: a cache is filled only by the
        lookups of the engine that owns it."""
        cache = QueryCache()
        for name in ("snapshot", "absorb"):
            assert not hasattr(cache, name), name

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = QueryCache()
        key = cache.key([ult(X, Y)])
        cache.put_feasible(key, True)
        cache.get_feasible(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.get_feasible(key) is None


class TestEngineCaching:
    def test_repeated_is_feasible_hits_cache(self):
        engine = Engine(EngineConfig())
        pc = (ult(X, bv_const(10, 8)), eq(Y, X + 1))
        assert engine.is_feasible(pc)
        queries_after_first = engine.solver.stats.queries
        assert engine.is_feasible(pc)
        assert engine.solver.stats.queries == queries_after_first
        assert engine.solver.stats.cache_hits == 1
        assert engine.solver.stats.cache_misses == 1

    def test_variant_queries_hit_the_same_entry(self):
        engine = Engine(EngineConfig())
        assert engine.is_feasible((and_(ult(X, Y), eq(Y, bv_const(9, 8))),))
        queries = engine.solver.stats.queries
        # Reordered, commuted, and negation-flipped variant of the same query.
        assert engine.is_feasible((eq(bv_const(9, 8), Y), not_(ule(Y, X))))
        assert engine.solver.stats.queries == queries

    def test_trivially_false_query_skips_the_solver(self):
        engine = Engine(EngineConfig())
        assert not engine.is_feasible((ult(X, X),))
        assert engine.solver.stats.queries == 0

    def test_solve_returns_cached_model_with_defaults(self):
        engine = Engine(EngineConfig())
        first = engine.solve((eq(X, bv_const(5, 8)),))
        assert first is not None and first[X] == 5
        # A canonically-equal query mentioning an extra (folded-away)
        # variable still gets a complete model.
        again = engine.solve((eq(X, bv_const(5, 8)), eq(Y, Y)))
        assert again is not None and again[X] == 5
        assert again.get(Y, 0) == 0

    def test_shared_cache_across_engines(self):
        shared = QueryCache()
        first = Engine(EngineConfig(), query_cache=shared)
        second = Engine(EngineConfig(), query_cache=shared)
        pc = (ult(X, bv_const(100, 8)),)
        assert first.is_feasible(pc)
        assert second.is_feasible(pc)
        assert second.solver.stats.queries == 0
        assert shared.stats.hits == 1

    def test_repeated_exploration_hits_the_cache(self):
        """Re-exploring the same program re-poses every branch query."""

        def program(ctx):
            x = ctx.fresh_byte("x")
            ctx.branch(x < 100)
            ctx.branch(x.eq(5))

        engine = Engine(EngineConfig())
        engine.explore(program)
        misses_first = engine.query_cache.stats.misses
        assert misses_first > 0
        engine.explore(program)
        stats = engine.query_cache.stats
        assert stats.misses == misses_first  # second run adds no misses
        assert stats.hits >= misses_first
        assert stats.hit_rate > 0.0
