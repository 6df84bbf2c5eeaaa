"""Microbenchmarks of the solver on Achilles-shaped queries.

Not a paper figure — this measures the substituted substrate itself, so
regressions in the solver (the repo's hot path) show up in benchmark
history. Rounds > 1 give pytest-benchmark real statistics, unlike the
experiment benches which run once.

The repeated-query benchmarks at the bottom exercise the two reuse
layers below canonicalization: the canonical query cache
(:mod:`repro.solver.cache`) on literally-repeated queries, and the
incremental assertion stack (:mod:`repro.solver.incremental`) on
extend-by-one / push-pop sequences that share prefixes without repeating.
Both report measured speedups against a from-scratch ``Solver.check`` and
persist machine-readable ``BENCH_*.json`` artifacts; the incremental
speedup assertion is the CI perf smoke gate.
"""

import sys
import time

import pytest

from repro.achilles import Achilles, AchillesConfig, server_analysis
from repro.bench.experiments import FSP_SESSION_MASK
from repro.messages.symbolic import message_vars, wire_equalities
from repro.solver import ast
from repro.solver.ast import bv_const, bv_var
from repro.solver.cache import QueryCache
from repro.solver import interval as iv
from repro.solver.incremental import IncrementalSolver
from repro.solver.propagate import (
    TrailDomains,
    build_var_index,
    initial_domains,
    propagate_delta,
)
from repro.solver.simplify import _fingerprint, canonicalize
from repro.solver.solver import Solver
from repro.solver.sorts import BOOL, BV8
from repro.solver.walk import collect_vars, expr_size
from repro.symex.engine import Engine, EngineConfig
from repro.systems.fsp import FSP_LAYOUT, fsp_server, literal_clients
from repro.systems.toy import TOY_LAYOUT
from repro.systems.toy.protocol import toy_checksum


def test_feasibility_query_toy_crc(benchmark):
    """A toy-server path condition with the real additive checksum."""
    msg = message_vars(TOY_LAYOUT)
    crc = toy_checksum(list(msg[:10]))
    constraints = [
        ast.or_(ast.eq(msg[0], bv_const(1, 8)), ast.eq(msg[0], bv_const(2, 8))),
        ast.eq(msg[10], crc),
        ast.eq(msg[1], bv_const(1, 8)),
    ]

    def solve():
        return Solver().check(constraints).is_sat

    assert benchmark(solve)


def test_combination_query_fsp(benchmark):
    """A pathS ∧ pathC combination: equalities + range constraints."""
    server = message_vars(FSP_LAYOUT, "s")
    value = bv_var("arg", 8)
    client = tuple(
        [bv_const(0x41, 8), bv_const(0x5A, 8)]
        + [bv_const(0, 8)] * 10 + [value]
        + [bv_const(0, 8)] * (FSP_LAYOUT.total_size - 13))
    constraints = (
        wire_equalities(server, client)
        + [ast.uge(value, bv_const(33, 8)), ast.ule(value, bv_const(126, 8))]
        + [ast.eq(server[0], bv_const(0x41, 8))])

    def solve():
        return Solver().check(constraints).is_sat

    assert benchmark(solve)


def test_negation_disjunction_query(benchmark):
    """A Trojan query shape: path condition + many negation disjuncts."""
    msg = message_vars(FSP_LAYOUT, "m")
    negations = []
    for index in range(16):
        fresh = bv_var(f"~{index}", 8)
        negations.append(ast.or_(
            ast.ne(msg[0], bv_const(0x41 + index % 8, 8)),
            ast.and_(ast.eq(msg[12], fresh),
                     ast.not_(ast.ult(fresh, bv_const(100, 8))))))
    constraints = [ast.eq(msg[0], bv_const(0x41, 8))] + negations

    def solve():
        return Solver().check(constraints).is_sat

    assert benchmark(solve)


def test_wide_variable_byte_split(benchmark):
    """32-bit signed bounds + equality: exercises byte splitting."""
    x = bv_var("x", 32)
    constraints = [x.slt(0), ast.eq(ast.extract(x, 7, 0), bv_const(5, 8))]

    def solve():
        result = Solver().check(constraints)
        return result.is_sat and result.value(x) >= 1 << 31

    assert benchmark(solve)


def test_unsat_proof(benchmark):
    """Unsat answers are complete proofs over the finite domains."""
    msg = message_vars(TOY_LAYOUT)
    constraints = [msg[2] < 10, msg[2] > 20]

    def solve():
        return not Solver().check(constraints).is_sat

    assert benchmark(solve)


# -- repeated-query workloads (the Achilles hot path) -------------------------


def _incremental_queries():
    """The §3.2 query shape: every prefix of a growing path condition,
    combined with a rotating set of client predicates — the same queries
    recur across predicates, replays and syntactic variants."""
    msg = message_vars(TOY_LAYOUT)
    crc = toy_checksum(list(msg[:10]))
    path = [
        ast.or_(ast.eq(msg[0], bv_const(1, 8)), ast.eq(msg[0], bv_const(2, 8))),
        ast.eq(msg[10], crc),
        ast.eq(msg[1], bv_const(1, 8)),
        msg[2] < 100,
        msg[3] >= 7,
    ]
    predicates = [
        (ast.eq(msg[1], bv_const(1, 8)),),
        (msg[2] < 100, msg[3] >= 7),
        # Syntactic variants of the two above: commuted equality operands
        # and negation-flipped comparisons canonicalize onto the same keys.
        (ast.eq(bv_const(1, 8), msg[1]),),
        (ast.not_(msg[2] >= 100), ast.not_(msg[3] < 7)),
    ]
    queries = []
    for hi in range(1, len(path) + 1):
        prefix = tuple(path[:hi])
        for pred in predicates:
            queries.append(prefix + pred)
    return queries


def test_repeated_queries_with_cache(benchmark):
    """The cached hot path: every round after the first is pure lookups."""
    queries = _incremental_queries()
    engine = Engine(EngineConfig())

    def run():
        return [engine.is_feasible(q) for q in queries]

    results = benchmark(run)
    assert any(results)
    stats = engine.query_cache.stats
    assert stats.hits > 0, "repeated workload must produce cache hits"
    assert stats.hit_rate > 0.5


def test_cache_speedup_on_repeated_queries(json_artifact):
    """Acceptance gate: ≥1.5× on repeated-query workloads, nonzero hit rate.

    Compares one engine answering the workload ``rounds`` times against a
    cache-less baseline (a fresh Solver per query, the pre-cache behavior
    of the module-level ``check``).
    """
    queries = _incremental_queries()
    rounds = 20

    started = time.perf_counter()
    for _ in range(rounds):
        for q in queries:
            Solver().check(q)
    uncached = time.perf_counter() - started

    engine = Engine(EngineConfig())
    started = time.perf_counter()
    for _ in range(rounds):
        for q in queries:
            engine.is_feasible(q)
    cached = time.perf_counter() - started

    stats = engine.query_cache.stats
    speedup = uncached / cached if cached else float("inf")
    print(f"\nrepeated-query workload: uncached {uncached:.3f}s, "
          f"cached {cached:.3f}s, speedup {speedup:.1f}x, "
          f"hit rate {stats.hit_rate:.1%}")
    json_artifact("solver_cache", {
        "workload": "repeated canonical queries",
        "queries_per_round": len(queries),
        "rounds": rounds,
        "uncached_seconds": round(uncached, 6),
        "cached_seconds": round(cached, 6),
        "speedup": round(speedup, 2),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
    })
    assert stats.hit_rate > 0.5
    assert speedup >= 1.5


# -- incremental push/pop workloads (prefix-sharing, not repeating) ------------


def _extend_by_one_workload():
    """Extend-by-one PC growth with per-prefix probes — the exploration
    hot path: every branch appends one conjunct, and the Trojan search
    poses ``pc + probe`` push/pop patterns against each prefix. No query
    repeats exactly (the canonical cache cannot help); consecutive
    queries share long prefixes (the frame stack can)."""
    msg = message_vars(TOY_LAYOUT)
    crc = toy_checksum(list(msg[:10]))
    path = [
        ast.or_(ast.eq(msg[0], bv_const(1, 8)), ast.eq(msg[0], bv_const(2, 8))),
        ast.eq(msg[10], crc),
        ast.eq(msg[1], bv_const(1, 8)),
        msg[2] < 100,
        msg[3] >= 7,
        ast.ne(msg[4], bv_const(0, 8)),
        msg[5] <= 9,
        msg[6] > 1,
        ast.eq(msg[7], msg[8]),
        msg[9] < 200,
    ]
    probes = [
        (ast.eq(msg[2], bv_const(5, 8)),),
        (msg[3] < 50, ast.ne(msg[1], bv_const(0, 8))),
        (msg[2] > 150,),  # conflicts with the prefix: an unsat probe
    ]
    queries = []
    for hi in range(1, len(path) + 1):
        prefix = tuple(path[:hi])
        queries.append(prefix)
        for probe in probes:
            queries.append(prefix + probe)
    return queries


def test_incremental_answers_match_scratch():
    """Every extend-by-one query: frame-stack answer == from-scratch answer."""
    queries = _extend_by_one_workload()
    incremental = IncrementalSolver()
    for query in queries:
        assert (incremental.check(query).status
                == Solver().check(query).status)


def test_incremental_speedup_on_extend_by_one(json_artifact):
    """Acceptance gate (CI perf smoke): the push/pop assertion stack must
    beat from-scratch ``Solver.check`` by ≥2× on extend-by-one sequences.

    Measures the same query list both ways; the incremental side aligns
    its frame stack per query (pop the dead suffix, push the new
    conjuncts), so prefix propagation is paid once per prefix instead of
    once per query.
    """
    queries = _extend_by_one_workload()
    rounds = 5
    # Warm the global canonicalization/interning memos so neither side
    # pays first-touch rewriting inside the measured region.
    Solver().check(queries[-1])

    started = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            Solver().check(query)
    scratch = time.perf_counter() - started

    incremental = IncrementalSolver()
    started = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            incremental.check(query)
    stacked = time.perf_counter() - started

    stats = incremental.solver.stats
    speedup = scratch / stacked if stacked else float("inf")
    quick_rate = (stats.quick_sats + stats.quick_unsats) / stats.queries
    print(f"\nextend-by-one workload: from-scratch {scratch:.3f}s, "
          f"incremental {stacked:.3f}s, speedup {speedup:.1f}x, "
          f"frames reused {stats.frames_reused}, "
          f"quick-answer rate {quick_rate:.1%}")
    json_artifact("solver_incremental", {
        "workload": "extend-by-one push/pop sequence",
        "queries_per_round": len(queries),
        "rounds": rounds,
        "scratch_seconds": round(scratch, 6),
        "incremental_seconds": round(stacked, 6),
        "speedup": round(speedup, 2),
        "frames_pushed": stats.frames_pushed,
        "frames_reused": stats.frames_reused,
        "quick_sats": stats.quick_sats,
        "quick_unsats": stats.quick_unsats,
        "incremental_fallbacks": stats.incremental_fallbacks,
        "propagation_seconds": round(stats.propagation_seconds, 6),
    })
    assert speedup >= 2.0
    assert stats.frames_reused > stats.frames_pushed


def test_observer_decides_most_fresh_prefixes(json_artifact, monkeypatch):
    """Deterministic count gate on one serial FSP hunt: the Trojan
    observer's prefix trie decides most fresh-prefix questions itself —
    a parent's model that satisfies the appended constraint proves SAT,
    and the constraint being false over a predicate's own propagated
    intervals proves it dead — so few drop-step probes and Trojan
    queries reach the engine, and the hunt poses at most 1,000 solver
    queries (1,907 before the shortcuts). Counts, not time: the gate
    cannot flake."""
    observers = []

    class Recording(server_analysis.TrojanSearchObserver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            observers.append(self)

    monkeypatch.setattr(server_analysis, "TrojanSearchObserver", Recording)
    with Achilles(AchillesConfig(layout=FSP_LAYOUT,
                                 mask=FSP_SESSION_MASK)) as achilles:
        report = achilles.search(
            fsp_server, achilles.extract_clients(literal_clients()))
    observer, = observers
    answered = dict(sorted(observer.answered.items()))
    print(f"\nobserver answers: {answered}; "
          f"solver queries {report.solver_queries}")
    json_artifact("observer_shortcuts", {
        "workload": "serial FSP hunt (Table 1)",
        "answered": answered,
        "solver_queries": report.solver_queries,
        "cache_misses": report.cache_misses,
        "findings": len(report.findings),
    })
    assert len(report.findings) == 80
    assert answered["drop.engine"] <= 40
    assert answered["trojan.engine"] <= 330
    assert report.solver_queries <= 1_000


def test_check_current_evaluates_only_changed_conjuncts(json_artifact,
                                                        monkeypatch):
    """Deterministic count gate: on an extend-by-one stack over distinct
    variables, ``check_current`` verifies its candidate model by delta,
    so each step evaluates the new conjunct alone — O(1) per step — where
    full verification evaluates every conjunct on the stack (O(depth)).
    Counts conjunct evaluations, not time, so the gate cannot flake."""
    from repro.solver import incremental as incremental_module

    depth = 64
    variables = [bv_var(f"v{i}", 8) for i in range(depth)]
    path = tuple(var > i % 200 for i, var in enumerate(variables))

    def walk():
        stack = IncrementalSolver()
        return [stack.check(path[:hi]).is_sat for hi in range(1, depth + 1)]

    started = time.perf_counter()
    assert all(walk())
    wall = time.perf_counter() - started

    counts = []
    real_holds = incremental_module.holds

    def counting_holds(*args):
        counts[-1] += 1
        return real_holds(*args)

    monkeypatch.setattr(incremental_module, "holds", counting_holds)
    stack = IncrementalSolver()
    for hi in range(1, depth + 1):
        counts.append(0)
        assert stack.check(path[:hi]).is_sat
    full = depth * (depth + 1) // 2  # every conjunct, at every check
    print(f"\ndelta verification: {sum(counts)} conjunct evaluations over "
          f"{depth} extend-by-one checks (full verification: {full}), "
          f"walk {wall * 1000:.1f} ms")
    json_artifact("check_current_delta", {
        "workload": "extend-by-one stack over 64 distinct variables",
        "depth": depth,
        "evaluations_per_check": counts,
        "evaluations_total": sum(counts),
        "full_verification_total": full,
        "walk_seconds": round(wall, 6),
    })
    assert max(counts) <= 2


def test_trail_pop_is_cheaper_than_repropagation(benchmark):
    """pop() must be O(changes): popping and re-pushing one probe conjunct
    at the end of a deep stack, timed."""
    queries = _extend_by_one_workload()
    deep = queries[-2]  # longest prefix plus a probe
    incremental = IncrementalSolver()
    incremental.check(deep)
    probe = deep[-1]

    def pop_push():
        incremental.pop()
        incremental.push(probe)
        return incremental.check_current().status

    assert benchmark(pop_push) == "sat"


def test_cross_engine_cache_reuse(benchmark):
    """Two engines sharing one QueryCache (the two Achilles phases)."""
    queries = _incremental_queries()
    shared = QueryCache()
    warm = Engine(EngineConfig(), query_cache=shared)
    for q in queries:
        warm.is_feasible(q)

    def second_phase():
        engine = Engine(EngineConfig(), query_cache=shared)
        for q in queries:
            engine.is_feasible(q)
        return engine.solver.stats.queries

    solver_calls = benchmark(second_phase)
    assert solver_calls == 0  # everything answered by the shared cache


# -- term kernels: the per-node operations under every layer -------------------


def _term_kernel_ops():
    """Named zero-argument callables, one per per-node operation: intern
    hits (a node rebuilt while alive), memo hits on a warmed node, sort
    compares and hashes, and interval construction."""
    x, y = bv_var("kx", 8), bv_var("ky", 8)
    node = ast.not_(ast.ult(ast.add(x, y), bv_const(9, 8)))
    for warm in (canonicalize, collect_vars, expr_size, _fingerprint):
        warm(node)
    add_node = ast.add(x, y)
    # Kept alive, so every rebuild through the simplifying constructor is
    # an intern hit rather than a new node that dies at once.
    ult_node = ast.ult(add_node, y)
    sort = x.sort
    table = {BV8: 1, BOOL: 0}
    return (node, ult_node), {
        "intern_hit_expr": lambda: ast.Expr("add", BV8, (x, y)),
        "intern_hit_ult": lambda: ast.ult(add_node, y),
        "memo_hit_canonicalize": lambda: canonicalize(node),
        "memo_hit_collect_vars": lambda: collect_vars(node),
        "memo_hit_expr_size": lambda: expr_size(node),
        "memo_hit_fingerprint": lambda: _fingerprint(node),
        "sort_eq": lambda: sort == BOOL,
        "sort_ne": lambda: sort != BV8,
        "sort_hash_lookup": lambda: table[sort],
        "interval_new": lambda: iv.Interval(3, 9),
        "interval_full": lambda: iv.full(8),
    }


def test_term_kernels_stay_in_c(json_artifact):
    """Deterministic count gate: intern hits, per-node memo hits and sort
    compares make no Python-level call into ``repro.solver.sorts`` or
    ``weakref``. Sorts are identity-hashed singletons, the memos are slots
    on the node and the intern table is a plain dict of weak references,
    so those steps run in C. An intern hit through a simplifying
    constructor (``ast.ult`` on two live bitvector nodes) makes two
    Python calls, the constructor and ``Expr.__new__``: its fast path
    reads no property and calls no ``Expr.__eq__`` or sort check. Counts
    Python frames with ``sys.setprofile`` over 1,000 rounds of each
    operation; the per-operation timings are recorded in
    ``BENCH_term_kernels.json`` but not gated."""
    rounds = 1_000
    live, ops = _term_kernel_ops()
    gated = [name for name in ops if not name.startswith("interval")]
    calls: dict[str, dict[str, int]] = {}

    for name in gated:
        op = ops[name]
        modules = calls[name] = {}

        def profile(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "?")
                if module != __name__:  # not the op's own lambda
                    modules[module] = modules.get(module, 0) + 1

        sys.setprofile(profile)
        try:
            for _ in range(rounds):
                op()
        finally:
            sys.setprofile(None)

    timed_rounds = 20_000
    ns_per_op = {}
    # Each figure includes one lambda call; "call_overhead" is its cost.
    for name, op in [("call_overhead", lambda: None), *ops.items()]:
        started = time.perf_counter_ns()
        for _ in range(timed_rounds):
            op()
        ns_per_op[name] = round(
            (time.perf_counter_ns() - started) / timed_rounds, 1)
    print(f"\nterm kernels (ns/op): {ns_per_op}")
    json_artifact("term_kernels", {
        "workload": "per-node term operations on a warmed 8-bit node",
        "rounds_counted": rounds,
        "rounds_timed": timed_rounds,
        "python_calls_by_module": calls,
        "ns_per_op": ns_per_op,
    })
    for name, modules in calls.items():
        assert "repro.solver.sorts" not in modules, (name, modules)
        assert "weakref" not in modules, (name, modules)
    # Sort compares and hashes never enter a Python frame at all.
    for name in ("sort_eq", "sort_ne", "sort_hash_lookup"):
        assert calls[name] == {}, (name, calls[name])
    assert calls["intern_hit_ult"] == {"repro.solver.ast": 2 * rounds}, \
        calls["intern_hit_ult"]


# -- propagation kernel: the interval interpreter above the term kernels -------


def _kernel_conjuncts():
    """A fixed, satisfiable FSP Trojan-query conjunct set: a server
    path's field equalities (command, checksum and session stubs, a path
    length of 2, then one printable path byte and a NUL) and the
    negation disjunctions of four client predicates, shaped as a hunt
    poses them (one per path length 1-4, each binding the path bytes to
    fresh client arguments)."""
    msg = message_vars(FSP_LAYOUT, "msg")

    def byte(value):
        return bv_const(value, 8)

    def printable(term):
        return ast.and_(ast.ule(byte(33), term), ast.ule(term, byte(126)))

    conjuncts = [ast.eq(msg[index], byte(value)) for index, value in
                 enumerate((0x41, 0x5A, 0x12, 0x34, 0x00, 0x01, 0x00, 0x02))]
    conjuncts += [printable(msg[12]), ast.eq(msg[13], byte(0))]
    for length in range(1, 5):
        args = [bv_var(f"~{length}.buf.arg[{i}]", 8) for i in range(5)]
        shorter = [arm for arg in args[:length]
                   for arm in (ast.eq(arg, byte(0)), ast.not_(printable(arg)))]
        conjuncts.append(ast.or_(
            ast.ne(msg[0], byte(0x41)),
            ast.not_(ast.and_(ast.eq(msg[6], byte(0)),
                              ast.eq(msg[7], byte(length)))),
            ast.and_(*[ast.eq(msg[12 + i], arg) for i, arg in enumerate(args)],
                     ast.or_(*shorter, ast.ne(args[length], byte(0))))))
    return conjuncts


def test_propagation_kernel_call_count(json_artifact):
    """Deterministic count gate on the propagation kernel: the Python
    calls one ``propagate_delta`` makes from full ranges on
    :func:`_kernel_conjuncts`. The kernel dispatches on per-operator
    tables, answers variables and constants before its forward cache,
    keeps one forward cache for the whole fixpoint and reads the write
    trail in place. The string-compare kernel it replaced made 1,952 calls
    here; the gate holds the kernel to half of that. Counts Python frames with ``sys.setprofile``, not time,
    so the gate cannot flake; the fixpoint itself is pinned by the
    conformance suite's fixpoint digests."""
    conjuncts = _kernel_conjuncts()
    domains = TrailDomains(initial_domains(conjuncts))
    var_index = build_var_index(conjuncts)
    calls: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_name
            calls[name] = calls.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        ok = propagate_delta(domains, var_index, conjuncts)
    finally:
        sys.setprofile(None)
    total = sum(calls.values())
    print(f"\npropagation kernel: {total} Python calls, "
          f"{len(domains._trail)} domain writes")
    json_artifact("propagation_kernel", {
        "workload": "one propagate_delta over a fixed FSP conjunct set",
        "conjuncts": len(conjuncts),
        "domain_writes": len(domains._trail),
        "python_calls": total,
        "python_calls_by_function": dict(sorted(calls.items())),
    })
    assert ok
    assert total <= 1_952 // 2
