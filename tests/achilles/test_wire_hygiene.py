"""Wire hygiene: everything the transport ships must survive pickling.

The local transport pickles whole :class:`WorkerSession` bundles and
:class:`ShardOutcome` results through ``multiprocessing`` queues. Any
unpicklable or process-local state hiding inside these types (open
files, live solver pools, lambdas) would surface as a confusing failure
deep inside a worker, so this file round-trips every wire-crossing type
explicitly — through a real ``multiprocessing`` queue, not just
``pickle.dumps``.
"""

import itertools
import multiprocessing
import pickle
from dataclasses import replace

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.achilles.report import TrojanFinding
from repro.bench.experiments import FSP_SESSION_MASK
from repro.explore import ShardScheduler, WorkerSession
from repro.explore.shard import ShardOutcome, run_assignment
from repro.solver.solver import SolverStats
from repro.symex.engine import Engine, EngineConfig
from repro.systems import fsp
from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server


def wire_roundtrip(obj):
    """Send ``obj`` through a real ``multiprocessing`` queue — the codec
    between coordinator and shard workers — and return the copy."""
    wire = multiprocessing.get_context().Queue()
    try:
        wire.put(("payload", obj))
        kind, copy = wire.get(timeout=30)
    finally:
        wire.close()
        wire.join_thread()
    assert kind == "payload"
    return copy


@pytest.fixture(scope="module")
def toy_achilles():
    achilles = Achilles(AchillesConfig(layout=TOY_LAYOUT))
    predicates = achilles.extract_clients({"toy": toy_client})
    report = achilles.search(toy_server, predicates)
    return achilles, predicates, report


class TestClientPredicateSet:
    def test_round_trips_through_the_worker_queue(self, toy_achilles):
        _, predicates, _ = toy_achilles
        copy = wire_roundtrip(predicates)
        assert len(copy) == len(predicates)
        # MessageLayout has no structural __eq__; compare what matters.
        assert copy.layout.name == predicates.layout.name
        assert copy.layout.total_size == predicates.layout.total_size
        for original, revived in zip(predicates.predicates, copy.predicates):
            assert revived.index == original.index
            assert revived.client == original.client
            assert revived.payload == original.payload
            # Hash-consed expressions re-intern: identical, not just equal.
            assert revived.constraints == original.constraints
        for original, revived in zip(predicates.negations, copy.negations):
            assert revived.pred_index == original.pred_index
            assert revived.expr is original.expr  # re-interned identity

    def test_different_from_matrix_travels_without_its_row_stacks(
            self, toy_achilles):
        """The matrix ships its memo table; its row stacks and their
        solver stay behind, and the copy computes the entries it lacks
        on a fresh solver of its own."""
        _, predicates, _ = toy_achilles
        original = predicates.different_from
        assert original._rows, "the search computed no entry"
        matrix = wire_roundtrip(predicates).different_from
        assert matrix._rows == {}
        assert matrix._solver.stats.queries == 0
        assert matrix._table == original._table
        for i, j in itertools.product(range(len(predicates)), repeat=2):
            for name in TOY_LAYOUT.field_names:
                assert matrix.different(i, j, name) == \
                    original.different(i, j, name)

    def test_richer_fsp_set_still_picklable(self):
        """The FSP predicate set exercises multi-client extraction and a
        bigger matrix — the actual payload the parity suite ships."""
        commands = dict(itertools.islice(fsp.COMMANDS.items(), 2))
        achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                           mask=FSP_SESSION_MASK))
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        copy = wire_roundtrip(predicates)
        assert len(copy) == len(predicates)
        assert copy.stats == predicates.stats


class TestFspPrograms:
    """Sharded runs ship the FSP server to every worker: it is a
    dataclass over its parameters, not a module function, so the
    parameters travel with it."""

    def test_pinned_server_and_clients_round_trip(self):
        programs = (fsp.fsp_server, fsp.SYSTEM.clients)
        server, clients = wire_roundtrip(programs)
        assert type(server) is type(fsp.fsp_server)
        assert server.params == fsp.FSP_PARAMS
        assert server.params.layout.total_size == fsp.FSP_LAYOUT.total_size
        assert list(clients) == list(fsp.SYSTEM.clients)
        assert all(clients[name] == program
                   for name, program in fsp.SYSTEM.clients.items())
        # The revived programs hunt exactly like the originals.
        with Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                     mask=FSP_SESSION_MASK)) as achilles:
            report = achilles.run(clients, server)
        assert report.trojan_count == 80
        assert fsp.GroundTruth.score(report.witnesses()).coverage == 1.0

    def test_rung_server_keeps_its_path_bound(self):
        rung = fsp.fsp_system(replace(fsp.FSP_PARAMS, path_space=8))
        server = wire_roundtrip(rung.server)
        assert server == rung.server
        assert server.params.path_space == 8
        assert server.params.layout.view("buf").size == 8


class TestShardOutcome:
    def test_full_outcome_round_trips(self):
        """ShardOutcome carries PathResults (with live Expr constraints),
        exploration stats and solver counters — the whole DONE payload."""
        def setup(engine):
            def program(ctx):
                x = ctx.fresh_byte("x")
                ctx.branch(x < 100)
                ctx.branch(x < 10)
            return program, None

        engine = Engine(EngineConfig())
        outcome = run_assignment(engine, *setup(engine), [()])
        copy = wire_roundtrip(outcome)
        assert copy.executed == outcome.executed
        assert copy.solver_stats == outcome.solver_stats
        assert len(copy.paths) == len(outcome.paths)
        for original, revived in zip(outcome.paths, copy.paths):
            assert revived.path_id == original.path_id
            assert revived.verdict == original.verdict
            assert revived.decisions == original.decisions
            # Re-interned constraints are the same objects again.
            for expr_a, expr_b in zip(original.constraints,
                                      revived.constraints):
                assert expr_a is expr_b

    def test_empty_outcome_round_trips(self):
        copy = wire_roundtrip(ShardOutcome())
        assert copy.executed == []
        assert copy.paths == []
        assert copy.records == {}

    def test_trojan_records_round_trip(self, toy_achilles):
        """The Trojan search's per-path records, findings included, as a
        shard worker ships them home inside its outcome."""
        from repro.achilles.server_analysis import _shard_setup

        achilles, predicates, _ = toy_achilles
        engine = Engine(EngineConfig())
        outcome = run_assignment(
            engine, *_shard_setup(engine, toy_server, predicates,
                                  achilles.server_msg, None, "msg"),
            [()])
        findings = [record.finding for record in outcome.records.values()
                    if record.finding is not None]
        assert findings
        assert all(isinstance(f, TrojanFinding) for f in findings)
        copy = wire_roundtrip(outcome)
        assert list(copy.records) == [d for d, _ in outcome.executed]
        assert copy.records == outcome.records


class TestScalarPayloads:
    def test_assignment(self):
        """The task payload a coordinator ships: the roots to explore."""
        from repro.explore import Assignment

        assignment = Assignment(roots=((True,), (False, True)))
        copy = wire_roundtrip(assignment)
        assert copy == assignment
        assert copy.roots == ((True,), (False, True))

    def test_solver_stats(self):
        stats = SolverStats()
        stats.queries = 41
        copy = wire_roundtrip(stats)
        assert copy == stats

    def test_engine_config(self):
        config = EngineConfig()
        copy = wire_roundtrip(config)
        assert copy == config

    def test_trojan_finding(self, toy_achilles):
        _, _, report = toy_achilles
        assert report.findings
        for finding in report.findings:
            copy = wire_roundtrip(finding)
            assert isinstance(copy, TrojanFinding)
            assert copy == finding

    def test_worker_session(self, toy_achilles):
        """The full session-init payload."""
        from repro.achilles.server_analysis import _shard_setup

        achilles, predicates, _ = toy_achilles
        session = WorkerSession(
            setup=_shard_setup,
            setup_args=(toy_server, predicates, achilles.server_msg,
                        None, "msg"),
            engine_config=EngineConfig())
        copy = wire_roundtrip(session)
        assert copy.setup is _shard_setup
        assert copy.engine_config == session.engine_config

    def test_worker_session_with_the_seeded_fsp_trie(self):
        """The session as a sharded FSP hunt ships it: carrying the
        prefix trie the coordinator's seed phase built. Trie keys come
        back as the interned expressions themselves, models equal."""
        from repro.achilles.server_analysis import _shard_setup
        from repro.explore.scheduler import DEFAULT_SEED_FACTOR
        from repro.explore.shard import FrontierControl
        from repro.symex.engine import BFS

        achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                           mask=FSP_SESSION_MASK))
        predicates = achilles.extract_clients(fsp.literal_clients())
        setup_args = (fsp.fsp_server, predicates, achilles.server_msg,
                      None, "msg")
        engine = Engine(EngineConfig())
        program, observer = _shard_setup(engine, *setup_args)
        engine.explore(program, observer,
                       control=FrontierControl(2 * DEFAULT_SEED_FACTOR),
                       order=BFS)
        memo = observer.export_memo()
        session = WorkerSession(setup=_shard_setup, setup_args=setup_args,
                                engine_config=EngineConfig(),
                                observer_memo=memo)

        revived = wire_roundtrip(session).observer_memo
        assert len(revived) == len(memo) > 1
        assert sum(len(row[4]) for row in memo) > 0, "no model to inherit"
        for original, copy in zip(memo, revived):
            parent, constraint, live, trojan, models, trojan_model = copy
            assert parent == original[0]
            assert constraint is original[1]
            assert (live, trojan) == original[2:4]
            assert models == original[4]
            assert trojan_model == original[5]
            pairs = [(original[4][i], models[i]) for i in models]
            pairs.append((original[5] or {}, trojan_model or {}))
            for kept, shipped in pairs:
                assert all(a is b for a, b in zip(kept, shipped))


class TestSolverTerms:
    """The solver's term types, which every payload above carries:
    sorts come back as the singletons, expressions re-intern, and
    intervals come back equal (and still immutable)."""

    def test_sorts_are_the_singletons(self):
        from repro.solver.sorts import BOOL, BitVecSort, BoolSort, bitvec_sort

        sorts = (BOOL, bitvec_sort(8), bitvec_sort(32), BitVecSort(5))
        copy = wire_roundtrip(sorts)
        assert all(a is b for a, b in zip(copy, sorts))
        assert BoolSort() is copy[0]

    def test_expressions_re_intern(self):
        from repro.solver import ast
        from repro.solver.simplify import canonicalize
        from repro.solver.walk import collect_vars

        x, y = ast.bv_var("wx", 8), ast.bv_var("wy", 16)
        exprs = (x, ast.ult(x, ast.bv_const(9, 8)),
                 ast.not_(ast.eq(ast.zext(x, 16) + 1, y)), ast.TRUE)
        for expr in exprs:
            # Warm the memo slots: they must not travel, nor break pickling.
            canonicalize(expr)
            collect_vars(expr)
        copy = wire_roundtrip(exprs)
        assert all(a is b for a, b in zip(copy, exprs))
        assert copy[2].args[0].args[1].sort is y.sort

    def test_intervals(self):
        from repro.solver import interval as iv
        from repro.solver.interval import Interval

        intervals = (Interval(0, 9), iv.full(8), iv.BOOL_FULL)
        copy = wire_roundtrip(intervals)
        assert copy == intervals
        assert all(isinstance(i, Interval) for i in copy)
        with pytest.raises(AttributeError):
            copy[0].lo = 1


class TestWorkerMessages:
    """The other payloads a worker puts on its result queue."""

    def test_heartbeat_gauges(self):
        beat = {"paths": 12, "worklist": 3, "cache_hits": 8,
                "cache_misses": 30}
        assert wire_roundtrip(beat) == beat

    def test_trace_delta(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(source="worker")
        with tracer.span("worker.assignment", roots=1):
            tracer.event("worker.heartbeat", wid=1)
        delta = tracer.take_delta()
        assert delta.records
        copy = wire_roundtrip(delta)
        assert copy == delta

    def test_traced_outcome_keeps_its_trace(self):
        from repro.obs.trace import TraceDelta

        outcome = ShardOutcome(trace=TraceDelta(source="worker",
                                                records=({"name": "x"},)))
        assert wire_roundtrip(outcome).trace == outcome.trace


class TestSchedulerSessionIsPicklable:
    def test_scheduler_builds_a_picklable_session(self):
        """What _fan_out would ship must survive pickle even before any
        transport is involved — catching hygiene regressions without a
        worker process in the loop."""
        def module_level_stand_in(engine):  # pragma: no cover - shipped
            return None, None

        scheduler = ShardScheduler(tree_setup, (3,), shards=2)
        scheduler.engine.explore(*tree_setup(scheduler.engine, 3))
        session = WorkerSession(
            setup=scheduler.setup, setup_args=scheduler.setup_args,
            engine_config=scheduler.engine.config)
        revived = pickle.loads(pickle.dumps(session))
        assert revived.setup is tree_setup
        assert revived.setup_args == (3,)


def tree_setup(engine, depth):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
    return program, None
