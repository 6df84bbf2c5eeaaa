"""Differential conformance suite: every solver layer is one oracle.

The pipeline's fast paths — canonicalization, the shared
:class:`QueryCache`, the :class:`IncrementalSolver` frame stack, and
:class:`SolverService` dispatch — are each pinned
against from-scratch :meth:`Solver.check` pairwise elsewhere. This suite
is the N-way version: hypothesis generates random small protocol layouts
plus constraint sets over their fields, and every layer must return the
same answer (and a genuinely satisfying model) for

* from-scratch ``Solver().check`` at every prefix depth,
* ``IncrementalSolver`` at every push depth, including after pops,
* ``QueryCache``-fronted ``Engine.is_feasible`` calls (miss, replay hit,
  and the canonically-equal reordered variant),
* ``Engine.probe_feasible_batch`` along a depth-first walk of a prefix
  (extend, backtrack, extend a sibling) against fixed multi-conjunct
  probes, on the engine's main frame stack and with
  ``EngineConfig.incremental`` off, and one long-lived
  ``IncrementalSolver`` whose verification memo carries across
  siblings, against a fresh stack at every node (status and model),
* the Trojan observer's trie shortcuts along the same walk: a model of
  ``prefix + probe`` extended to the appended constraint
  (``extend_model``, missing variables at 0) must satisfy the child
  query, and a refutation over the probe's own propagation fixpoint
  (``refutes``) must be a child query the solver finds UNSAT,
* an engine fronted by an *absorbed* cache snapshot
  (``QueryCache.snapshot()`` → ``absorb()``), which must answer every
  prefix depth identically — and entirely from cache hits,
* ``SolverService.check_batch`` / ``probe_batch``, whose one shared
  frame stack must give the same answers in any query order and with
  the two surfaces interleaved, and whose probes must agree with the
  engine's (``Engine.probe_feasible_batch``).

The hypothesis profile is derandomized (fixed seed) with the deadline
disabled, so the suite is reproducible on 1-core CI runners; CI runs it
as its own job step.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import field_expr, message_vars
from repro.solver import ast
from repro.solver.ast import bv_const
from repro.solver.cache import QueryCache
from repro.solver.evalmodel import all_hold, extend_model
from repro.solver.incremental import IncrementalSolver
from repro.solver.propagate import fixpoint, refutes
from repro.solver.service import SolverService
from repro.solver.solver import Solver
from repro.solver.walk import collect_vars_all
from repro.symex.engine import Engine, EngineConfig

settings.register_profile(
    "conformance",
    deadline=None,             # solver calls dwarf the default 200ms budget
    derandomize=True,          # fixed seed: reproducible on any runner
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
CONFORMANCE = settings.get_profile("conformance")

_COMPARISONS = ("eq", "ne", "ult", "ule", "slt", "sle")
_ARITH = ("add", "sub", "bvand", "bvor", "bvxor")


@st.composite
def layouts(draw):
    """A random small protocol layout: 2-4 fields of 1-2 bytes."""
    widths = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=4))
    return MessageLayout("conf", [
        Field(f"f{i}", width) for i, width in enumerate(widths)])


def _field_term(layout, wire, spec):
    """One arithmetic term over a drawn field of the layout."""
    arith, field_index, constant = spec
    view = layout.fields[field_index % len(layout.fields)]
    expr = field_expr(wire, layout.view(view.name))
    op = _ARITH[arith % len(_ARITH)]
    return getattr(ast, op)(expr, bv_const(constant & ((1 << expr.width) - 1),
                                           expr.width))


def _constraint(layout, wire, spec):
    comparison, negate, term_spec, constant = spec
    term = _field_term(layout, wire, term_spec)
    rhs = bv_const(constant & ((1 << term.width) - 1), term.width)
    pred = getattr(ast, _COMPARISONS[comparison % len(_COMPARISONS)])(term, rhs)
    return ast.not_(pred) if negate else pred


CONSTRAINT_SPEC = st.tuples(
    st.integers(0, 5), st.booleans(),
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 0xFFFF)),
    st.integers(0, 0xFFFF))


@st.composite
def workloads(draw):
    """A layout plus a constraint conjunction over its fields."""
    layout = draw(layouts())
    wire = message_vars(layout, "conf_msg")
    specs = draw(st.lists(CONSTRAINT_SPEC, min_size=1, max_size=4))
    return layout, [_constraint(layout, wire, spec) for spec in specs]


def _reference_answers(constraints):
    """From-scratch `Solver.check` at every prefix depth — the oracle."""
    return [Solver().check(constraints[:depth + 1])
            for depth in range(len(constraints))]


@CONFORMANCE
@given(workload=workloads())
def test_incremental_agrees_at_every_push_depth(workload):
    _, constraints = workload
    reference = _reference_answers(constraints)
    incremental = IncrementalSolver()
    for depth, conjunct in enumerate(constraints):
        incremental.push(conjunct)
        result = incremental.check_current()
        assert result.is_sat == reference[depth].is_sat, f"depth {depth}"
        if result.is_sat:
            assert all_hold(constraints[:depth + 1], dict(result.model))
    # Pop back to half depth: the trail must restore the exact fixpoint.
    half = len(constraints) // 2
    while incremental.depth > half:
        incremental.pop()
    if half:
        result = incremental.check_current()
        assert result.is_sat == reference[half - 1].is_sat


@CONFORMANCE
@given(workload=workloads())
def test_query_cache_fronted_engine_agrees(workload):
    _, constraints = workload
    reference = Solver().check(constraints)
    cache = QueryCache()
    engine = Engine(query_cache=cache)
    query = tuple(constraints)
    assert engine.is_feasible(query) == reference.is_sat
    # Replay: the identical query must be answered from the cache.
    hits_before = cache.stats.hits
    assert engine.is_feasible(query) == reference.is_sat
    assert cache.stats.hits == hits_before + 1
    # A canonically-equal variant (reordered conjuncts) hits the same
    # entry even on a *fresh* engine sharing the cache.
    variant = tuple(reversed(constraints))
    hits_before = cache.stats.hits
    assert Engine(query_cache=cache).is_feasible(variant) == reference.is_sat
    assert cache.stats.hits == hits_before + 1


#: Fixed multi-conjunct probes (as CONSTRAINT_SPEC tuples): field indices
#: wrap modulo the drawn layout, so they apply to every layout.
_PROBE_SPECS = (
    ((2, False, (0, 0, 0), 0x80), (3, False, (0, 1, 0), 0x40)),
    ((0, True, (1, 0, 3), 9), (4, False, (0, 1, 0), 200),
     (1, False, (2, 2, 0x0F), 5)),
    ((5, True, (3, 1, 0x21), 0x7F), (0, False, (4, 3, 0x55), 0x12)),
)

#: One step of a prefix walk: None backtracks, (index, negate) extends
#: the prefix with the drawn constraint at ``index`` (or its negation,
#: the branch's other direction).
WALK_MOVE = st.one_of(st.none(), st.tuples(st.integers(0, 3), st.booleans()))


@st.composite
def prefix_walks(draw):
    """A layout, fixed probes over it, and a depth-first prefix walk."""
    layout = draw(layouts())
    wire = message_vars(layout, "conf_msg")
    pool = [_constraint(layout, wire, spec)
            for spec in draw(st.lists(CONSTRAINT_SPEC, min_size=4,
                                      max_size=4))]
    probes = [tuple(_constraint(layout, wire, spec) for spec in specs)
              for specs in _PROBE_SPECS]
    moves = draw(st.lists(WALK_MOVE, min_size=1, max_size=12))
    return pool, probes, moves


@CONFORMANCE
@given(walk=prefix_walks())
def test_probe_batch_agrees_along_a_prefix_walk(walk):
    """The drop step's access pattern: the same probes posed against a
    prefix that grows, backtracks and grows a sibling, as the server
    walk does. Every answer must equal from-scratch ``Solver.check`` on
    ``prefix + probe``, with per-probe stacks and without them. A
    long-lived stack posed the prefix and every ``prefix + probe`` must
    give the status and model of a fresh stack, which has no memo of
    earlier checks."""
    pool, probes, moves = walk
    engines = {incremental: Engine(EngineConfig(incremental=incremental))
               for incremental in (True, False)}
    long_lived = IncrementalSolver()
    references: dict = {}  # a revisited prefix re-asks the engines only
    prefix: tuple = ()
    for step, move in enumerate(moves):
        if move is None:
            prefix = prefix[:-1]
        else:
            index, negate = move
            prefix += (ast.not_(pool[index]) if negate else pool[index],)
        if prefix not in references:
            references[prefix] = [Solver().check(prefix + probe).is_sat
                                  for probe in probes]
        reference = references[prefix]
        for incremental, engine in engines.items():
            assert engine.probe_feasible_batch(prefix, probes) == \
                reference, f"step {step}, incremental={incremental}"
        for query in (prefix, *(prefix + probe for probe in probes)):
            result = long_lived.check(query)
            fresh = IncrementalSolver().check(query)
            assert (result.status, result.model) == \
                (fresh.status, fresh.model), f"step {step}"


@CONFORMANCE
@given(walk=prefix_walks())
def test_trie_shortcuts_agree_along_a_prefix_walk(walk):
    """The observer's two shortcuts, posed as its trie poses them. Each
    node keeps a model of ``prefix + probe`` per probe: inherited from
    its parent when ``extend_model`` holds, else the scratch model. An
    inherited model must cover and satisfy the child query, and leave
    the parent's model untouched; a ``refutes`` over the probe's own
    fixpoint must be a query the scratch solver finds UNSAT."""
    pool, probes, moves = walk
    domains = [fixpoint(probe) for probe in probes]
    models: dict = {(): [Solver().check(probe).model for probe in probes]}
    prefix: tuple = ()
    for step, move in enumerate(moves):
        if move is None:
            prefix = prefix[:-1]
            continue
        index, negate = move
        parent, constraint = prefix, (ast.not_(pool[index]) if negate
                                      else pool[index])
        prefix = parent + (constraint,)
        if prefix in models:
            continue
        kept = []
        for k, probe in enumerate(probes):
            query = prefix + probe
            reference = Solver().check(query)
            model = models[parent][k]
            inherited = None
            if model is not None:
                before = dict(model)
                inherited = extend_model(model, constraint)
                assert model == before, f"step {step}: parent model mutated"
            if inherited is not None:
                assert reference.is_sat, f"step {step}"
                assert collect_vars_all(query) <= inherited.keys()
                assert all_hold(query, inherited), f"step {step}"
            if refutes(domains[k], constraint):
                assert not reference.is_sat, f"step {step}"
            kept.append(inherited if inherited is not None
                        else reference.model)
        models[prefix] = kept


def test_trie_shortcuts_fire_on_the_battery():
    """Both shortcuts decide something on a fixed battery — inheritance
    also across a variable the parent's model lacks — and agree with
    the scratch solver there."""
    layout = MessageLayout("conf", [Field("f0", 1), Field("f1", 2)])
    wire = message_vars(layout, "conf_msg")
    f0 = field_expr(wire, layout.view("f0"))
    f1 = field_expr(wire, layout.view("f1"))
    probe = (f0 < 10,)
    parent = (ast.ne(f0, bv_const(3, 8)),)
    model = Solver().check(parent + probe).model
    assert not set(collect_vars_all([f1])) <= model.keys()
    inherited = extend_model(model, f1 < 300)
    assert inherited is not None and inherited is not model
    assert all_hold(parent + (f1 < 300,) + probe, inherited)
    refuting = f0 > 40
    assert refutes(fixpoint(probe), refuting)
    assert not Solver().check(parent + (refuting,) + probe).is_sat


@CONFORMANCE
@given(workload=workloads())
def test_absorbed_snapshot_fronted_engine_agrees(workload):
    """The snapshot/absorb leg of the oracle: answers served out of an
    *absorbed* cache snapshot must agree with from-scratch at every
    prefix depth.

    A source engine warms a cache at every prefix of the workload, the
    snapshot crosses into a fresh cache via ``absorb``, and a fresh
    engine fronted by the absorbed cache must (a) answer every prefix
    identically to the scratch reference and (b) answer them all as
    cache *hits* — the engine records every prefix feasibility it
    decides, so the snapshot covers them."""
    _, constraints = workload
    reference = _reference_answers(constraints)
    prefixes = [tuple(constraints[:depth + 1])
                for depth in range(len(constraints))]
    source_cache = QueryCache()
    source_engine = Engine(query_cache=source_cache)
    for prefix, expected in zip(prefixes, reference):
        assert source_engine.is_feasible(prefix) == expected.is_sat
    snapshot = source_cache.snapshot()
    absorbed = QueryCache()
    assert absorbed.absorb(snapshot) == len(snapshot)
    assert absorbed.absorb(snapshot) == 0  # idempotent: local wins
    fronted = Engine(query_cache=absorbed)
    for depth, (prefix, expected) in enumerate(zip(prefixes, reference)):
        hits_before = absorbed.stats.hits
        assert fronted.is_feasible(prefix) == expected.is_sat, \
            f"depth {depth}"
        assert absorbed.stats.hits == hits_before + 1, \
            f"depth {depth} missed the absorbed snapshot"
    # Canonical equality crosses the snapshot boundary too: reordered
    # conjuncts still hit the absorbed entries.
    variant = tuple(reversed(constraints))
    hits_before = absorbed.stats.hits
    assert Engine(query_cache=absorbed).is_feasible(variant) == \
        reference[-1].is_sat
    assert absorbed.stats.hits == hits_before + 1


@CONFORMANCE
@given(workload=workloads())
def test_serial_service_agrees_with_scratch(workload):
    _, constraints = workload
    reference = _reference_answers(constraints)
    prefixes = [tuple(constraints[:depth + 1])
                for depth in range(len(constraints))]
    service = SolverService()
    results = service.check_batch(prefixes)
    assert [r.is_sat for r in results] == [r.is_sat for r in reference]
    for prefix, result in zip(prefixes, results):
        if result.is_sat:
            assert all_hold(prefix, dict(result.model))
    # The push/pop probe surface must agree too, including on the negated
    # final conjunct.
    probes = [(constraints[-1],), (ast.not_(constraints[-1]),)]
    probed = service.probe_batch(tuple(constraints[:-1]), probes)
    assert probed[0] == reference[-1].is_sat
    assert probed[1] == Solver().is_satisfiable(
        list(constraints[:-1]) + [ast.not_(constraints[-1])])


@CONFORMANCE
@given(workload=workloads())
def test_service_answers_are_order_independent(workload):
    """The service's stack carries state from query to query; posing the
    same prefixes deepest-first must not change a single answer."""
    _, constraints = workload
    reference = _reference_answers(constraints)
    prefixes = [tuple(constraints[:depth + 1])
                for depth in range(len(constraints))]
    service = SolverService()
    forward = service.check_batch(prefixes)
    backward = service.check_batch(list(reversed(prefixes)))
    assert [r.is_sat for r in forward] == [r.is_sat for r in reference]
    assert [r.is_sat for r in reversed(backward)] == \
        [r.is_sat for r in reference]
    for prefix, result in zip(reversed(prefixes), backward):
        if result.is_sat:
            assert all_hold(prefix, dict(result.model))


def _battery():
    """A deterministic battery of workloads, built from the same
    constraint grammar as the hypothesis examples."""
    layout = MessageLayout("conf", [Field("f0", 1), Field("f1", 2)])
    wire = message_vars(layout, "conf_msg")
    queries = []
    for comparison in range(len(_COMPARISONS)):
        for negate in (False, True):
            for arith in range(len(_ARITH)):
                spec = (comparison, negate,
                        (arith, arith % 2, 0x1234 + 17 * comparison),
                        (59 * arith + 11 * comparison) & 0xFFFF)
                anchor = _constraint(layout, wire, (0, False,
                                                    (0, 0, 7), 7 + negate))
                queries.append((anchor, _constraint(layout, wire, spec)))
    return queries


def test_interleaved_service_batches_agree_with_scratch():
    """Probe and check batches alternate on one service, as the negate
    overlap checks and the ``differentFrom`` matrix do in
    pre-processing; neither may disturb the other's answers."""
    service = SolverService()
    for query in _battery():
        anchor, conjunct = query
        probed = service.probe_batch((anchor,), [(conjunct,),
                                                 (ast.not_(conjunct),)])
        assert probed == [
            Solver().is_satisfiable([anchor, conjunct]),
            Solver().is_satisfiable([anchor, ast.not_(conjunct)])], query
        checked, = service.check_batch([query])
        assert checked.is_sat == probed[0], query
        if checked.is_sat:
            assert all_hold(query, dict(checked.model))


def test_engine_probes_agree_with_service():
    """The two batched probe surfaces — the engine's main stack behind
    its query cache, and the service's shared stack — answer one battery
    alike."""
    by_anchor: dict = {}
    for anchor, conjunct in _battery():
        by_anchor.setdefault(anchor, []).append((conjunct,))
    assert len(by_anchor) == 2
    engine = Engine(query_cache=QueryCache())
    service = SolverService()
    for anchor, probes in by_anchor.items():
        expected = [Solver().is_satisfiable([anchor, *probe])
                    for probe in probes]
        assert True in expected and False in expected
        assert service.probe_batch((anchor,), probes) == expected
        assert engine.probe_feasible_batch((anchor,), probes) == expected


def test_all_layers_one_oracle():
    """The N-way cross-check on one battery: every layer, same answers.

    This is the suite's summary property — scratch, incremental (at
    every depth), cache-fronted engine, and the service answer one
    fixed battery identically.
    """
    queries = _battery()
    batched = SolverService().check_batch(queries)
    for query, from_service in zip(queries, batched):
        scratch = Solver().check(query)
        incremental = IncrementalSolver()
        prefix_answers = []
        for conjunct in query:
            incremental.push(conjunct)
            prefix_answers.append(incremental.check_current().is_sat)
        engine = Engine(query_cache=QueryCache())
        answers = {
            "scratch": scratch.is_sat,
            "incremental": prefix_answers[-1],
            "engine+cache": engine.is_feasible(tuple(query)),
            "service": from_service.is_sat,
        }
        assert len(set(answers.values())) == 1, answers
        # Prefix monotonicity: once UNSAT, deeper stays UNSAT.
        for shallow, deep in zip(prefix_answers, prefix_answers[1:]):
            assert shallow or not deep
