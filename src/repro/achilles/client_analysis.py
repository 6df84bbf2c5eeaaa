"""Phase 1: extract the client predicate ``PC`` (§3.1).

Clients run in a symbolic environment — every local input they read is
replaced by symbolic data — and every message they put on the wire is
captured together with the path constraints under which it was sent. Each
captured ``(payload, constraints)`` pair becomes one
:class:`~repro.achilles.predicates.ClientPathPredicate`.

The pre-processing step (§3) then de-duplicates structurally identical
predicates, precomputes the per-predicate negations, and builds the
``differentFrom`` matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.achilles.difference import DifferentFrom
from repro.achilles.mask import FieldMask
from repro.achilles.negate import PredicateNegation, negate_predicate
from repro.achilles.predicates import ClientPathPredicate
from repro.errors import AchillesError
from repro.messages.layout import MessageLayout
from repro.solver.ast import Expr
from repro.solver.cache import QueryCache
from repro.solver.service import SolverService
from repro.solver.solver import Solver
from repro.symex.engine import Engine, EngineConfig, NodeProgram, client_verdict


@dataclass
class ClientAnalysisStats:
    """Counters for the PC extraction + pre-processing phases."""

    clients_analyzed: int = 0
    paths_explored: int = 0
    messages_captured: int = 0
    duplicates_removed: int = 0
    extraction_seconds: float = 0.0
    preprocess_seconds: float = 0.0


@dataclass
class ClientPredicateSet:
    """``PC`` plus everything precomputed about it.

    Attributes:
        layout: shared wire layout.
        predicates: de-duplicated client path predicates; indices are
            contiguous and match ``predicates[i].index == i``.
        negations: ``negate(pathC_i)`` per predicate (§3.2), precomputed.
        different_from: the §3.3 matrix.
        stats: extraction/pre-processing counters.
    """

    layout: MessageLayout
    predicates: list[ClientPathPredicate]
    negations: list[PredicateNegation]
    different_from: DifferentFrom
    stats: ClientAnalysisStats = field(default_factory=ClientAnalysisStats)

    def __len__(self) -> int:
        return len(self.predicates)


def extract_client_predicates(
        clients: dict[str, NodeProgram] | list[NodeProgram],
        layout: MessageLayout,
        engine_config: EngineConfig | None = None,
        destination: str | None = None,
        query_cache: QueryCache | None = None,
        ) -> tuple[list[ClientPathPredicate], ClientAnalysisStats]:
    """Symbolically execute every client and capture its sent messages.

    Args:
        clients: client node programs, optionally labeled by name.
        layout: wire layout; captured messages must match its size.
        engine_config: exploration limits (defaults are fine for the
            bounded evaluation workloads).
        destination: when given, only messages sent to this node name are
            captured (clients may also talk to other peers).
        query_cache: shared canonical query cache; every per-client engine
            uses it, and the orchestrator passes the same instance to the
            phase-2 server search so answers carry across phases.

    Returns:
        De-duplicated predicates with contiguous indices, plus stats.
    """
    if isinstance(clients, list):
        clients = {f"client{i}": p for i, p in enumerate(clients)}
    config = replace(engine_config or EngineConfig(),
                     default_verdict=client_verdict)
    query_cache = QueryCache() if query_cache is None else query_cache
    stats = ClientAnalysisStats()
    started = time.perf_counter()

    raw: list[ClientPathPredicate] = []
    for name, program in clients.items():
        engine = Engine(config, query_cache=query_cache)
        result = engine.explore(program)
        stats.clients_analyzed += 1
        stats.paths_explored += len(result.paths)
        for path in result.paths:
            for sent in path.sends:
                if destination is not None and sent.destination != destination:
                    continue
                if len(sent.payload) != layout.total_size:
                    raise AchillesError(
                        f"client {name!r} sent a {len(sent.payload)}-byte "
                        f"message but layout {layout.name!r} is "
                        f"{layout.total_size} bytes")
                stats.messages_captured += 1
                raw.append(ClientPathPredicate(
                    index=len(raw), client=name,
                    source_path_id=path.path_id, layout=layout,
                    payload=sent.payload,
                    constraints=path.constraints))

    unique = _dedupe(raw)
    stats.duplicates_removed = len(raw) - len(unique)
    stats.extraction_seconds = time.perf_counter() - started
    return unique, stats


def preprocess(predicates: list[ClientPathPredicate],
               layout: MessageLayout,
               server_msg: tuple[Expr, ...],
               mask: FieldMask | None = None,
               solver: Solver | None = None,
               stats: ClientAnalysisStats | None = None,
               build_difference: bool = True,
               service: SolverService | None = None) -> ClientPredicateSet:
    """Pre-compute negations and the ``differentFrom`` matrix (§3, §3.3).

    All pre-processing probes flow through one
    :class:`~repro.solver.service.SolverService`: the per-field negation
    overlap checks and the pairwise matrix entries are independent
    queries, batched per predicate. Both families share the service's
    single incremental frame stack (the ``pred.combined(server_msg)``
    prefix propagates once per predicate, whichever family probes it
    first).

    The surviving per-field negation expressions computed for
    ``negations`` are handed to :class:`DifferentFrom` directly, so the
    matrix no longer re-runs (and re-verifies) the negate operator.
    """
    mask = mask or FieldMask.none()
    mask.validate(layout)
    solver = solver or Solver()
    service = service or SolverService(solver=solver)
    stats = stats or ClientAnalysisStats()
    started = time.perf_counter()

    negations = [negate_predicate(p, server_msg, mask, solver,
                                  service=service)
                 for p in predicates]
    if build_difference:
        field_negations: dict[tuple[int, str], Expr | None] = {
            (pred.index, field): None
            for pred in predicates for field in mask.visible_fields(layout)}
        for negation in negations:
            for disjunct in negation.disjuncts:
                field_negations[(negation.pred_index, disjunct.field)] = (
                    disjunct.expr)
        different = DifferentFrom(predicates, server_msg, mask, solver,
                                  service=service,
                                  field_negations=field_negations)
    else:
        different = DifferentFrom([], server_msg, mask, solver,
                                  service=service)
    stats.preprocess_seconds = time.perf_counter() - started
    return ClientPredicateSet(layout, predicates, negations, different, stats)


def _dedupe(predicates: list[ClientPathPredicate]) -> list[ClientPathPredicate]:
    """Drop structurally identical predicates, reindexing the survivors."""
    seen: set[tuple] = set()
    unique: list[ClientPathPredicate] = []
    for pred in predicates:
        key = pred.signature()
        if key in seen:
            continue
        seen.add(key)
        unique.append(ClientPathPredicate(
            index=len(unique), client=pred.client,
            source_path_id=pred.source_path_id, layout=pred.layout,
            payload=pred.payload, constraints=pred.constraints))
    return unique
