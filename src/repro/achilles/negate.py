"""The under-approximate ``negate`` operator (§3.2, §4).

``¬PC`` contains a universal quantifier, which SMT solvers handle poorly.
Achilles instead under-approximates the negation of each client path
predicate as a *disjunction of per-field negations*:

* a field whose payload is a concrete value ``C`` negates to
  ``field(msgS) ≠ C``;
* a field whose payload is a symbolic expression negates to
  ``field(msgS) = e(λ') ∧ ¬(constraints influencing λ')`` over *fresh*
  copies ``λ'`` of the client's symbolic inputs;
* a field with symbolic payload but no influencing constraints cannot be
  negated and is abandoned.

Every produced disjunct is then checked against the original predicate
(§4.1): if a message could satisfy both the disjunct and the client path,
the disjunct is discarded, keeping the operator a *strict*
under-approximation — Achilles never reports a client-generable message
because of an imprecise negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.achilles.mask import FieldMask
from repro.achilles.predicates import ClientPathPredicate
from repro.messages.symbolic import field_expr
from repro.solver import ast
from repro.solver.ast import Expr
from repro.solver.solver import Solver
from repro.solver.sorts import BOOL
from repro.solver.walk import collect_vars, substitute

#: Negation disjunct kinds.
CONCRETE = "concrete"
SYMBOLIC = "symbolic"


@dataclass(frozen=True)
class NegationDisjunct:
    """One way a message can avoid a client path predicate.

    Attributes:
        pred_index: which client path predicate this negates.
        field: the field whose values are complemented.
        kind: :data:`CONCRETE` or :data:`SYMBOLIC`.
        expr: boolean expression over the server message variables (plus
            fresh internal λ variables for symbolic negations).
    """

    pred_index: int
    field: str
    kind: str
    expr: Expr


@dataclass(frozen=True)
class PredicateNegation:
    """``negate(pathC)`` for one client path predicate.

    ``expr`` is the disjunction of the surviving per-field disjuncts;
    when no field could be negated it is ``FALSE`` — the safe
    under-approximation of the (non-empty) complement, meaning Achilles
    cannot certify any message as un-generable by this client path.
    """

    pred_index: int
    disjuncts: tuple[NegationDisjunct, ...]

    @property
    def expr(self) -> Expr:
        if not self.disjuncts:
            return ast.FALSE
        return ast.any_of([d.expr for d in self.disjuncts])

    @property
    def is_vacuous(self) -> bool:
        return not self.disjuncts


def build_disjunct(pred: ClientPathPredicate, field: str,
                   server_msg: tuple[Expr, ...]) -> NegationDisjunct | None:
    """The raw (unverified) per-field negation disjunct, or None if abandoned.

    This is the pure construction half of the negate operator; the §4.1
    overlap check that keeps it a strict under-approximation is applied by
    the callers (:func:`negate_field` one query at a time,
    :func:`negate_predicate` as one probe batch).
    """
    view = pred.layout.view(field)
    server_field = field_expr(server_msg, view)
    client_field = pred.field_value(field)

    if client_field.is_const:
        return NegationDisjunct(
            pred.index, field, CONCRETE, ast.ne(server_field, client_field))
    closure_vars, influencing = pred.field_closure(field)
    if not influencing:
        return None  # paper: "abandon the negation of the current value"
    renaming = _fresh_renaming(pred.index, field, closure_vars)
    pinned = ast.eq(server_field, substitute(client_field, renaming))
    negated = ast.any_of(
        [ast.not_(substitute(c, renaming)) for c in influencing])
    return NegationDisjunct(
        pred.index, field, SYMBOLIC, ast.and_(pinned, negated))


def negate_field(pred: ClientPathPredicate, field: str,
                 server_msg: tuple[Expr, ...],
                 solver: Solver | None = None,
                 verify: bool = True) -> NegationDisjunct | None:
    """Negate one field of one client path predicate.

    Args:
        pred: the client path predicate being negated.
        field: field name to complement.
        server_msg: the server's symbolic message byte variables.
        solver: solver used for the §4.1 under-approximation check.
        verify: run the overlap check (disabled only by tests that
            exercise the raw operator).

    Returns:
        The disjunct, or None when negation of this field is abandoned
        (unconstrained symbolic payload) or discarded by the overlap
        check.
    """
    disjunct = build_disjunct(pred, field, server_msg)
    if disjunct is None:
        return None
    if verify and _overlaps_original(disjunct, pred, server_msg,
                                     solver or Solver()):
        return None
    return disjunct


def negate_predicate(pred: ClientPathPredicate,
                     server_msg: tuple[Expr, ...],
                     mask: FieldMask | None = None,
                     solver: Solver | None = None,
                     service=None) -> PredicateNegation:
    """``negate(pathC)``: disjunction of per-field negations (§3.2).

    Masked fields are skipped entirely — the mask is applied before any
    solver work (§5.2).

    When a :class:`~repro.solver.service.SolverService` is given, the §4.1
    overlap checks for all fields go out as one probe batch against the
    shared ``pred.combined(server_msg)`` prefix, riding the service's
    incremental frame stack (the same one the ``differentFrom`` matrix
    probes). Answers are identical either way.
    """
    mask = mask or FieldMask.none()
    candidates = []
    for field in mask.visible_fields(pred.layout):
        disjunct = build_disjunct(pred, field, server_msg)
        if disjunct is not None:
            candidates.append(disjunct)
    if service is None:
        solver = solver or Solver()
        survivors = tuple(
            d for d in candidates
            if not _overlaps_original(d, pred, server_msg, solver))
    else:
        prefix = pred.combined(server_msg)
        overlaps = service.probe_batch(
            prefix, [(d.expr,) for d in candidates])
        survivors = tuple(d for d, overlap in zip(candidates, overlaps)
                          if not overlap)
    return PredicateNegation(pred.index, survivors)


def _fresh_renaming(pred_index: int, field: str,
                    variables: frozenset[Expr]) -> dict[Expr, Expr]:
    """Fresh λ′ copies of the client's symbolic inputs for one disjunct.

    Each disjunct gets its own namespace so its existential variables
    cannot collide with the original predicate's, with other disjuncts',
    or with the server's message variables.
    """
    def rename(var: Expr) -> Expr:
        fresh_name = f"~{pred_index}.{field}.{var.name}"
        if var.sort == BOOL:
            return ast.bool_var(fresh_name)
        return ast.bv_var(fresh_name, var.width)

    return {var: rename(var) for var in variables}


def _overlaps_original(disjunct: NegationDisjunct, pred: ClientPathPredicate,
                       server_msg: tuple[Expr, ...], solver: Solver) -> bool:
    """§4.1 check: can any client-generable message satisfy the disjunct?

    When satisfiable, the disjunct is *not* inside the complement of the
    predicate and must be discarded to preserve the under-approximation.
    """
    query = pred.combined(server_msg) + (disjunct.expr,)
    return solver.check(query).is_sat


def single_field_of(constraint: Expr, server_msg: tuple[Expr, ...],
                    layout) -> str | None:
    """The unique field a server constraint talks about, if any (§3.3).

    Returns the field name when every variable of ``constraint`` is a
    server message byte belonging to that one field; None otherwise
    (multi-field constraints, or constraints involving local state).
    """
    msg_index = {var: i for i, var in enumerate(server_msg)}
    fields: set[str] = set()
    for var in collect_vars(constraint):
        position = msg_index.get(var)
        if position is None:
            return None
        fields.add(layout.field_of_byte(position).name)
    if len(fields) == 1:
        return next(iter(fields))
    return None
