"""Model enumeration and counting over small finite spaces.

SMT solvers are poor at enumerating all satisfying assignments (the paper
makes this point in §6.2 when discussing why classic symbolic execution
cannot cheaply list Trojan messages). The evaluation benchmarks nevertheless
need exact counts over *bounded* message spaces, so this module provides a
propagation-pruned exhaustive enumerator for that purpose.

The enumerator shares the incremental machinery of
:mod:`repro.solver.propagate`: one :class:`TrailDomains` carries the
domains down the enumeration tree, each trial value re-propagates only the
constraints watching the pinned variable (:func:`propagate_delta`), and
backtracking undoes the trial's domain writes in O(changes) — the previous
implementation cloned the full domain dict at every node.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import SolverError
from repro.solver.ast import Expr
from repro.solver.evalmodel import all_hold
from repro.solver import interval as iv
from repro.solver.interval import Interval
from repro.solver.propagate import (
    TrailDomains,
    VarIndex,
    build_var_index,
    default_pop_budget,
    initial_domains,
    propagate_delta,
)
from repro.solver.sorts import BOOL
from repro.solver.walk import collect_vars_all

_DEFAULT_LIMIT = 1_000_000


def iter_models(constraints: Iterable[Expr], variables: Sequence[Expr],
                limit: int = _DEFAULT_LIMIT) -> Iterator[dict[Expr, int]]:
    """Yield every assignment of ``variables`` satisfying ``constraints``.

    Every variable occurring in the constraints must be listed in
    ``variables`` — otherwise counts would be ambiguous (free inner
    variables would make each yielded assignment a family, not a model).

    Args:
        constraints: boolean expressions.
        variables: the enumeration space; order fixes the search order.
        limit: safety valve on the number of *yielded* models. The error
            is raised only when a model beyond the limit actually exists;
            a space holding exactly ``limit`` models enumerates cleanly.
    """
    constraint_list = list(constraints)
    var_list = list(variables)
    missing = collect_vars_all(constraint_list) - set(var_list)
    if missing:
        names = ", ".join(sorted(v.params[0] for v in missing))
        raise SolverError(f"iter_models requires all constraint variables "
                          f"to be enumerated; missing: {names}")

    domains = TrailDomains(initial_domains(constraint_list))
    for var in var_list:
        if var not in domains:
            domains[var] = _full_domain(var)
    var_index = build_var_index(constraint_list)
    budget = default_pop_budget(len(constraint_list))

    if not propagate_delta(domains, var_index, constraint_list, budget):
        return

    yielded = 0
    for model in _enumerate(constraint_list, domains, var_index, var_list,
                            0, budget):
        # Probe-before-raise: the limit trips only when a (limit+1)-th
        # model is actually produced, not merely when the limit-th one was.
        if yielded >= limit:
            raise SolverError(f"model enumeration exceeded limit of {limit}")
        yield model
        yielded += 1


def count_models(constraints: Iterable[Expr], variables: Sequence[Expr],
                 limit: int = _DEFAULT_LIMIT) -> int:
    """Exact number of satisfying assignments of ``variables``."""
    return sum(1 for _ in iter_models(constraints, variables, limit))


def _full_domain(var: Expr) -> Interval:
    if var.sort is BOOL:
        return iv.BOOL_FULL
    return iv.full(var.sort.width)


def _enumerate(constraints: list[Expr], domains: TrailDomains,
               var_index: VarIndex, variables: list[Expr], index: int,
               budget: int) -> Iterator[dict[Expr, int]]:
    """Depth-first enumeration; ``domains`` is already at a fixpoint.

    Pinning a trial value re-propagates only the constraints watching the
    pinned variable; the trial's writes are undone through the trail when
    the subtree is exhausted, restoring the parent fixpoint exactly.
    """
    if index == len(variables):
        model = {var: domains.get(var, iv.ZERO).lo for var in variables}
        if all_hold(constraints, model):
            yield model
        return
    var = variables[index]
    domain = domains.get(var, _full_domain(var))
    watchers = var_index.get(var, ())
    for value in domain:
        mark = domains.mark()
        domains[var] = iv.singleton(value)
        if propagate_delta(domains, var_index, watchers, budget):
            yield from _enumerate(constraints, domains, var_index, variables,
                                  index + 1, budget)
        domains.undo_to(mark)
