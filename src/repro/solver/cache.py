"""Canonical query cache shared across solver clients.

The Achilles pipeline re-poses near-identical satisfiability queries at
every appended server constraint (`pathS ∧ pathC_i`, `pathS ∧ ⋀ negations`)
and across both analysis phases. :class:`QueryCache` memoizes answers keyed
on the *canonical* frozen constraint set
(:func:`repro.solver.simplify.canonical_constraint_set`), so syntactic
variants of the same query — reordered conjuncts, commuted operands,
negated-vs-flipped comparisons, re-derived duplicates — all hit the same
entry. One cache instance is intended to be shared by every
:class:`~repro.symex.engine.Engine` of a run (phase 1 client extraction and
phase 2 server search), which is how cross-phase reuse happens.

Feasibility answers and models are cached separately: a feasibility probe
stores only the boolean, a model query stores the model and implies the
feasibility bit. Hit/miss counters live in :class:`CacheStats` and are
surfaced through ``SolverStats`` and ``AchillesReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs import trace as obs_trace
from repro.solver.ast import FALSE, Expr
from repro.solver.simplify import canonical_constraint_set

#: Cache key: the canonical frozen constraint set.
QueryKey = frozenset

#: Raw-tuple key-memo bound; ~400k keeps a full FSP run memoized with
#: room to spare while capping memory on long-lived shared caches.
_KEY_MEMO_LIMIT = 400_000


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`QueryCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.queries
        return self.hits / total if total else 0.0


@dataclass
class QueryCache:
    """Satisfiability answers keyed on canonical frozen constraint sets."""

    stats: CacheStats = field(default_factory=CacheStats)
    _feasible: dict[QueryKey, bool] = field(default_factory=dict)
    _models: dict[QueryKey, dict[Expr, int] | None] = field(default_factory=dict)
    _key_memo: dict[tuple[Expr, ...], QueryKey] = field(default_factory=dict)

    def key(self, constraints: Iterable[Expr]) -> QueryKey:
        """Canonical cache key for a constraint conjunction.

        Keys are memoized on the raw constraint tuple: the exploration
        engine re-poses the same tuples constantly (assumptions checked
        again on replayed paths, the per-predicate probe loops, cross-phase
        reuse), and tuple hashing over interned
        expressions is far cheaper than re-canonicalizing every conjunct.
        Exactness comes from hash-consing — tuple equality is per-element
        identity, so distinct-but-equal ASTs cannot alias.

        The memo holds strong references to the raw tuples (which pin
        their expressions in the weak intern arena), so it is bounded:
        past :data:`_KEY_MEMO_LIMIT` entries it is dropped wholesale and
        re-warms — a dropped memo only costs re-canonicalization, and
        memory stays flat on arbitrarily long runs.
        """
        if not isinstance(constraints, tuple):
            constraints = tuple(constraints)
        cached = self._key_memo.get(constraints)
        if cached is None:
            if len(self._key_memo) >= _KEY_MEMO_LIMIT:
                self._key_memo.clear()
            tracer = obs_trace.active
            if tracer is None:
                cached = canonical_constraint_set(constraints)
            else:
                with tracer.span("solver.canonicalize",
                                 conjuncts=len(constraints)):
                    cached = canonical_constraint_set(constraints)
            self._key_memo[constraints] = cached
        return cached

    @staticmethod
    def is_trivially_unsat(key: QueryKey) -> bool:
        """True when canonicalization already proved the query unsat."""
        return FALSE in key

    # -- feasibility ---------------------------------------------------------

    def get_feasible(self, key: QueryKey) -> bool | None:
        """Cached feasibility for ``key``, or None on a miss (counted)."""
        cached = self._feasible.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        return None

    def put_feasible(self, key: QueryKey, feasible: bool) -> None:
        self._feasible[key] = feasible

    # -- models --------------------------------------------------------------

    def get_model(self, key: QueryKey) -> tuple[bool, dict[Expr, int] | None]:
        """Cached model lookup: ``(hit, model)``; the miss is counted.

        The stored model covers the variables of the query that *populated*
        the entry; a canonically-equal variant may mention variables that
        were simplified away there, so callers should default missing
        variables to 0 (unconstrained).
        """
        if key in self._models:
            self.stats.hits += 1
            return True, self._models[key]
        self.stats.misses += 1
        return False, None

    def put_model(self, key: QueryKey, model: dict[Expr, int] | None) -> None:
        self._models[key] = model
        self._feasible[key] = model is not None

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._feasible) + len(self._models)

    def clear(self) -> None:
        """Drop all cached answers (counters are kept)."""
        self._feasible.clear()
        self._models.clear()
        self._key_memo.clear()
