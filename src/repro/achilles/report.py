"""Achilles output records: findings, phase timings, discovery timeline.

For every server execution path that reaches an accept marker while still
admitting Trojan messages, Achilles outputs both a *symbolic expression*
(the path condition plus the matched negations) and a *concrete example*
(§3.2), so testers can inject the example into a live deployment (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.messages.concrete import decode_ints
from repro.messages.layout import MessageLayout
from repro.solver.ast import Expr
from repro.solver.printer import to_string


@dataclass(frozen=True)
class TrojanFinding:
    """One server execution path that accepts Trojan messages.

    Attributes:
        server_path_id: engine path id of the accepting server path.
        decisions: branch decision vector identifying the path.
        path_condition: the server path constraints (over ``msg[i]`` vars).
        negation: the conjunction of live client-predicate negations that
            was satisfiable together with the path condition.
        witness: concrete example Trojan message (wire bytes).
        live_predicates: client predicate indices still live when the path
            accepted (the Trojan may be "bundled" with their messages).
        elapsed_seconds: when the finding was produced, measured from the
            start of the server analysis (drives the Figure 10 curve).
            Under ``shards > 1`` a finding made by a shard worker keeps
            the worker's clock: it is measured from the start of the
            assignment that found the path, not from the start of the
            run.
        labels: free-form marks the server program recorded on the path.
    """

    server_path_id: int
    decisions: tuple[bool, ...]
    path_condition: tuple[Expr, ...]
    negation: tuple[Expr, ...]
    witness: bytes
    live_predicates: tuple[int, ...]
    elapsed_seconds: float
    labels: tuple[str, ...] = ()

    def witness_fields(self, layout: MessageLayout) -> dict[str, int]:
        """The witness decoded into per-field unsigned ints."""
        return decode_ints(layout, self.witness)

    def symbolic_expression(self, max_terms: int = 12) -> str:
        """Human-readable rendering of the Trojan class expression."""
        parts = [to_string(c) for c in self.path_condition[:max_terms]]
        if len(self.path_condition) > max_terms:
            parts.append(f"... (+{len(self.path_condition) - max_terms} more)")
        return " ∧ ".join(parts) if parts else "true"


@dataclass
class PhaseTimings:
    """Wall-clock split across the three Achilles phases (§6.2).

    The paper reports 3 min / 15 min / 45 min for FSP — roughly
    5% / 24% / 71%; the benchmarks compare this *split*, not absolute
    seconds.
    """

    client_extraction: float = 0.0
    preprocessing: float = 0.0
    server_analysis: float = 0.0

    @property
    def total(self) -> float:
        return (self.client_extraction + self.preprocessing
                + self.server_analysis)

    def fractions(self) -> dict[str, float]:
        total = self.total or 1.0
        return {
            "client_extraction": self.client_extraction / total,
            "preprocessing": self.preprocessing / total,
            "server_analysis": self.server_analysis / total,
        }


@dataclass
class AchillesReport:
    """Complete result of one Achilles run.

    Attributes:
        findings: one entry per Trojan-accepting server path, in discovery
            order.
        client_predicate_count: size of ``PC`` after de-duplication.
        timings: phase wall-clock split.
        predicate_samples: ``(path_length, live_predicate_count)`` pairs
            recorded at every server constraint append — the raw data of
            Figure 11.
        server_paths_explored / server_paths_pruned: exploration counters
            (pruning is the §3.2 "dropped from the exploration" rule).
        solver_queries: total satisfiability checks issued by the search
            (cache hits never reach the solver, so this only counts misses).
        cache_hits / cache_misses: canonical query-cache counters.
            Achilles shares one :class:`~repro.solver.cache.QueryCache`
            across phase 1 (client extraction) and phase 2 (server
            search), so these are cumulative over the whole
            :class:`~repro.achilles.core.Achilles` instance — they include
            cross-phase reuse and therefore count more lookups than the
            phase-2-only ``solver_queries``. Replayed server prefixes
            never reach the cache: the Trojan observer answers them from
            its prefix trie, which also decides most fresh prefixes
            itself (inherited models, interval refutations). So the
            counters measure what the trie leaves (branch probes,
            residual probes) plus every phase-1 lookup. On FSP they read
            222 hits and 999 misses (18%), but 140 of those hits and 20
            of those misses are phase 1's: the search alone makes 1,061
            lookups with 82 hits (7.7%).
        frames_reused: assertion-stack frames whose propagation fixpoint
            the incremental layer reused across prefix-sharing queries
            (:class:`~repro.solver.incremental.IncrementalSolver`) during
            the server search.
        propagation_seconds: wall clock the server search spent in
            incremental interval propagation.
        shards: exploration shard count the server search ran with (1 =
            one in-process walk). When shards > 1, per-shard solver
            counters — the cache hits and misses of the workers' private
            caches included — are folded in fixed order onto the
            coordinator's. Their split depends on the (timing-dependent)
            partition; findings never depend on the shard count.
        worker_failures: shard workers found dead during the search
            (0 on a fault-free run). A loss costs only wall clock: the
            search finishes in-process with the same findings.
        recovery_seconds: wall clock from a worker loss's detection to
            the end of the in-process walk that finished the search —
            the overhead the fault cost (included in the server-analysis
            timing, not extra). The walk re-explores the whole seeded
            frontier; the merge makes its findings byte-identical.
    """

    findings: list[TrojanFinding] = field(default_factory=list)
    client_predicate_count: int = 0
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    predicate_samples: list[tuple[int, int]] = field(default_factory=list)
    server_paths_explored: int = 0
    server_paths_pruned: int = 0
    solver_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    frames_reused: int = 0
    propagation_seconds: float = 0.0
    shards: int = 1
    worker_failures: int = 0
    recovery_seconds: float = 0.0

    @property
    def trojan_count(self) -> int:
        return len(self.findings)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of query-cache lookups answered by the cache.

        Replayed server prefixes are answered by the observer's prefix
        trie before they reach the cache, so they count neither way.
        """
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def witnesses(self) -> list[bytes]:
        """Concrete Trojan examples, ready for fault injection."""
        return [f.witness for f in self.findings]

    def timeline(self) -> list[tuple[float, int]]:
        """Cumulative discovery curve: (seconds, findings so far) — Fig 10.

        Points follow the findings' canonical order and carry their
        ``elapsed_seconds``; under ``shards > 1`` those are per-assignment
        clocks (see :class:`TrojanFinding`), so the seconds need not rise
        monotonically.
        """
        points = []
        for count, finding in enumerate(self.findings, start=1):
            points.append((finding.elapsed_seconds, count))
        return points

    def discovery_fractions(self) -> list[tuple[float, float]]:
        """Figure 10 normalized: (fraction of analysis time, fraction found)."""
        if not self.findings:
            return []
        total_time = self.timings.server_analysis or max(
            f.elapsed_seconds for f in self.findings) or 1.0
        total = len(self.findings)
        return [(t / total_time, n / total) for t, n in self.timeline()]
