"""Per-layer timing of a hunt, taken from outside the program.

The tracer wraps each layer's public entry points by replacing the name
its caller looks up — a function bound in the importing module, or a
method on its class — and restores the originals when it is removed.
Nothing under ``src/`` is edited. Every wrapped call is a span: its
inclusive time goes to the call site's metric, its *self* time (inclusive
minus the wrapped calls it made) goes to its layer, and a layer's *busy*
time counts only its outermost spans, so a layer calling itself is not
counted twice. The hunt itself is the root span; its self time is
``trace.unattributed_s``, so self times plus unattributed time add up to
the hunt's wall time by construction, which :meth:`Tracer.hunt` checks.

``canonicalize`` recurses through its own module global, so it is wrapped
at the call sites in ``solver.incremental`` and ``solver.solver`` (and
``canonical_constraint_set`` at the cache's), never in ``solver.simplify``.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer -> (busy metric, self metric). A layer's busy metric is the
#: inclusive time of its outermost spans.
LAYERS = {
    "client_analysis": ("client_analysis.busy_s", "client_analysis.self_s"),
    "negate": ("negate.s", "negate.self_s"),
    "difference": ("difference.build_s", "difference.self_s"),
    "observer": ("observer.inclusive_s", "observer.self_s"),
    "engine": ("engine.busy_s", "engine.self_s"),
    "cache": ("cache.busy_s", "cache.self_s"),
    "simplify": ("simplify.s", "simplify.self_s"),
    "incremental": ("incremental.busy_s", "incremental.self_s"),
    "scratch": ("scratch.s", "scratch.self_s"),
    "service": ("service.s", "service.self_s"),
    "explore": ("explore.busy_s", "explore.self_s"),
}

#: (layer, "module:Owner.attr" or "module:attr", inclusive-time metric,
#: call-count metric). The module named is the one whose binding the
#: caller looks up.
SITES = (
    ("client_analysis", "repro.achilles.core:extract_client_predicates",
     "client_analysis.extract_s", None),
    ("client_analysis", "repro.achilles.core:preprocess",
     "client_analysis.preprocess_s", None),
    ("negate", "repro.achilles.client_analysis:negate_predicate",
     None, "negate.calls"),
    ("negate", "repro.achilles.difference:negate_predicate",
     None, "negate.calls"),
    ("difference", "repro.achilles.client_analysis:DifferentFrom",
     None, None),
    ("observer",
     "repro.achilles.server_analysis:TrojanSearchObserver.on_constraint",
     None, "observer.on_constraint.calls"),
    ("engine", "repro.symex.engine:Engine.explore", "engine.explore_s", None),
    ("engine", "repro.symex.engine:Engine.is_feasible",
     None, "engine.feasible_calls"),
    ("engine", "repro.symex.engine:Engine.probe_feasible_batch", None, None),
    ("cache", "repro.solver.cache:QueryCache.key", "cache.key_s", None),
    ("cache", "repro.solver.cache:QueryCache.get_feasible", None, None),
    ("cache", "repro.solver.cache:QueryCache.get_model", None, None),
    ("simplify", "repro.solver.incremental:canonicalize",
     None, "simplify.calls"),
    ("simplify", "repro.solver.solver:canonicalize", None, "simplify.calls"),
    ("simplify", "repro.solver.cache:canonical_constraint_set",
     None, "simplify.calls"),
    ("incremental", "repro.solver.incremental:IncrementalSolver.push",
     "incremental.push_s", "incremental.push_calls"),
    ("incremental", "repro.solver.incremental:IncrementalSolver.align",
     "incremental.align_s", None),
    ("incremental", "repro.solver.incremental:IncrementalSolver.check_current",
     "incremental.check_current_s", "incremental.checks"),
    ("scratch", "repro.solver.solver:Solver.check", None, "scratch.checks"),
    ("service", "repro.solver.service:SolverService.probe_batch",
     None, "service.batches"),
    ("service", "repro.solver.service:SolverService.check_batch",
     None, "service.batches"),
    ("explore", "repro.explore.scheduler:ShardScheduler.run", None, None),
    ("explore", "repro.explore.transport:LocalTransport.start",
     "explore.start_s", None),
    ("explore", "repro.explore.transport:LocalTransport.recv",
     "explore.recv_wait_s", None),
    ("explore", "repro.explore.transport:LocalTransport.assign",
     None, "explore.assignments"),
    ("explore", "repro.explore.scheduler:merge_outcomes",
     "explore.merge_s", None),
)

#: Per-layer metric -> (end-to-end metric it should move, workloads).
#: ``no change`` marks the bypass prediction.
MOVES = {
    "client_analysis.extract_s": ("hunt_s.p50", "corpus"),
    "client_analysis.client_paths": ("hunt_s.p50", "corpus"),
    "client_analysis.preprocess_s": ("first_finding_s.p50", "fsp-table1"),
    "negate.s": ("first_finding_s.p50", "fsp-table1"),
    "difference.build_s": ("first_finding_s.p50 / hunt_s.p50",
                           "fsp-table1; no change on corpus"),
    "difference.probes": ("first_finding_s.p50", "fsp-table1"),
    "observer.self_s": ("hunt_s.p50", "fsp-table1"),
    "observer.inclusive_s": ("hunt_s.p50", "fsp-table1"),
    "observer.replayed_ratio": ("hunt_s.p50", "fsp-table1"),
    "engine.explore_s": ("hunt_s.p50", "all"),
    "engine.self_s": ("hunt_s.p50", "all"),
    "engine.feasible_calls": ("hunt_s.p50", "all"),
    "cache.key_s": ("hunt_s.p50", "fsp-table1"),
    "cache.entries": ("peak_rss_mb", "fsp-table1"),
    "incremental.push_s": ("hunt_s.p50", "fsp-table1"),
    "incremental.quick_ratio": ("hunt_s.p50", "fsp-table1"),
    "scratch.s": ("hunt_s.p50", "corpus"),
    "service.s": ("first_finding_s.p50", "fsp-table1"),
    "explore.recv_wait_s": ("hunt_s.p50",
                            "fsp-sharded; no change elsewhere"),
    "explore.merge_s": ("hunt_s.p50", "fsp-sharded; no change elsewhere"),
}

_METRICS = {
    **{name: "s" for pair in LAYERS.values() for name in pair},
    **{time_metric: "s" for _, _, time_metric, _ in SITES if time_metric},
    **{calls: "count" for _, _, _, calls in SITES if calls},
    "client_analysis.client_paths": "count",
    "difference.probes": "count",
    "observer.fresh": "count",
    "observer.replayed_ratio": "ratio",
    "engine.paths": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.entries": "count",
    "incremental.quick_ratio": "ratio",
    "incremental.frames_reused": "count",
    "solver.queries": "count",
    "service.queries_per_batch": "count",
    "explore.steals": "count",
    "explore.worker_queries": "count",
    "trace.hunts": "count",
    "trace.hunt_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}
_GROUPS = (*LAYERS, "solver", "trace")
#: Every per-layer metric the traced run reports, with its unit, grouped
#: by layer.
METRICS = dict(sorted(_METRICS.items(),
                      key=lambda item: _GROUPS.index(item[0].split(".")[0])))


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs the layer wrappers around traced hunts and sums their spans.

    One tracer serves a whole run: :meth:`installed` patches the program
    for the hunts inside it, :meth:`hunt` opens a hunt's root span, and
    :meth:`metrics` averages everything over the traced hunts.
    """

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        # Per layer: [self seconds, busy seconds, open spans].
        self._layers = {layer: [0.0, 0.0, 0] for layer in LAYERS}
        self._stack: list[list[float]] = []
        self._seen_prefixes: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._sites = [(layer, *_resolve(target), time_metric, calls)
                       for layer, target, time_metric, calls in SITES]
        self.hunts = 0
        self.hunt_seconds = 0.0
        self.unattributed = 0.0
        self.errors: list[str] = []
        # Forked shard workers inherit the wrappers; restore the originals
        # there so the workers run the program untouched.
        os.register_at_fork(after_in_child=self._restore)

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        for layer, owner, attr, time_metric, calls in self._sites:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            fn = self._counting(attr, original)
            setattr(owner, attr,
                    self._span(fn, self._layers[layer], time_metric, calls))
        try:
            yield self
        finally:
            self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _span(self, fn, layer: list, time_metric: str | None,
              calls: str | None):
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            layer[2] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                layer[0] += elapsed - frame[0]
                layer[2] -= 1
                if not layer[2]:
                    layer[1] += elapsed
                if time_metric is not None:
                    counters[time_metric] += elapsed
                if calls is not None:
                    counters[calls] += 1

        return span

    def _counting(self, attr: str, fn):
        """Add the counts that need a site's arguments or result."""
        counters = self.counters
        difference = self._layers["difference"]
        seen = self._seen_prefixes

        if attr == "extract_client_predicates":
            def counted(*args, **kwargs):
                predicates, stats = fn(*args, **kwargs)
                counters["client_analysis.client_paths"] += (
                    stats.paths_explored)
                return predicates, stats
        elif attr in ("probe_batch", "check_batch"):
            def counted(service, *args, **kwargs):
                queries = len(args[-1])
                counters["service.queries"] += queries
                if difference[2]:
                    counters["difference.probes"] += queries
                return fn(service, *args, **kwargs)
        elif attr == "on_constraint":
            def counted(observer, ctx, constraint):
                prefix = tuple(ctx.state.constraints)
                if prefix not in seen:
                    seen.add(prefix)
                    counters["observer.fresh"] += 1
                return fn(observer, ctx, constraint)
        elif attr == "explore":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters["engine.paths"] += len(result.executed)
                return result
        elif attr == "check_current":
            def counted(incremental):
                stats = incremental.solver.stats
                before = stats.quick_sats + stats.quick_unsats
                result = fn(incremental)
                counters["incremental.quick"] += (
                    stats.quick_sats + stats.quick_unsats - before)
                return result
        elif attr == "run":
            def counted(scheduler):
                result = fn(scheduler)
                counters["explore.steals"] += result.steals
                counters["explore.worker_queries"] += (
                    result.worker_solver_stats.queries)
                return result
        else:
            return fn
        return counted

    # -- hunts ---------------------------------------------------------------

    @contextmanager
    def hunt(self):
        """Root span of one traced hunt; checks that the times add up."""
        self._seen_prefixes.clear()
        root = [0.0]
        self._stack.append(root)
        selves_before = sum(layer[0] for layer in self._layers.values())
        started = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - started
            self._stack.pop()
        unattributed = wall - root[0]
        selves = sum(layer[0] for layer in self._layers.values())
        if abs(selves - selves_before + unattributed - wall) > 1e-6 * max(
                1.0, wall):
            self.errors.append(
                f"layer self times ({selves - selves_before:.6f}s) plus "
                f"unattributed time ({unattributed:.6f}s) do not add up "
                f"to the hunt's wall time ({wall:.6f}s)")
        self.hunts += 1
        self.hunt_seconds += wall
        self.unattributed += unattributed

    def add(self, name: str, value: float) -> None:
        """Add a count read from the program's own reports."""
        self.counters[name] += value

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, averaged per traced hunt."""
        hunts = max(self.hunts, 1)
        totals = dict(self.counters)
        for layer, (busy_metric, self_metric) in LAYERS.items():
            self_s, busy_s, _ = self._layers[layer]
            totals[self_metric] = self_s
            totals[busy_metric] = busy_s
        values = {name: totals.get(name, 0.0) / hunts for name in METRICS}
        calls = totals.get("observer.on_constraint.calls", 0.0)
        values["observer.replayed_ratio"] = (
            1.0 - totals.get("observer.fresh", 0.0) / calls if calls else 0.0)
        lookups = totals.get("cache.lookups", 0.0)
        values["cache.hit_ratio"] = (
            totals.get("cache.hits", 0.0) / lookups if lookups else 0.0)
        checks = totals.get("incremental.checks", 0.0)
        values["incremental.quick_ratio"] = (
            totals.get("incremental.quick", 0.0) / checks if checks else 0.0)
        batches = totals.get("service.batches", 0.0)
        values["service.queries_per_batch"] = (
            totals.get("service.queries", 0.0) / batches if batches else 0.0)
        values["trace.hunts"] = float(self.hunts)
        values["trace.hunt_s"] = self.hunt_seconds / hunts
        values["trace.unattributed_s"] = self.unattributed / hunts
        values["trace.overhead_ratio"] = overhead_ratio
        return values
