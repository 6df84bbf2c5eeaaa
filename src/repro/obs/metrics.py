"""Counters, gauges and latency histograms for the solver pipeline.

The registry makes per-layer latency distributions and hit rates
first-class: every solver layer (canonicalization, the canonical query
cache, the incremental frame stack, the from-scratch fallback) feeds a
histogram via the tracer's span exit, and run-level counters/gauges are
folded in at snapshot time.

Like tracing, metrics are off unless activated; snapshots are plain
JSON-able dicts so worker registries ship home inside a
:class:`~repro.obs.trace.TraceDelta` and fold into the coordinator's
with :func:`merge_snapshots`.
"""

from __future__ import annotations

#: Histogram bucket upper bounds, in seconds (the last bucket is
#: open-ended). Powers of ~4 from 10us to 40s cover a solver query to a
#: whole phase.
BUCKET_BOUNDS = (1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2,
                 4.096e-2, 0.16384, 0.65536, 2.62144, 10.48576, 41.94304)

#: The module-global active registry; ``None`` means metrics are off.
active: "MetricsRegistry | None" = None


def activate() -> "MetricsRegistry":
    global active
    if active is None:
        active = MetricsRegistry()
    return active


def deactivate() -> "MetricsRegistry | None":
    global active
    registry, active = active, None
    return registry


class Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """count/sum/min/max plus fixed log-spaced buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = 0.0
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def snapshot(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": list(self.buckets)}


class MetricsRegistry:
    """Named counters, gauges and histograms with mergeable snapshots."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access (creating on first use) --------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    # -- hot-path helpers ----------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    def add(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self._histograms.items())},
        }

    def drain(self) -> dict:
        """Snapshot and reset — each worker assignment ships its own
        increment, summed at the coordinator."""
        snapshot = self.snapshot()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        return snapshot

    def absorb(self, snapshot: dict) -> None:
        """Fold a shipped snapshot into this registry's live state."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, histo in snapshot.get("histograms", {}).items():
            target = self.histogram(name)
            target.count += histo.get("count", 0)
            target.total += histo.get("total", 0.0)
            low = histo.get("min")
            if low is not None and (target.min is None or low < target.min):
                target.min = low
            target.max = max(target.max, histo.get("max", 0.0))
            for index, n in enumerate(histo.get("buckets", ())):
                if index < len(target.buckets):
                    target.buckets[index] += n


def merge_snapshots(base: dict, extra: dict) -> dict:
    """Pure-dict fold of two snapshots (counters sum, gauges take the
    newer value, histograms combine)."""
    registry = MetricsRegistry()
    registry.absorb(base or {})
    registry.absorb(extra or {})
    return registry.snapshot()
