"""Live one-line fleet status for long hunts (``--progress``).

A :class:`ProgressMeter` aggregates worker heartbeats (paths/sec,
worklist depth, cache hit rate) plus coordinator-side counts (pending
prefixes, busy workers, failures) and prints a single status line to
stderr at a fixed cadence. In-process walks (serial runs and worker-loss recovery)
feed it through :class:`~repro.explore.shard.HeartbeatControl` with a
zero interval. It deliberately has no repro imports, so it can sit below
every layer it observes.
"""

from __future__ import annotations

import sys
import time


class ProgressMeter:
    """Renders ``[hunt] 12.4s paths=1534 (123.4/s) ...`` lines.

    ``paths=`` counts executed paths, pruned ones included (one per
    between-paths checkpoint of :class:`~repro.explore.shard.HeartbeatControl`),
    so it ends above the report's "server paths explored", which counts
    finished paths only: a serial FSP hunt ends at ``paths=317`` against
    285 explored and 32 pruned.
    """

    def __init__(self, stream=None, interval: float = 1.0,
                 clock=time.monotonic, label: str = "hunt"):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.clock = clock
        self.label = label
        self.started = clock()
        self._last_render = self.started
        self._last_paths = 0
        self._last_rate_at = self.started
        self._fleet: dict[int, dict] = {}
        self.coordinator: dict = {}

    # -- inputs ---------------------------------------------------------

    def heartbeat(self, wid: int, payload: dict) -> None:
        """Record one worker heartbeat (a plain dict of gauges)."""
        self._fleet[wid] = payload

    def note(self, **fields) -> None:
        """Update coordinator-side fields (pending, busy, failures...)."""
        self.coordinator.update(fields)

    def fleet_lost(self, failures: int) -> None:
        """The fleet was torn down: forget its gauges and fleet counts
        (its work is dropped) and show how many workers were lost."""
        self._fleet.clear()
        for key in ("workers", "busy", "pending"):
            self.coordinator.pop(key, None)
        self.coordinator["failures"] = failures

    # -- rendering ------------------------------------------------------

    def _totals(self) -> dict:
        paths = sum(hb.get("paths", 0) for hb in self._fleet.values())
        paths += self.coordinator.get("paths", 0)
        worklist = sum(hb.get("worklist", 0) for hb in self._fleet.values())
        worklist += self.coordinator.get("worklist", 0)
        hits = sum(hb.get("cache_hits", 0) for hb in self._fleet.values())
        misses = sum(hb.get("cache_misses", 0) for hb in self._fleet.values())
        hits += self.coordinator.get("cache_hits", 0)
        misses += self.coordinator.get("cache_misses", 0)
        return {"paths": paths, "worklist": worklist,
                "cache_hits": hits, "cache_misses": misses}

    def status_line(self) -> str:
        now = self.clock()
        totals = self._totals()
        elapsed = now - self.started
        window = max(now - self._last_rate_at, 1e-9)
        rate = (totals["paths"] - self._last_paths) / window
        self._last_paths = totals["paths"]
        self._last_rate_at = now
        parts = [f"[{self.label}] {elapsed:6.1f}s",
                 f"paths={totals['paths']}", f"({rate:.1f}/s)"]
        if self._fleet or "workers" in self.coordinator:
            workers = self.coordinator.get("workers", len(self._fleet))
            busy = self.coordinator.get("busy")
            parts.append(f"workers={workers}"
                         + (f" busy={busy}" if busy is not None else ""))
        if "pending" in self.coordinator:
            parts.append(f"pending={self.coordinator['pending']}")
        parts.append(f"worklist={totals['worklist']}")
        queries = totals["cache_hits"] + totals["cache_misses"]
        if queries:
            parts.append(f"cache={totals['cache_hits'] / queries:.1%}")
        if self.coordinator.get("failures"):
            parts.append(f"failures={self.coordinator['failures']}")
        return " ".join(parts)

    def maybe_render(self, **fields) -> bool:
        """Render one status line if the cadence interval has elapsed."""
        if fields:
            self.note(**fields)
        now = self.clock()
        if now - self._last_render < self.interval:
            return False
        self._last_render = now
        print(self.status_line(), file=self.stream, flush=True)
        return True

    def close(self) -> None:
        """Final status line so short runs show at least one."""
        print(self.status_line(), file=self.stream, flush=True)
