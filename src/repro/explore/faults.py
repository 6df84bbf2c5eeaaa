"""Deterministic fault injection for the sharded transport layer.

Recovery code that is only ever exercised by racy ``os.kill`` timing is
recovery code that regresses silently. :class:`FaultyTransport` wraps
any real :class:`~repro.explore.transport.Transport` and applies a
scripted :class:`FaultPlan` at the transport interface — the exact
surface the scheduler sees — so both ways a loss is detected (the
liveness poll and an undeliverable assignment) are driven by
deterministic message counts in unit tests and CI chaos jobs.

The fault vocabulary mirrors how distributed workers actually fail:

* :class:`KillWorker` — the worker goes silent after its Nth delivered
  message: ``alive()`` turns False, its subsequent messages are
  swallowed (a dead process delivers nothing), and assignments to it
  bounce.
* :class:`DelayResult` — one message is delivered late, exercising the
  liveness grace window.
* :class:`GarbleResult` — one message arrives undecodable; nothing the
  worker sends after it can be trusted, so the worker is severed.

The wrapper never reorders or fabricates messages, so a run under an
empty plan is byte-identical to the bare transport — and the headline
parity criterion (findings byte-identical with and without injected
faults, under ``on_worker_loss="recover"``) is testable end to end.
Faults act on the transport only: a run writes no durable state, so
there is nothing on disk for a fault to damage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SymexError
from repro.explore.transport import Transport, WorkerSession


@dataclass(frozen=True)
class KillWorker:
    """Silently sever worker ``wid`` once ``after_results`` of its
    messages have been delivered (0 = dead from its first assignment)."""

    wid: int
    after_results: int = 0


@dataclass(frozen=True)
class DelayResult:
    """Sleep ``seconds`` before delivering ``wid``'s ``nth`` (1-based)
    message — a slow worker, not a dead one."""

    wid: int
    nth: int
    seconds: float


@dataclass(frozen=True)
class GarbleResult:
    """Corrupt ``wid``'s ``nth`` (1-based) message in flight. The
    message is dropped and the worker severed: a worker whose output
    arrived corrupt cannot be trusted to deliver anything after it."""

    wid: int
    nth: int


class FaultPlan:
    """An ordered script of fault actions, applied deterministically.

    Each action fires at most once.
    """

    def __init__(self, *faults):
        self.faults = list(faults)

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.faults)
        return f"FaultPlan({inner})"


class FaultyTransport(Transport):
    """A :class:`Transport` decorator that injects a :class:`FaultPlan`.

    The ``injected_kills`` counter lets tests assert the plan actually
    fired — a chaos run whose faults never triggered proves nothing.
    """

    def __init__(self, inner: Transport, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self._delivered: dict[int, int] = {}
        self._severed: set[int] = set()
        self._consumed: set[int] = set()
        self.injected_kills = 0

    @property
    def worker_count(self) -> int:
        return self.inner.worker_count

    # -- fault evaluation ----------------------------------------------------

    def _severed_now(self, wid: int) -> bool:
        """True when ``wid`` is (or just became) severed by the plan."""
        if wid in self._severed:
            return True
        for fault in self.plan.faults:
            if (isinstance(fault, KillWorker)
                    and fault.wid == wid
                    and id(fault) not in self._consumed
                    and self._delivered.get(wid, 0) >= fault.after_results):
                self._consumed.add(id(fault))
                self._severed.add(wid)
                self.injected_kills += 1
                return True
        return False

    def _take(self, kind, wid: int, nth: int):
        """Pop the unconsumed ``kind`` fault matching this delivery."""
        for fault in self.plan.faults:
            if (isinstance(fault, kind) and fault.wid == wid
                    and fault.nth == nth
                    and id(fault) not in self._consumed):
                self._consumed.add(id(fault))
                return fault
        return None

    # -- transport interface -------------------------------------------------

    def start(self, count: int, session: WorkerSession) -> None:
        self.inner.start(count, session)

    def assign(self, wid: int, prefixes) -> None:
        if self._severed_now(wid):
            raise SymexError(
                f"shard worker {self.describe(wid)} is unreachable")
        self.inner.assign(wid, prefixes)

    def recv(self, timeout: float) -> tuple[str, int, object] | None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining < 0:
                return None
            message = self.inner.recv(max(0.0, remaining))
            if message is None:
                return None
            kind, wid, payload = message
            if self._severed_now(wid):
                # A dead worker delivers nothing: swallow and keep
                # waiting for someone else's message.
                continue
            nth = self._delivered.get(wid, 0) + 1
            delay = self._take(DelayResult, wid, nth)
            if delay is not None:
                time.sleep(delay.seconds)
            if self._take(GarbleResult, wid, nth) is not None:
                self._severed.add(wid)
                self.injected_kills += 1
                continue
            self._delivered[wid] = nth
            return message

    def alive(self, wid: int) -> bool:
        if self._severed_now(wid):
            return False
        return self.inner.alive(wid)

    def describe(self, wid: int) -> str:
        base = self.inner.describe(wid)
        if wid in self._severed:
            return f"{base} [severed by fault plan]"
        return base

    def stop(self) -> None:
        self.inner.stop()

    def abort(self) -> None:
        self.inner.abort()
