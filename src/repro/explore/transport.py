"""The coordinator↔worker transport for sharded exploration.

The shard protocol is message-shaped: the coordinator assigns decision
prefixes and folds back ``ShardOutcome``/heartbeat/error messages.
:class:`Transport` names that protocol as an interface and
:class:`LocalTransport` implements it: worker processes on this
machine, driven over ``multiprocessing`` queues. It is the only
transport. The interface stays because it is the
seam fault injection and tests stand behind:
:class:`~repro.explore.faults.FaultyTransport` wraps a
``LocalTransport``, and scripted in-memory transports stand in for it
in the scheduler's unit tests. The scheduler
(:mod:`repro.explore.scheduler`) is written purely against this
interface.

Message flow, coordinator side:

1. :meth:`Transport.start` launches ``count`` workers and hands each
   one the :class:`WorkerSession` (setup callable, engine config, the
   seeded observer memo and observation settings).
2. :meth:`Transport.assign` ships an
   :class:`~repro.explore.shard.Assignment` to one worker.
3. :meth:`Transport.recv` polls for the next ``(kind, wid, payload)``
   message (``MSG_DONE``/``MSG_HEARTBEAT``/``MSG_ERROR``), returning None
   on timeout so the scheduler can run its liveness checks via
   :meth:`Transport.alive`.
4. :meth:`Transport.stop` shuts every worker down (idempotent).

Failure semantics: a worker that raises reports ``MSG_ERROR`` with its
traceback; a worker that dies silently (SIGKILL) is detected by
``alive()`` going False while the worker still holds an assignment.
What happens next is the scheduler's ``on_worker_loss`` policy:
``"fail"`` (default) raises naming the lost assignment, ``"recover"``
calls :meth:`Transport.abort` and finishes the walk in-process. Either
way a lost worker ends the fleet: no transport ever replaces a worker.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field

from repro.explore.shard import Assignment, ShardSetup, shard_worker
from repro.symex.engine import EngineConfig


@dataclass
class WorkerSession:
    """Everything a worker needs to serve one sharded run.

    This is the session-init payload the transport hands to every
    worker before the first assignment; all of it must be picklable
    (the ``spawn`` start method pickles it into the new process).

    Attributes:
        setup: module-level ``setup(engine, *args) -> (program, observer)``
            callable, run once per session inside the worker
            (:meth:`open`); the pair serves every assignment.
        setup_args: picklable arguments for ``setup``.
        engine_config: exploration limits for the worker's private engine
            (which starts with an empty query cache).
        observer_memo: what the coordinator's observer exported after the
            seed phase (:meth:`~repro.symex.observers.PathObserver.export_memo`
            — for the Trojan search, its prefix trie with the models it
            kept), adopted by each worker's observer before its first
            assignment; None when there is nothing to share.
        trace: when True the worker activates a local tracer and ships
            a :class:`~repro.obs.trace.TraceDelta` on every result
            frame. Off by default — tracing must cost nothing unless a
            run asks for it.
        heartbeat_interval: seconds between liveness-gauge heartbeats
            (:data:`~repro.explore.shard.MSG_HEARTBEAT` messages);
            0 (the default) sends none.
    """

    setup: ShardSetup
    setup_args: tuple = ()
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    observer_memo: object = None
    trace: bool = False
    heartbeat_interval: float = 0.0

    def open(self, engine):
        """Build this session's ``(program, observer)`` pair on ``engine``,
        the observer starting from :attr:`observer_memo`."""
        program, observer = self.setup(engine, *self.setup_args)
        if observer is not None and self.observer_memo is not None:
            observer.adopt_memo(self.observer_memo)
        return program, observer


class Transport:
    """Coordinator-side interface over one fleet of shard workers.

    Implementations own the full worker lifecycle: :meth:`start` brings
    the fleet up, the messaging methods carry the shard protocol, and
    :meth:`stop` tears it down. All methods are called from the
    coordinator thread only.
    """

    #: Number of workers this transport was started with.
    worker_count: int = 0

    def start(self, count: int, session: WorkerSession) -> None:
        """Bring up ``count`` workers, each initialized with ``session``."""
        raise NotImplementedError

    def assign(self, wid: int, assignment: Assignment) -> None:
        """Ship an :class:`~repro.explore.shard.Assignment`; raises
        :class:`~repro.errors.SymexError` if the worker is unreachable
        (the assignment would otherwise be silently lost)."""
        raise NotImplementedError

    def recv(self, timeout: float) -> tuple[str, int, object] | None:
        """Next ``(kind, wid, payload)`` message, or None on timeout."""
        raise NotImplementedError

    def alive(self, wid: int) -> bool:
        """True while the worker can still deliver messages."""
        raise NotImplementedError

    def describe(self, wid: int) -> str:
        """Human-readable worker identity for error messages."""
        return f"worker {wid}"

    def stop(self) -> None:
        """Shut every worker down; idempotent, never raises."""
        raise NotImplementedError

    def abort(self) -> None:
        """Tear every worker down *now* — the run is aborting and any
        in-flight assignment is doomed, so there is nothing worth
        draining. Defaults to the graceful :meth:`stop`."""
        self.stop()


class LocalTransport(Transport):
    """Shard workers as local ``multiprocessing`` processes.

    One task queue per worker, one shared result queue back, daemon
    processes joined (and terminated as a hang safety net) on
    :meth:`stop`.
    """

    #: Grace given to workers to drain their queues at shutdown (seconds).
    SHUTDOWN_GRACE = 10.0

    def __init__(self):
        # Indexed by worker id: one process and task queue per worker;
        # every worker tags its result-queue messages with its id.
        self._workers: list = []
        self._task_queues: list = []
        self._result_queue = None

    def start(self, count: int, session: WorkerSession) -> None:
        import multiprocessing

        # fork inherits the interned AST arena copy-on-write; spawn (the
        # only option on some platforms) re-interns on unpickle.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self.worker_count = count
        self._result_queue = ctx.Queue()
        for wid in range(count):
            self._task_queues.append(ctx.Queue())
            worker = ctx.Process(
                target=shard_worker,
                args=(wid, session, self._task_queues[wid],
                      self._result_queue),
                daemon=True)
            self._workers.append(worker)
            worker.start()

    def assign(self, wid: int, assignment: Assignment) -> None:
        self._task_queues[wid].put(assignment)

    def recv(self, timeout: float) -> tuple[str, int, object] | None:
        try:
            return self._result_queue.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def alive(self, wid: int) -> bool:
        return self._workers[wid].is_alive()

    def describe(self, wid: int) -> str:
        pid = self._workers[wid].pid
        return f"local worker {wid} (pid {pid})"

    def stop(self) -> None:
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.monotonic() + self.SHUTDOWN_GRACE
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():  # pragma: no cover - hang safety net
                worker.terminate()
                worker.join()
        self._forget_workers()

    def abort(self) -> None:
        # A worker mid-assignment would keep exploring until it next
        # polls its task queue — up to SHUTDOWN_GRACE of doomed work on
        # the graceful path. The run is being thrown away; kill instead.
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=self.SHUTDOWN_GRACE)
        self._forget_workers()

    def _forget_workers(self) -> None:
        self._workers = []
        self._task_queues = []
        self._result_queue = None
