"""Unit tests for the transport layer: the interface, the local worker
lifecycle, and the absence of any network transport.

End-to-end sharded runs (parity across shard counts, worker death,
tracing) live in ``tests/integration/``; this file covers the pieces in
isolation.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.explore import Assignment, LocalTransport, Transport
from repro.explore.transport import WorkerSession
from repro.symex.engine import EngineConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestWorkerSession:
    def test_session_carries_no_cache_state(self):
        """A worker's engine starts with an empty private cache: the
        session-init payload holds the setup, the limits, the seeded
        observer memo and the observation switches, and no query-cache
        entries."""
        names = {f.name for f in dataclasses.fields(WorkerSession)}
        assert names == {"setup", "setup_args", "engine_config",
                         "observer_memo", "trace", "heartbeat_interval"}


class TestTransportInterface:
    def test_base_class_is_abstract_enough(self):
        transport = Transport()
        with pytest.raises(NotImplementedError):
            transport.start(1, None)
        with pytest.raises(NotImplementedError):
            transport.recv(0.1)
        assert transport.describe(3) == "worker 3"

    def test_no_steal_surface(self):
        """No work moves between workers once assigned, so no transport
        raises or clears a steal request."""
        import repro.explore
        from repro.explore import FaultyTransport

        for transport in (Transport, LocalTransport, FaultyTransport):
            for name in ("request_steal", "acknowledge_done"):
                assert not hasattr(transport, name), (transport, name)
        assert "StealControl" not in repro.explore.__all__


def tiny_setup(engine):
    def program(ctx):
        ctx.branch(ctx.fresh_bool("b"))
    return program, None


class TestLocalTransportLifecycle:
    def test_start_assign_recv_stop(self):
        from repro.explore import WorkerSession
        from repro.explore.shard import MSG_DONE

        transport = LocalTransport()
        transport.start(1, WorkerSession(setup=tiny_setup,
                                         engine_config=EngineConfig()))
        try:
            assert transport.alive(0)
            assert "local worker 0" in transport.describe(0)
            transport.assign(0, Assignment(((),)))
            message = None
            for _ in range(500):
                message = transport.recv(0.05)
                if message is not None:
                    break
            assert message is not None
            kind, wid, outcome = message
            assert (kind, wid) == (MSG_DONE, 0)
            assert len(outcome.paths) == 2
        finally:
            transport.stop()

    def test_stop_is_idempotent(self):
        transport = LocalTransport()
        transport.stop()
        transport.stop()

    def test_terminated_worker_reads_dead_while_survivor_serves(self):
        """Terminate one worker process outright: ``alive`` reports it,
        and the other worker still serves a fresh assignment."""
        from repro.explore import WorkerSession
        from repro.explore.shard import MSG_DONE

        transport = LocalTransport()
        transport.start(2, WorkerSession(setup=tiny_setup,
                                         engine_config=EngineConfig()))
        try:
            victim = transport._workers[0]
            victim.terminate()
            victim.join(timeout=10)
            assert not transport.alive(0)
            assert transport.alive(1)
            transport.assign(1, Assignment(((),)))
            message = None
            for _ in range(500):
                message = transport.recv(0.05)
                if message is not None:
                    break
            assert message is not None
            kind, wid, outcome = message
            assert (kind, wid) == (MSG_DONE, 1)
            assert len(outcome.paths) == 2
        finally:
            transport.stop()


def _started(count):
    from repro.explore import WorkerSession

    transport = LocalTransport()
    transport.start(count, WorkerSession(setup=tiny_setup,
                                         engine_config=EngineConfig()))
    return transport


def _next_message(transport, attempts=500):
    for _ in range(attempts):
        message = transport.recv(0.05)
        if message is not None:
            return message
    raise AssertionError("no worker message arrived")


class TestLocalTransportMessaging:
    def test_worker_count_is_the_started_count(self):
        transport = _started(2)
        try:
            assert transport.worker_count == 2
            assert transport.alive(0) and transport.alive(1)
        finally:
            transport.stop()

    def test_messages_carry_the_assigned_workers_id(self):
        from repro.explore.shard import MSG_DONE

        transport = _started(2)
        try:
            transport.assign(0, Assignment(((True,),)))
            transport.assign(1, Assignment(((False,),)))
            got = {}
            for _ in range(2):
                kind, wid, outcome = _next_message(transport)
                assert kind == MSG_DONE
                got[wid] = [p.decisions for p in outcome.paths]
            assert got == {0: [(True,)], 1: [(False,)]}
        finally:
            transport.stop()

    def test_recv_times_out_with_none_when_idle(self):
        transport = _started(1)
        try:
            assert transport.recv(0.05) is None
        finally:
            transport.stop()


class TestLocalTransportShutdown:
    def test_stop_drains_workers_gracefully(self):
        transport = _started(2)
        workers = list(transport._workers)
        transport.stop()
        assert [w.exitcode for w in workers] == [0, 0]

    def test_abort_kills_busy_workers_and_forgets_them(self):
        transport = _started(2)
        workers = list(transport._workers)
        transport.abort()
        assert not any(w.is_alive() for w in workers)
        assert transport._workers == []

    def test_stop_after_abort_is_harmless(self):
        transport = _started(1)
        transport.abort()
        transport.stop()


class TestOneTransport:
    """Local worker processes are the only transport: nothing in the
    package listens on, or connects over, the network."""

    def test_tcp_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.explore.tcp")

    def test_package_exports_no_network_names(self):
        import repro.explore

        for name in ("TcpTransport", "resolve_transport", "DropConnection"):
            assert name not in repro.explore.__all__
            assert not hasattr(repro.explore, name)

    def test_every_exported_name_resolves(self):
        import repro.explore

        for name in repro.explore.__all__:
            assert getattr(repro.explore, name) is not None, name

    def test_scheduler_takes_no_hosts(self):
        from repro.explore import ShardScheduler

        with pytest.raises(TypeError, match="hosts"):
            ShardScheduler(tiny_setup, shards=2, hosts=("127.0.0.1:9100",))

    def test_scheduler_ships_no_cache(self):
        from repro.explore import ShardScheduler

        with pytest.raises(TypeError, match="ship_cache"):
            ShardScheduler(tiny_setup, shards=2, ship_cache=True)

    def test_no_module_imports_socket(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] in ("socket", "socketserver")
                       for name in names):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, offenders
