"""HeartbeatControl: cadence, payload, observational purity."""

import io
from collections import deque

import pytest

from repro.explore.shard import HeartbeatControl
from repro.obs.progress import ProgressMeter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Recorder:
    def __init__(self):
        self.payloads = []

    def __call__(self, payload):
        self.payloads.append(payload)


class FakeStats:
    hits = 11
    misses = 4


class FakeCache:
    stats = FakeStats()


class FakeEngine:
    query_cache = FakeCache()


def test_emits_only_after_interval_elapses():
    clock = FakeClock()
    emit = Recorder()
    control = HeartbeatControl(1.0, emit, clock=clock)
    worklist = deque([(), ()])
    assert control.checkpoint(worklist) is True
    assert emit.payloads == []  # same instant as construction
    clock.now = 0.5
    control.checkpoint(worklist)
    assert emit.payloads == []
    clock.now = 1.0
    control.checkpoint(worklist)
    assert len(emit.payloads) == 1
    assert emit.payloads[0] == {"paths": 3, "worklist": 2}
    # the beat resets the window
    clock.now = 1.5
    control.checkpoint(worklist)
    assert len(emit.payloads) == 1
    assert control.sent == 1
    assert control.paths == 4


def test_engine_gauges_ride_the_payload():
    clock = FakeClock()
    emit = Recorder()
    control = HeartbeatControl(1.0, emit, engine=FakeEngine(), clock=clock)
    clock.now = 2.0
    control.checkpoint(deque())
    assert emit.payloads[0]["cache_hits"] == 11
    assert emit.payloads[0]["cache_misses"] == 4


def test_never_mutates_the_worklist():
    clock = FakeClock()
    control = HeartbeatControl(1.0, Recorder(), clock=clock)
    worklist = deque([(True,), (False,)])
    clock.now = 5.0
    assert control.checkpoint(worklist) is True
    assert list(worklist) == [(True,), (False,)]


def test_chains_no_other_control():
    """A worker's heartbeat is its only checkpoint control: nothing is
    left for it to wrap."""
    with pytest.raises(TypeError, match="inner"):
        HeartbeatControl(1.0, Recorder(), inner=None)


def test_zero_interval_beats_at_every_checkpoint():
    """The in-process walks' setting: no clock advance is needed."""
    clock = FakeClock()
    emit = Recorder()
    control = HeartbeatControl(0.0, emit, clock=clock)
    worklist = deque([()])
    for _ in range(3):
        control.checkpoint(worklist)
    assert [beat["paths"] for beat in emit.payloads] == [1, 2, 3]
    assert control.sent == 3


def test_zero_interval_feeds_a_progress_meter():
    """Serial runs and recovery wire each beat into the meter's
    coordinator fields; the meter's own cadence decides what prints."""
    clock = FakeClock()
    stream = io.StringIO()
    meter = ProgressMeter(stream=stream, interval=1.0, clock=clock)
    control = HeartbeatControl(0.0, lambda beat: meter.maybe_render(**beat),
                               engine=FakeEngine(), clock=clock)
    worklist = deque([(), ()])
    control.checkpoint(worklist)           # same instant: nothing prints
    assert stream.getvalue() == ""
    clock.now = 1.0
    control.checkpoint(worklist)
    [line] = stream.getvalue().splitlines()
    assert line.startswith("[hunt]")
    assert " paths=2 " in line
    assert " worklist=2" in line
    assert "cache=73.3%" in line           # 11 hits of 15 lookups
