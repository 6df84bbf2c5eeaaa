"""Observability: run tracing, metrics, structured logs, live progress.

The subsystem is dark by default. A run that passes ``trace_dir``
activates the module-global :class:`~repro.obs.trace.Tracer` (and the
metrics registry riding on it); instrumented hot paths guard on the
module global being ``None``, so the disabled cost is one attribute
load per call site. Workers ship their spans home as
:class:`~repro.obs.trace.TraceDelta` payloads riding the existing
result frames, and the coordinator merges everything into one
``trace.jsonl`` of plain JSON Lines; a reader salvages the records
before the first damaged line.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressMeter
from repro.obs.trace import TraceDelta, Tracer

__all__ = [
    "MetricsRegistry",
    "ProgressMeter",
    "TraceDelta",
    "Tracer",
]
