"""Unified telemetry: metrics registry + span tracing + cycle profiler.

One process-wide :class:`Telemetry` instance (``get_telemetry()``) wires
the three sinks together:

- :class:`~repro.telemetry.metrics.MetricsRegistry` — labeled counters,
  gauges and histograms (``monitor.checks{path="fast"}``),
- :class:`~repro.telemetry.tracing.Tracer` — nested wall-clock spans,
  exportable as JSON-lines or Chrome trace-event JSON,
- :class:`~repro.telemetry.profiler.CycleProfiler` — simulated-cycle
  attribution per phase/component, a view over the cells
  ``MonitorStats.charge`` fills.

Telemetry is **disabled by default** and near-zero-overhead while
disabled: instrumented hot paths guard everything behind one
``tel.enabled`` attribute check, so the instrumentation stays wired in
permanently.

Usage::

    from repro import telemetry

    tel = telemetry.get_telemetry()
    tel.enable()
    ... run a protected workload ...
    snap = tel.snapshot()            # metrics + cycle profile
    tel.tracer.export_chrome("trace.json")
    tel.disable()

or scoped::

    with telemetry.capture() as tel:
        ... run ...
        snap = tel.snapshot()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.telemetry.metrics import (  # noqa: F401 (public re-exports)
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    series_name,
)
from repro.telemetry.profiler import PHASES, CycleProfiler  # noqa: F401
from repro.telemetry.tracing import Span, Tracer  # noqa: F401

# (the plane module is re-exported at the bottom of this file — it
# needs the Telemetry class defined first.)


class Telemetry:
    """The three sinks plus the single master enable switch.

    ``plane`` is the optional live observability plane
    (:class:`~repro.telemetry.plane.ObservabilityPlane`); hook sites
    guard on ``tel.plane is not None`` so runs without a plane pay one
    attribute read, nothing more.
    """

    __slots__ = ("metrics", "tracer", "profiler", "enabled", "plane")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.profiler = CycleProfiler()
        self.enabled = False
        self.plane = None

    # -- switching -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True
        self.metrics.enabled = True
        self.tracer.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.metrics.enabled = False
        self.tracer.enabled = False

    def attach_plane(self, plane) -> None:
        """Adopt ``plane`` and enable telemetry (the plane samples the
        registry, so the two must be on together — attach *after*
        ``reset()`` so sampled counters start from zero)."""
        self.plane = plane
        self.enable()

    def detach_plane(self):
        """Drop the plane (telemetry stays enabled); returns it."""
        plane, self.plane = self.plane, None
        return plane

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Clear every recorded series and span, and drop the
        profiler's registered processes.  The plane
        is left alone: its samples already taken would no longer match
        a zeroed registry, so flows attach a *fresh* plane after reset."""
        self.metrics.reset()
        self.tracer.reset()
        self.profiler.reset()

    def snapshot(self) -> Dict[str, object]:
        """Combined JSON-compatible snapshot of metrics and cycles."""
        snap = {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "profile": self.profiler.snapshot(),
            "spans": {
                "recorded": len(self.tracer.spans),
                "dropped": self.tracer.dropped,
            },
        }
        if self.plane is not None:
            snap["plane"] = {
                "samples": self.plane.sampler.taken,
                "flight_events": self.plane.flight.seq,
                "dumps": len(self.plane.flight.dumps),
            }
        return snap


#: The process-wide instance every instrumented module reports into.
_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    return _TELEMETRY


def enable() -> None:
    _TELEMETRY.enable()


def disable() -> None:
    _TELEMETRY.disable()


def reset() -> None:
    _TELEMETRY.reset()


from repro.telemetry.plane import (  # noqa: E402,F401 (public re-exports)
    FlightRecorder,
    ObservabilityPlane,
    SLOConfig,
    SLOEngine,
    SLObjective,
    TimeseriesSampler,
)


@contextmanager
def capture() -> Iterator[Telemetry]:
    """Enable telemetry for a scope, starting from zero and restoring
    the previous state."""
    was_enabled = _TELEMETRY.enabled
    _TELEMETRY.reset()
    _TELEMETRY.enable()
    try:
        yield _TELEMETRY
    finally:
        if not was_enabled:
            _TELEMETRY.disable()
