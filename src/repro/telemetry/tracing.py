"""Span-based tracing: nested wall-clock timing with two export formats.

A :class:`Span` is one timed region.  Spans nest — the tracer keeps an
open-span stack, so a span started inside another records its parent —
and export either as JSON-lines (one span object per line) or as the
Chrome ``chrome://tracing`` / Perfetto trace-event format (complete
``"ph": "X"`` events, microsecond timestamps).

Spans always *measure*, even while tracing is disabled — callers like
``repro.experiments.table5`` read ``span.duration_s`` as their one
wall-clock code path — but they are only *retained* (and therefore
exported) while the tracer is enabled.  The retention buffer is capped;
overflow drops the oldest-finished spans and counts them in
``dropped``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: finished spans a tracer keeps; older ones are dropped
MAX_SPANS = 100_000


class Span:
    """One timed region; finished spans are immutable in practice."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start_ns",
                 "end_ns")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def as_dict(self, epoch_ns: int = 0) -> Dict[str, object]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_us": (self.start_ns - epoch_ns) / 1000.0,
            "duration_us": self.duration_ns / 1000.0,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects finished spans; one per :class:`repro.telemetry.Telemetry`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.dropped = 0
        self._stack: List[Span] = []
        self._next_id = 1
        self._epoch_ns = time.perf_counter_ns()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Time a region; retain it (with nesting) when enabled."""
        retain = self.enabled
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if (retain and self._stack) else None,
            time.perf_counter_ns(),
            attrs,
        )
        if retain:
            self._next_id += 1
            self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            if retain:
                if self._stack and self._stack[-1] is span:
                    self._stack.pop()
                elif span in self._stack:  # pragma: no cover - defensive
                    self._stack.remove(span)
                self.spans.append(span)
                if len(self.spans) > MAX_SPANS:
                    overflow = len(self.spans) - MAX_SPANS
                    del self.spans[:overflow]
                    self.dropped += overflow

    def traced(self, name: Optional[str] = None) -> Callable:
        """Decorator form: ``@tracer.traced("phase.name")``."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or f"{fn.__module__}.{fn.__qualname__}"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0
        self._next_id = 1
        self._epoch_ns = time.perf_counter_ns()

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """One finished span per line; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(self._epoch_ns)) + "\n")
        return len(self.spans)

    def chrome_events(self) -> List[Dict[str, object]]:
        """Finished spans as Chrome trace-event ``"X"`` records."""
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start_ns - self._epoch_ns) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {str(k): v for k, v in span.attrs.items()},
            })
        return events

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing``-loadable JSON file."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(self.spans)
