"""Outside-in layer tracing: timing wrappers around the stack's entry points.

The benchmark never edits the program to trace it.  Instead,
:class:`Tracer` swaps timing wrappers onto the public functions each
layer exposes (``Executor.run``, ``IPTEncoder.on_branch``,
``FastPathChecker.check``, ...) before the stack under test is built,
and restores the originals afterwards.  Every wrapped call becomes a
span with a name, start, end, parent and the id of the syscall or check
it belongs to; a span's *self* time is its duration minus the time its
child spans cover.

Two functions fire once per CoFI event or quantum (``IPTEncoder.on_branch``
and ``Executor.run``, about 0.2 M calls per 450 requests), so for those
only the call count, total and self time are kept; every other span is
recorded individually.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: spans that start a new id when no enclosing span carries one: a
#: syscall (solo and fleet interception), a fleet check submission
#: (ring drains have no syscall), or a bare fast-path check (replay).
ID_ROOTS = frozenset({"osmodel.syscall", "fleet.dispatch", "monitor.fastpath"})


class Tracer:
    """In-memory span recorder with per-layer totals and counters."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: named work counters (instructions, bytes scanned, ...).
        self.counters: Dict[str, float] = defaultdict(float)
        #: individually recorded spans:
        #: [name, start, end, parent_name, parent_index, id]
        self.spans: List[list] = []
        #: record individual spans (off after the first traced unit, so
        #: memory stays bounded; totals and counters always accumulate).
        self.keep_spans = True
        # frames: [child_time, id, span_index, name]
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _push(self, name: str, record: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = parent[1] if parent is not None else None
        if span_id is None and name in ID_ROOTS:
            span_id = self._next_id
            self._next_id += 1
        index = -1
        if record and self.keep_spans:
            index = len(self.spans)
            parent_index = -1
            for frame in reversed(stack):
                if frame[2] >= 0:
                    parent_index = frame[2]
                    break
            self.spans.append([
                name, 0.0, 0.0,
                parent[3] if parent is not None else None,
                parent_index, span_id,
            ])
        frame = [0.0, span_id, index, name]
        stack.append(frame)
        return frame

    def _pop(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        cell = self.totals[frame[3]]
        cell[0] += 1
        cell[1] += duration
        cell[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if frame[2] >= 0:
            record = self.spans[frame[2]]
            record[1] = start
            record[2] = end

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._push(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._pop(frame, start, time.perf_counter())

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
        aggregate: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, result)`` adds
        to :attr:`counters` after each call.  An ``aggregate`` span keeps
        only calls, total and self time."""
        clock = time.perf_counter
        push = self._push
        pop = self._pop

        if aggregate:
            totals = self.totals[name]
            stack = self._stack

            # The hot path (once per CoFI event): no span record, no id.
            def hot(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else None, -1, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    totals[0] += 1
                    totals[1] += duration
                    totals[2] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration

            return hot

        def timed(*args, **kwargs):
            frame = push(name, True)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                pop(frame, start, clock())
                if count is not None:
                    count(args, result)

        return timed

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None,
              aggregate: bool = False) -> None:
        """Replace ``owner.attr`` with a timed wrapper until
        :meth:`uninstall`; class methods and classmethods both work."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self.wrap(name, original.__func__, count, aggregate)
            )
        else:
            wrapped = self.wrap(name, original, count, aggregate)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def wrap_syscalls(self, kernel) -> None:
        """Wrap every syscall-table entry outermost (call after the
        monitor and load tracker have installed their handlers)."""
        for nr, handler in list(kernel.syscall_table.items()):
            kernel.install_handler(nr, self.wrap("osmodel.syscall", handler))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """The layer wrappers, in place for the duration of the block."""
        install_layer_wrappers(self)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def to_dict(self, origin: float = 0.0) -> dict:
        return {
            "totals": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {
                    "name": name,
                    "start_us": (start - origin) * 1e6,
                    "end_us": (end - origin) * 1e6,
                    "parent": parent,
                    "parent_span": parent_index if parent_index >= 0 else None,
                    "id": span_id,
                }
                for name, start, end, parent, parent_index, span_id
                in self.spans
            ],
        }


@contextmanager
def timed_checks(samples: List[float]):
    """Time every ``FastPathChecker.check`` call into ``samples``, with
    nothing else wrapped."""
    from repro.monitor.fastpath import FastPathChecker

    original = FastPathChecker.__dict__["check"]
    clock = time.perf_counter

    def check(self, data):
        start = clock()
        result = original(self, data)
        samples.append(clock() - start)
        return result

    FastPathChecker.check = check
    try:
        yield
    finally:
        FastPathChecker.check = original


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry point (syscall handlers are
    per-kernel: see :meth:`Tracer.wrap_syscalls`)."""
    from repro.cpu.executor import Executor
    from repro.fleet.dispatcher import FleetDispatcher
    from repro.fleet.scheduler import RoundRobinScheduler
    from repro.ipt.encoder import IPTEncoder
    from repro.ipt.full_decoder import FullDecoder
    from repro.itccfg.searchindex import FlowSearchIndex
    from repro.monitor import fastpath
    from repro.monitor.fastpath import FastPathChecker, Verdict
    from repro.monitor.slowpath import SlowPathEngine
    from repro.pipeline import FlowGuardPipeline

    counters = tracer.counters
    tracer.patch(Executor, "run", "cpu", aggregate=True)
    tracer.patch(IPTEncoder, "on_branch", "ipt.encoder", aggregate=True)

    def scan_bytes(args, result):
        counters["ipt.scan.bytes"] += len(args[0])

    # The fast path calls the scan through its own module binding.
    tracer.patch(fastpath, "columnar_scan", "ipt.scan", count=scan_bytes)
    tracer.patch(FastPathChecker, "decode_tail_columnar", "monitor.tail")

    def batch(args, result):
        if result is not None:
            counters["itccfg.check.edges"] += result.checked
            counters["itccfg.check.low_credit"] += len(result.low_credit)

    tracer.patch(FlowSearchIndex, "check_batch", "itccfg.check", count=batch)

    def verdict(args, result):
        if result is not None and result.verdict is Verdict.PASS:
            counters["monitor.fastpath.passes"] += 1

    tracer.patch(FastPathChecker, "check", "monitor.fastpath", count=verdict)
    tracer.patch(SlowPathEngine, "check", "monitor.slowpath")

    def full_insns(args, result):
        if result is not None:
            counters["ipt.full_decode.insns"] += result.insn_count

    tracer.patch(FullDecoder, "decode", "ipt.full_decode", count=full_insns)
    tracer.patch(FleetDispatcher, "submit", "fleet.dispatch")
    tracer.patch(RoundRobinScheduler, "step_round", "fleet.scheduler")
    tracer.patch(FlowGuardPipeline, "offline", "pipeline.offline")
