"""Host-speed reference: time in seconds of a nominal host.

The benchmark shares a few cores of a host whose speed drifts by up to
1.8x within a minute (other tenants, not the program), so raw wall
throughput of the same code spreads by 25-35% between runs.  Two things
slow the program down, and the benchmark takes both out:

- Time-sharing: other processes hold the CPU while this one waits.
  Work is timed in process CPU time, which does not count the wait.
- A slower CPU while running (a busy sibling hyperthread, a shared
  cache, the hypervisor).  :class:`HostClock` runs a fixed pure-Python
  reference computation, :func:`reference_slice`, in short slices
  interleaved with the work: a one-shot ``SIGPROF`` timer fires after
  :data:`WORK_PER_SLICE` times the last slice's CPU time, and its
  handler runs one slice in the main thread at the next bytecode
  boundary.  The slices fill the same share of the CPU time, slow or
  fast, so the host's mean speed over a stretch of work is the
  reference work done in its slices over their CPU time.

Work timed with :meth:`HostClock.work_time` leaves slice time out; its
*reference seconds* -- that CPU time times the host speed meanwhile --
are the seconds the same work takes on the nominal host with the CPU to
itself.  The program runs on one thread, so on an idle host they equal
its wall seconds.  The reference code lives here, so no change to the
program moves it.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: one slice's CPU time on the nominal host: the fastest slice seen on
#: a 2-core x86_64 host (CPython 3.11) with nothing else running.
REF_NOMINAL_S = 0.0009

#: work between slices, in multiples of the last slice's CPU time: the
#: slices take a tenth of the run.
WORK_PER_SLICE = 9

_TABLE = {i: (i * 2654435761) & 0xFFFFFFFF for i in range(4096)}
_DATA = bytes((i * 131 + 7) & 0xFF for i in range(4096))
_ROUNDS = 3000


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0


def reference_slice() -> int:
    """A fixed mix of what the simulator does most: dict lookups, byte
    indexing, integer bit operations, attribute updates, list appends."""
    table, data, cell = _TABLE, _DATA, _Cell()
    out: List[int] = []
    acc = 0
    for i in range(_ROUNDS):
        b = data[i & 4095]
        v = table.get((acc ^ b) & 4095, 0)
        acc = ((acc << 1) ^ v) & 0xFFFFFFFF
        cell.value += b
        if b & 1:
            cell.hits += 1
            out.append(acc & 0xFF)
    return len(out) ^ acc ^ cell.value


class HostClock:
    """Samples the host's speed between :meth:`start` and :meth:`stop`.

    Time work with :meth:`work_time` and scale it by the
    :func:`host_speed` of the :attr:`slices` taken meanwhile to get
    nominal-host seconds."""

    def __init__(self) -> None:
        #: CPU time of each slice, in the order taken.
        self.slices: List[float] = []
        #: total slice CPU time so far.
        self.slice_s = 0.0
        self._running = False
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.process_time()
        reference_slice()
        # Never zero: a zero interval would disarm the timer.
        took = max(time.process_time() - start, 1e-6)
        self.slices.append(took)
        self.slice_s += took
        if self._running:
            # Re-armed after the slice, so slices never overlap and the
            # timer counts work alone.
            signal.setitimer(signal.ITIMER_PROF, WORK_PER_SLICE * took)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        self._running = True
        signal.setitimer(signal.ITIMER_PROF, WORK_PER_SLICE * REF_NOMINAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def work_time(self) -> float:
        """Process CPU time that stands still while a slice runs."""
        while True:
            before = self.slice_s
            now = time.process_time()
            if self.slice_s == before:  # no slice ran in between
                return now - before


def host_speed(slices: List[float]) -> float:
    """The host's mean speed over the given slices (1.0 = nominal)."""
    if not slices:
        raise ValueError("no host-speed sample in this stretch of work")
    return len(slices) * REF_NOMINAL_S / sum(slices)
