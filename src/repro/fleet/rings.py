"""Per-process ToPA ring management with buffer-full degradation.

Each fleet process owns one ToPA ring (its core's trace buffer).  When
the ring's interrupt region fills, the PMI fires and one of the §4
degradation policies applies:

- **stall** — the PMI asserts the executor's interrupt line, pausing
  the process at the next instruction boundary until a checker worker
  drains the ring.  Nothing is lost; the process pays the drain latency
  as stall cycles (the conservative, overhead-heavy choice).
- **lossy** — tracing continues and the ring wraps, overwriting the
  oldest bytes (drop-oldest).  The monitor must then perform a forced
  full-path re-sync at the next PSB: the snapshot head may be a packet
  *tail*, so everything before the first PSB is undecodable and counted
  as lost alongside the overwritten bytes.

A few bytes may still land after the PMI and before the executor stops
(the current instruction's packet group finishes emitting) — real PMIs
have the same skid, which is why the paper sizes the interrupt region
below the full ring.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.executor import Executor
from repro.ipt.columnar import sync_to_psb
from repro.ipt.topa import ToPA, ToPARegion


class RingPolicy(enum.Enum):
    """What to do when a process's trace ring fills."""

    STALL = "stall"
    LOSSY = "lossy"


def make_ring_topa(capacity: int, pmi_callback=None) -> ToPA:
    """A fleet ring: two equal regions, PMI on the second — the paper's
    §5.1 shape at a configurable capacity (pressure experiments shrink
    it to force PMIs)."""
    half = max(64, capacity // 2)
    return ToPA(
        regions=[ToPARegion(half), ToPARegion(half, interrupt=True)],
        pmi_callback=pmi_callback,
    )


@dataclass
class DrainResult:
    """One ring drain: the readable bytes plus loss accounting."""

    data: bytes
    #: bytes overwritten by drop-oldest wrapping since the last drain.
    overwritten: int = 0
    #: undecodable pre-PSB head bytes discarded by the forced re-sync.
    resync_dropped: int = 0
    #: True when this drain had to re-sync (ring wrapped since drain).
    resynced: bool = False


@dataclass
class ProcessRing:
    """One process's trace ring plus its degradation-policy state."""

    topa: ToPA
    policy: RingPolicy
    executor: Optional[Executor] = None

    pmi_count: int = 0
    stalls: int = 0
    resyncs: int = 0
    overwritten_bytes: int = 0
    resync_dropped_bytes: int = 0
    drains: int = 0

    #: set by the PMI in stall mode; the scheduler converts it into a
    #: stalled process + a drain task.
    stall_requested: bool = False
    #: an injected delay deferred a PMI: the scheduler delivers it at
    #: the start of the process's next quantum.
    delayed_pmi: bool = False
    #: set by the PMI in lossy mode; the scheduler drains at the next
    #: quantum boundary without pausing the process.
    drain_requested: bool = False
    #: the fleet is currently holding the process off-CPU.
    stalled: bool = False
    #: fleet clock at which the stall began / the drain completes.
    stall_begin: float = 0.0
    stall_until: float = 0.0
    #: cumulative cycles the process spent paused on ring drains.
    stall_cycles: float = 0.0

    _drained_mark: int = field(default=0, repr=False)

    # -- PMI delivery --------------------------------------------------------

    def on_pmi(self) -> None:
        """Ring-full interrupt, delivered from the ToPA write path."""
        self.pmi_count += 1
        if self.policy is RingPolicy.STALL:
            self.stall_requested = True
            if self.executor is not None:
                # Assert the core's interrupt line: the process stops at
                # the next instruction boundary and stays off-CPU until
                # a worker drains the ring.
                self.executor.stop_requested = True
        else:
            # LOSSY: let the ToPA wrap (drop-oldest); ask for an
            # asynchronous drain, and account the loss there (the drain
            # must re-sync at a PSB).
            self.drain_requested = True

    # -- draining ------------------------------------------------------------

    def pending_loss(self, data: bytes) -> int:
        """Bytes already overwritten since the last drain (lossy wrap),
        given ``data``, a snapshot of the ring since its last write."""
        written = self.topa.total_bytes_written - self._drained_mark
        return max(0, written - len(data))

    def drain(self, data: Optional[bytes] = None) -> DrainResult:
        """Consume the ring: account losses, re-sync, reset.  ``data``
        is a snapshot of the ring since its last write, when the caller
        already holds one (None takes one here)."""
        if data is None:
            data = self.topa.snapshot()
        overwritten = self.pending_loss(data)
        resync_dropped = 0
        resynced = False
        if overwritten > 0:
            # Bytes were actually dropped-oldest (``wrapped`` alone only
            # means the last region filled): the snapshot head is now a
            # packet *tail*.  Forced full-path re-sync: drop it, restart
            # decoding at the first PSB.
            resynced = True
            self.resyncs += 1
            first_psb = sync_to_psb(data)
            if first_psb < 0:
                resync_dropped = len(data)
                data = b""
            elif first_psb > 0:
                resync_dropped = first_psb
                data = data[first_psb:]
        self.topa.clear()
        self._drained_mark = self.topa.total_bytes_written
        self.drains += 1
        self.overwritten_bytes += overwritten
        self.resync_dropped_bytes += resync_dropped
        self.stall_requested = False
        self.drain_requested = False
        return DrainResult(
            data=data,
            overwritten=overwritten,
            resync_dropped=resync_dropped,
            resynced=resynced,
        )

    # -- stall bookkeeping ---------------------------------------------------

    def begin_stall(self, now: float, until: float) -> None:
        self.stalled = True
        self.stalls += 1
        self.stall_begin = now
        self.stall_until = max(until, now)

    def end_stall(self, now: float) -> None:
        """Resume the process; charge the cycles it actually waited."""
        self.stall_cycles += max(0.0, now - self.stall_begin)
        self.stalled = False
        self.stall_requested = False
        if self.executor is not None:
            self.executor.stop_requested = False
