"""The checker worker pool: M simulated idle cores.

FlowGuard's monitors run on cores the protected workload leaves idle
(§5.3); checking is therefore *asynchronous* — a check enqueued at fleet
time T completes at some later time, and the gap is the **check lag**
the fleet telemetry tracks.

The simulated pool is a deterministic list scheduler: each check task
carries PSB-aligned decode slices (independently decodable, the §5.3
parallel-decode property) plus a serial phase (ITC search, slow-path
upcall) that runs after the last slice lands.  Slices go to the
earliest-available worker (ties broken by worker index), so two runs of
the same fleet produce byte-identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class CheckTask:
    """One dispatched flow check (endpoint, PMI drain, or exit drain)."""

    task_id: int
    pid: int
    kind: str  # "endpoint" | "pmi-drain" | "exit-drain"
    syscall_nr: int
    enqueued_at: float
    #: decode cycles per PSB-aligned slice (parallelizable).
    slices: List[float] = field(default_factory=list)
    #: search + slow-path cycles (serial, after the last slice decodes).
    serial_cycles: float = 0.0
    verdict: str = "pass"
    resynced: bool = False
    #: dispatch attempts made (>1 when workers crashed/hung under
    #: fault injection and the dispatcher retried).
    attempts: int = 1
    #: every attempt failed: the check is unverifiable and the verdict
    #: never takes normal effect (fail-closed handling applies instead).
    dead_lettered: bool = False
    #: the check took a degraded path (drain re-read, PSB re-sync,
    #: slow-path fallback/upcall) and can cost orders of magnitude
    #: more than a clean fast-path check — the pool serializes it
    #: onto a single worker (the "degraded lane") so healthy checks
    #: never queue behind recovery work.
    degraded: bool = False

    # filled in by the pool:
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def lag(self) -> float:
        """Check latency: completion minus enqueue, in fleet cycles."""
        return self.finished_at - self.enqueued_at

    @property
    def cost(self) -> float:
        return sum(self.slices) + self.serial_cycles


class SimulatedWorkerPool:
    """Deterministic M-core list scheduler with a busy-cycle ledger."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one core")
        self.workers = workers
        self.free_at = [0.0] * workers
        self.busy_cycles = [0.0] * workers
        self.tasks_run = [0] * workers

    # -- scheduling ----------------------------------------------------------

    def _earliest(self, not_before: float) -> int:
        """Worker index that can start soonest: the lowest index idle
        at ``not_before``, else the lowest index of the earliest
        ``free_at``."""
        free_at = self.free_at
        for index, free in enumerate(free_at):
            if free <= not_before:
                return index
        return free_at.index(min(free_at))

    def _latest(self) -> int:
        """The degraded lane: the worker already booked furthest out
        (ties: highest index).  Piling recovery work onto it costs the
        least healthy capacity, and consecutive degraded checks
        serialize behind each other instead of spreading."""
        free_at = self.free_at
        return len(free_at) - 1 - free_at[::-1].index(max(free_at))

    def dispatch(
        self, task: CheckTask, not_before: Optional[float] = None
    ) -> float:
        """Schedule a task's slices then its serial phase; returns the
        completion time on the fleet clock.  ``not_before`` delays the
        earliest start past the enqueue time (retry backoff).

        Degraded tasks do not spread: every slice plus the serial
        phase runs back-to-back on the degraded lane, so one expensive
        re-verification occupies one worker, not the whole pool.
        """
        t0 = task.enqueued_at if not_before is None else not_before
        if task.degraded:
            w = self._latest()
            start = max(self.free_at[w], t0)
            cost = task.cost
            self.free_at[w] = start + cost
            self.busy_cycles[w] += cost
            self.tasks_run[w] += 1
            task.started_at = start
            task.finished_at = start + cost
            return task.finished_at
        first_start = None
        slice_end = t0
        last_worker: Optional[int] = None
        for cycles in task.slices:
            w = self._earliest(t0)
            start = max(self.free_at[w], t0)
            end = start + cycles
            self.free_at[w] = end
            self.busy_cycles[w] += cycles
            if first_start is None or start < first_start:
                first_start = start
            if end > slice_end:
                slice_end = end
                last_worker = w
        # The serial phase (search, upcall) runs on the worker that
        # finished the final slice — the combine step needs its output.
        if task.serial_cycles or not task.slices:
            w = last_worker if last_worker is not None else self._earliest(t0)
            start = max(self.free_at[w], t0, slice_end)
            end = start + task.serial_cycles
            self.free_at[w] = end
            self.busy_cycles[w] += task.serial_cycles
            self.tasks_run[w] += 1
            if first_start is None:
                first_start = start
            slice_end = end
        elif last_worker is not None:
            self.tasks_run[last_worker] += 1
        task.started_at = first_start if first_start is not None else t0
        task.finished_at = slice_end
        return task.finished_at

    def burn(
        self, not_before: float, cycles: float, lane: bool = False
    ) -> float:
        """Occupy a worker with ``cycles`` of *unproductive* work (a
        crashed/hung/timed-out check attempt).  The cycles land in the
        busy ledger like any other work — the dispatcher's
        ``retry_cycles`` entry is what keeps the reconciliation exact.
        ``lane`` sends the burn to the degraded lane instead of the
        earliest worker: a wedged attempt that a watchdog will cancel
        should not hold up healthy capacity.  Returns the burn's end
        time."""
        w = self._latest() if lane else self._earliest(not_before)
        start = max(self.free_at[w], not_before)
        end = start + cycles
        self.free_at[w] = end
        self.busy_cycles[w] += cycles
        return end

    # -- accounting ----------------------------------------------------------

    @property
    def busy_total(self) -> float:
        return sum(self.busy_cycles)

    def utilization(self, span: float) -> List[float]:
        """Per-worker busy fraction of the fleet's total span."""
        if span <= 0:
            return [0.0] * self.workers
        return [busy / span for busy in self.busy_cycles]
