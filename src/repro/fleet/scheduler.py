"""Round-robin fleet scheduler over ``Kernel.step``.

One simulated CPU time-slices the N protected processes (quantum in
simulated cycles), while M checker workers run on their own simulated
idle cores.  The **fleet clock** is the protected CPU's virtual time:
it advances with every cycle a process executes, and while a quantum is
in flight it is *pinned* to that process's executor so mid-quantum
events (an endpoint check fired from inside a syscall) are timestamped
to the exact cycle, not the quantum boundary.

A quantum ends for one of four reasons, mirroring
:class:`repro.osmodel.kernel.StepOutcome`:

- **BUDGET** — the quantum expired; the process goes to the back of the
  round-robin order.
- **PREEMPTED** — the executor's interrupt line was asserted: either a
  ToPA PMI (stall policy: the process stalls until a worker drains its
  ring) or checker backpressure (queue too deep: the process stalls
  until the earliest in-flight check completes).
- **EXITED / KILLED** — the process is done; any residual ring content
  gets a final exit-drain check so trace emitted after the last
  endpoint is still examined.

When every runnable process is stalled, the clock jumps to the earliest
stall deadline — the fleet is then limited by checker throughput, which
is exactly the regime the stall-vs-lossy experiment measures.

Everything here is deterministic: same fleet, same seed ⇒ identical
schedule log (and digest), verdicts, and cycle totals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.osmodel.kernel import Kernel, StepOutcome
from repro.osmodel.process import Process
from repro.osmodel.syscalls import SIGKILL
from repro.telemetry import get_telemetry

from repro.fleet.dispatcher import FleetDispatcher
from repro.fleet.rings import ProcessRing
from repro.fleet.workers import CheckTask


class FleetClock:
    """The protected CPU's virtual time, pinnable to a running quantum."""

    def __init__(self) -> None:
        self._base = 0.0
        self._anchor_executor = None
        self._anchor_cycles = 0.0
        #: optional observability plane; sampled on every clock tick.
        self.plane = None

    @property
    def now(self) -> float:
        if self._anchor_executor is not None:
            return self._base + (
                self._anchor_executor.cycles - self._anchor_cycles
            )
        return self._base

    def pin(self, executor) -> None:
        """Track a quantum in flight: ``now`` follows its cycle count."""
        self._anchor_executor = executor
        self._anchor_cycles = executor.cycles

    def unpin(self) -> None:
        """End the quantum, folding its cycles into the base clock."""
        self._base = self.now
        self._anchor_executor = None
        if self.plane is not None:
            self.plane.maybe_sample(self._base)

    def advance_to(self, when: float) -> None:
        """Jump forward (idle wait); never moves backward."""
        assert self._anchor_executor is None, "cannot jump a pinned clock"
        self._base = max(self._base, when)
        if self.plane is not None:
            self.plane.maybe_sample(self._base)


@dataclass
class FleetEntry:
    """One scheduled process and its fleet-side state."""

    proc: Process
    pp: object  # monitor.ProtectedProcess
    ring: ProcessRing
    index: int
    quarantined: bool = False
    done: bool = False
    started_at: float = 0.0
    finished_at: Optional[float] = None
    quanta: int = 0

    @property
    def schedulable(self) -> bool:
        return not self.done and not self.quarantined


class RoundRobinScheduler:
    """Time-slice the fleet; co-simulate checking and enforcement."""

    def __init__(
        self,
        kernel: Kernel,
        clock: FleetClock,
        dispatcher: FleetDispatcher,
        quantum: float = 2000.0,
        max_rounds: int = 100_000,
    ) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.kernel = kernel
        self.clock = clock
        self.dispatcher = dispatcher
        self.quantum = float(quantum)
        self.max_rounds = max_rounds
        self.entries: List[FleetEntry] = []
        self._by_pid: Dict[int, FleetEntry] = {}
        self.rounds = 0
        #: (round, pid, cycles, outcome) — the deterministic schedule.
        self.schedule_log: List[tuple] = []

    # -- fleet membership ----------------------------------------------------

    def add(self, entry: FleetEntry) -> None:
        self.entries.append(entry)
        self._by_pid[entry.proc.pid] = entry

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        while self.step_round():
            pass
        self.finalize()

    def step_round(self) -> bool:
        """Run one scheduler round; ``False`` once the fleet is done.

        This is the historical ``run`` loop body, extracted so a
        serving front-end can interleave several fleets round-by-round
        in one loop: same verdict application order, same stall
        handling, same idle jumps, so N ``step_round`` calls followed
        by :meth:`finalize` produce a schedule digest byte-identical to
        one ``run``.
        """
        if self.rounds >= self.max_rounds:
            return False
        self._apply_due_verdicts()
        runnable = [e for e in self.entries if e.schedulable]
        if not runnable:
            return False
        progressed = False
        for entry in runnable:
            if not entry.schedulable:  # quarantined mid-round
                continue
            if entry.ring.stalled:
                if self.clock.now >= entry.ring.stall_until:
                    entry.ring.end_stall(self.clock.now)
                else:
                    continue
            self._run_quantum(entry)
            progressed = True
        if not progressed:
            # Whole fleet stalled on checkers: jump to the earliest
            # deadline instead of spinning.
            deadlines = [
                e.ring.stall_until
                for e in self.entries
                if e.schedulable and e.ring.stalled
            ]
            if not deadlines:
                return False
            self.clock.advance_to(min(deadlines))
        self.rounds += 1
        return True

    # -- one quantum ---------------------------------------------------------

    def _run_quantum(self, entry: FleetEntry) -> None:
        proc = entry.proc
        if entry.quanta == 0:
            entry.started_at = self.clock.now
        entry.quanta += 1
        if entry.ring.delayed_pmi:
            # An injected-delay PMI lands at the quantum boundary: the
            # ring-full handling runs now, one scheduling slot late.
            entry.ring.delayed_pmi = False
            self.dispatcher.monitor.count_pmi(entry.pp)
            entry.ring.on_pmi()
        start_cycles = proc.executor.cycles
        outcome = StepOutcome.BUDGET
        self.clock.pin(proc.executor)
        try:
            spent = 0.0
            while spent < self.quantum and proc.alive:
                budget = max(1, int(self.quantum - spent))
                outcome = self.kernel.step(proc, budget)
                spent = proc.executor.cycles - start_cycles
                if outcome is not StepOutcome.BUDGET:
                    break
        finally:
            self.clock.unpin()
        spent = proc.executor.cycles - start_cycles
        self.schedule_log.append(
            (self.rounds, proc.pid, round(spent, 6), outcome.value)
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("fleet.quanta").inc(outcome=outcome.value)

        if outcome is StepOutcome.PREEMPTED:
            if entry.ring.stall_requested:
                self._stall_for_drain(entry)
            else:
                self._stall_for_backpressure(entry)
        elif not proc.alive:
            self._retire(entry)
        elif entry.ring.drain_requested:
            # Lossy PMI: drain asynchronously, never pause the process.
            self._lossy_drain(entry)

    # -- PMI / backpressure handling ----------------------------------------

    def _drain_ring(self, entry: FleetEntry, kind: str,
                    skip_empty: bool = False) -> Optional[CheckTask]:
        """Check the ring and consume it from one ToPA snapshot: flush
        the encoder, snapshot once, submit a ``kind`` check over the
        snapshot (untrimmed; ``resynced`` when drop-oldest wrapping lost
        bytes since the last drain), then drain the ring with it.
        Returns the check task, or None for an empty ring when
        ``skip_empty`` (then nothing is checked or drained)."""
        pp = entry.pp
        pp.encoder.flush()
        data = pp.topa.snapshot()
        if skip_empty and not data:
            return None
        ring = entry.ring
        task = self.dispatcher.submit(
            pp, -1, kind, self.clock.now,
            data=data, resynced=ring.pending_loss(data) > 0,
        )
        ring.drain(data)
        return task

    def _stall_for_drain(self, entry: FleetEntry) -> None:
        """Stall policy: pause until a worker drains the ring."""
        now = self.clock.now
        task = self._drain_ring(entry, "pmi-drain")
        entry.ring.begin_stall(now, task.finished_at)

    def _stall_for_backpressure(self, entry: FleetEntry) -> None:
        """Checker queue too deep: hold the process until it eases."""
        now = self.clock.now
        until = self.dispatcher.earliest_pending_finish()
        entry.ring.begin_stall(now, until if until is not None else now)

    def _lossy_drain(self, entry: FleetEntry) -> None:
        now = self.clock.now
        if self.dispatcher.congested(now):
            self.dispatcher.drop_drain(entry.ring, entry.pp.process.pid, now)
            return
        self._drain_ring(entry, "pmi-drain")

    # -- retirement / enforcement -------------------------------------------

    def _retire(self, entry: FleetEntry) -> None:
        entry.done = True
        entry.finished_at = self.clock.now
        if entry.quarantined:
            return
        # Residual trace after the last endpoint still gets checked.
        self._drain_ring(entry, "exit-drain", skip_empty=True)

    def _apply_due_verdicts(self) -> None:
        for task in self.dispatcher.due_tasks(self.clock.now):
            entry = self._by_pid.get(task.pid)
            if task.dead_lettered:
                # The check could never be verified.  Fail closed when
                # the policy says so: an unverifiable window is treated
                # like a violation (quarantine), never like a pass.
                if (
                    self.dispatcher.retry.dead_letter_quarantine
                    and entry is not None
                    and not entry.quarantined
                ):
                    self._quarantine(
                        entry, task,
                        reason=(
                            f"dead-letter: check #{task.task_id} "
                            f"unverifiable after {task.attempts} attempts"
                        ),
                    )
                continue
            if task.verdict != "violation":
                continue
            if entry is None or entry.quarantined:
                continue
            self._quarantine(entry, task)

    def _quarantine(self, entry: FleetEntry, task, reason=None) -> None:
        """Kill + isolate the violator; the fleet keeps running."""
        posthumous = not entry.proc.alive
        entry.quarantined = True
        entry.done = True
        if entry.finished_at is None:
            entry.finished_at = self.clock.now
        if entry.proc.alive:
            self.kernel.kill_process(entry.proc, SIGKILL)
        if entry.ring.stalled:
            entry.ring.end_stall(self.clock.now)
        # Stop tracing the corpse; stats stay for reporting.
        try:
            entry.proc.executor.remove_listener(entry.pp.encoder.on_branch)
        except ValueError:  # pragma: no cover - already detached
            pass
        self.dispatcher.record_quarantine(
            entry.pp, task, self.clock.now, posthumous, reason=reason
        )

    # -- wind-down -----------------------------------------------------------

    def finalize(self) -> None:
        """Let in-flight checks complete and take effect."""
        horizon = self.dispatcher.flush_horizon()
        if horizon > self.clock.now:
            self.clock.advance_to(horizon)
        self._apply_due_verdicts()
        for entry in self.entries:
            if entry.ring.stalled:
                entry.ring.end_stall(self.clock.now)

    # -- reporting -----------------------------------------------------------

    def schedule_digest(self) -> str:
        """Stable hash of the schedule — the determinism witness."""
        blob = "\n".join(
            f"{r}|{pid}|{spent:.6f}|{outcome}"
            for r, pid, spent, outcome in self.schedule_log
        )
        return hashlib.sha256(blob.encode()).hexdigest()
