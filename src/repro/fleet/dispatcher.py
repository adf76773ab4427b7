"""The fleet dispatcher: routes checks to workers, applies verdicts.

The dispatcher sits between the protected processes and the worker
pool.  Every flow check — endpoint interception, PMI ring drain, exit
drain — becomes a :class:`~repro.fleet.workers.CheckTask`:

1. the verdict and its cycle cost are computed through the *same*
   ``FlowGuardMonitor._run_check`` path solo mode uses (so
   ``MonitorStats`` is charged exactly as in solo mode),
2. the cost is split into PSB-aligned decode slices plus a serial
   search phase and list-scheduled onto the simulated worker pool,
3. the verdict takes *effect* only when the fleet clock reaches the
   task's completion time — a violating process keeps running inside
   the detection window, exactly the asynchrony the paper trades for
   transparency.

Backpressure: when more checks are in flight than ``max_queue_depth``,
a stall-policy fleet pauses the submitting process until the queue
drains; a lossy fleet drops PMI-drain checks (endpoint checks are never
dropped — they are the enforcement points).

Violation verdicts become quarantine events: the offending process is
SIGKILLed and isolated from the scheduler while the rest of the fleet
keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import costs
from repro.ipt.columnar import psb_boundaries
from repro.resilience.faults import FaultInjector
from repro.resilience.ledger import DegradationLedger
from repro.resilience.retry import DeadLetter, RetryPolicy
from repro.telemetry import get_telemetry

from repro.fleet.rings import ProcessRing, RingPolicy
from repro.fleet.workers import CheckTask, SimulatedWorkerPool


@dataclass
class QuarantineEvent:
    """One enforced violation: kill + isolate, fleet keeps running."""

    pid: int
    name: str
    task_id: int
    detected_at: float  # fleet clock when the verdict landed
    enqueued_at: float
    reason: str
    #: the process had already exited when the verdict landed.
    posthumous: bool = False


def _slice_cycles(data: bytes, decode_cycles: float) -> List[float]:
    """Split a check's decode cost across its PSB-aligned slices.

    Proportional to slice byte length, with the final slice taking the
    remainder so the slices sum to ``decode_cycles`` *exactly* — the
    worker-ledger reconciliation depends on it.
    """
    if decode_cycles <= 0.0:
        return []
    boundaries = psb_boundaries(data)
    lengths = [
        end - begin
        for begin, end in zip(boundaries, boundaries[1:])
        if end > begin
    ]
    total = sum(lengths)
    if total <= 0 or len(lengths) <= 1:
        return [decode_cycles]
    slices = [decode_cycles * length / total for length in lengths[:-1]]
    slices.append(decode_cycles - sum(slices))
    return slices


class FleetDispatcher:
    """Check routing, backpressure, and deferred enforcement."""

    def __init__(
        self,
        pool: SimulatedWorkerPool,
        policy: RingPolicy = RingPolicy.STALL,
        max_queue_depth: int = 64,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.pool = pool
        self.policy = policy
        self.max_queue_depth = max_queue_depth
        #: retry/backoff/dead-letter policy for failed worker attempts.
        self.retry = retry if retry is not None else RetryPolicy()
        #: fault plane shared with the monitor (None = fault-free), set
        #: by the service.
        self.injector: Optional[FaultInjector] = None
        #: degradation audit trail shared with the monitor, set by the
        #: service.
        self.degradations: Optional[DegradationLedger] = None
        self.monitor = None  # bound by the service (FleetMonitor)
        self.tasks: List[CheckTask] = []
        #: tasks whose verdict has not yet taken effect, by finish time.
        self._pending: List[CheckTask] = []
        self.quarantines: List[QuarantineEvent] = []
        self.dead_letters: List[DeadLetter] = []
        self.dropped_checks: int = 0
        #: endpoint-interception cycles spent on the protected core (not
        #: on a worker) — the reconciliation remainder.
        self.intercept_cycles: float = 0.0
        #: pool cycles wasted by failed attempts (crash/hang/timeout):
        #: in ``busy_cycles`` but charged to no process's MonitorStats.
        self.retry_cycles: float = 0.0
        #: the dual hole: dead-lettered checks were costed eagerly into
        #: MonitorStats at submit() but never ran on any worker.
        self.dead_letter_cycles: float = 0.0
        self._next_task_id = 0

    # -- binding -------------------------------------------------------------

    def bind(self, monitor) -> None:
        """Attach the fleet monitor whose ``_run_check`` computes
        verdicts (done after construction: monitor and dispatcher
        reference each other)."""
        self.monitor = monitor

    # -- queue state ---------------------------------------------------------

    def queue_depth(self, now: float) -> int:
        """Checks still in flight at fleet time ``now``."""
        return sum(1 for task in self._pending if task.finished_at > now)

    def congested(self, now: float) -> bool:
        return self.queue_depth(now) >= self.max_queue_depth

    def earliest_pending_finish(self) -> Optional[float]:
        if not self._pending:
            return None
        return min(task.finished_at for task in self._pending)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        pp,
        nr: int,
        kind: str,
        now: float,
        data: Optional[bytes] = None,
        resynced: bool = False,
    ) -> CheckTask:
        """Run one check through the monitor and schedule its cost.

        ``data`` is the ring content the check examines, a ToPA snapshot
        taken after flushing the encoder (None takes one here); the
        check decodes exactly these bytes, and the slices are cut over
        them.  The verdict is computed eagerly so state matches solo
        mode, but its effect is deferred to the task's completion time.
        """
        assert self.monitor is not None, "dispatcher not bound to a monitor"
        if data is None:
            pp.encoder.flush()
            data = pp.topa.snapshot()
        stats = pp.stats
        before = (
            stats.decode_cycles,
            stats.check_cycles,
            stats.other_cycles,
        )
        slow_before = stats.slow_path_runs
        verdict = self.monitor._run_check(pp, nr, data)
        decode_delta = stats.decode_cycles - before[0]
        check_delta = stats.check_cycles - before[1]
        other_delta = stats.other_cycles - before[2]
        # The fixed interception cost is paid in the syscall path on the
        # protected core; everything else runs on a checker worker.
        intercept = min(costs.MONITOR_INTERCEPT_CYCLES, other_delta)
        self.intercept_cycles += intercept
        task = CheckTask(
            task_id=self._next_task_id,
            pid=pp.process.pid,
            kind=kind,
            syscall_nr=nr,
            enqueued_at=now,
            slices=_slice_cycles(data, decode_delta),
            serial_cycles=check_delta + (other_delta - intercept),
            verdict=verdict.value,
            resynced=resynced,
            # A check that upcalled into the slow path (fallback or
            # suspicion) costs orders of magnitude more than a clean
            # fast-path check — the pool serializes it onto the
            # degraded lane so healthy checks never queue behind it.
            # Cheap degradations (drain re-reads, PSB re-syncs) stay
            # on the normal spread: their cost is a small multiple of
            # a clean check.
            degraded=stats.slow_path_runs > slow_before,
        )
        self._next_task_id += 1
        self._dispatch_with_recovery(task)
        self.tasks.append(task)
        self._pending.append(task)
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("fleet.checks").inc(kind=kind, verdict=task.verdict)
            m.histogram("fleet.check_lag").observe(task.lag)
            m.gauge("fleet.queue_depth").set(self.queue_depth(now))
        return task

    def _dispatch_with_recovery(self, task: CheckTask) -> float:
        """Schedule a task on the pool, surviving worker faults.

        Fault-free this is exactly ``pool.dispatch(task)``.  Under
        injection, each attempt may crash (burning ``crash_fraction`` of
        the task's cost), hang (burning ``task_timeout`` when the policy
        sets one, else the plan's ``hang_cycles``), and is then retried
        after an exact exponential backoff —
        ``delay(n) = min(cap, base * factor**(n-1))`` — up to
        ``max_attempts`` total attempts.  A check that exhausts them is
        dead-lettered: recorded, never silently dropped, and handled
        fail-closed by the scheduler when the policy says so.
        """
        inj = self.injector
        if inj is None:
            return self.pool.dispatch(task)
        policy = self.retry
        not_before = task.enqueued_at
        history: List[str] = []
        for attempt in range(1, policy.max_attempts + 1):
            task.attempts = attempt
            fault = inj.worker_fault()
            if fault is None:
                return self.pool.dispatch(task, not_before=not_before)
            if fault == "crash":
                kind = "worker-crash"
                wasted = task.cost * inj.plan.crash_fraction
            elif policy.task_timeout > 0:
                # The watchdog cancels the wedged attempt at the timeout.
                kind = "task-timeout"
                wasted = policy.task_timeout
            else:
                kind = "worker-hang"
                wasted = inj.plan.hang_cycles
            if policy.task_timeout > 0:
                wasted = min(wasted, policy.task_timeout)
            history.append(kind)
            # Hung/timed-out attempts wedge the degraded lane, not a
            # healthy worker — the watchdog will cancel them anyway.
            # A crash is detected immediately and burns only a
            # fraction of the task's cost, wherever it ran.
            failed_at = self.pool.burn(
                not_before, wasted, lane=(fault != "crash")
            )
            self.retry_cycles += wasted
            if self.degradations is not None:
                self.degradations.record(
                    kind, pid=task.pid,
                    detail=f"task={task.task_id} attempt={attempt}",
                    at=failed_at, cycles=wasted,
                )
            if attempt < policy.max_attempts:
                hedged = (
                    kind != "worker-crash" and policy.hedge_delay > 0
                )
                if hedged:
                    # Tail-latency hedge: a wedged attempt is re-issued
                    # a short delay after dispatch instead of waiting
                    # out the watchdog.  The burn above still accrues —
                    # hedging spends spare capacity, it hides nothing.
                    delay = policy.hedge_delay
                    not_before = not_before + delay
                else:
                    delay = policy.delay(attempt)
                    not_before = failed_at + delay
                if self.degradations is not None:
                    self.degradations.record(
                        "hedge" if hedged else "retry", pid=task.pid,
                        detail=f"task={task.task_id} "
                               f"attempt={attempt + 1} delay={delay:g}",
                        at=not_before,
                    )
            else:
                task.dead_lettered = True
                task.started_at = task.enqueued_at
                task.finished_at = failed_at
                # submit() charged the verdict's cost to MonitorStats
                # eagerly, but no attempt ever ran it on the pool.
                self.dead_letter_cycles += task.cost
                letter = DeadLetter(
                    task_id=task.task_id,
                    pid=task.pid,
                    kind=kind,
                    attempts=attempt,
                    last_fault=",".join(history),
                    at=failed_at,
                )
                self.dead_letters.append(letter)
                if self.degradations is not None:
                    self.degradations.record(
                        "dead-letter", pid=task.pid,
                        detail=f"task={task.task_id} after {attempt} "
                               f"attempts ({letter.last_fault})",
                        at=failed_at,
                    )
        return task.finished_at

    def drop_drain(self, ring: ProcessRing, pid: int, at: float) -> None:
        """Lossy backpressure: skip process ``pid``'s PMI drain check
        at fleet time ``at``.

        The ring is still consumed (its bytes are lost unexamined) so
        tracing continues from a clean buffer."""
        ring.drain()
        self.dropped_checks += 1
        if self.degradations is not None:
            self.degradations.record("drop-drain", pid=pid, at=at)

    # -- verdict application -------------------------------------------------

    def due_tasks(self, now: float) -> List[CheckTask]:
        """Pop every task whose completion time has been reached, in
        completion order (ties: submission order — both deterministic)."""
        due = [t for t in self._pending if t.finished_at <= now]
        if due:
            self._pending = [t for t in self._pending if t.finished_at > now]
            due.sort(key=lambda t: (t.finished_at, t.task_id))
        return due

    def flush_horizon(self) -> float:
        """Latest completion time among in-flight checks."""
        if not self._pending:
            return 0.0
        return max(task.finished_at for task in self._pending)

    def record_quarantine(
        self,
        pp,
        task: CheckTask,
        now: float,
        posthumous: bool,
        reason: Optional[str] = None,
    ) -> QuarantineEvent:
        event = QuarantineEvent(
            pid=pp.process.pid,
            name=pp.process.name,
            task_id=task.task_id,
            detected_at=now,
            enqueued_at=task.enqueued_at,
            reason=(
                reason if reason is not None
                else self._reason_for(pp.process.pid)
            ),
            posthumous=posthumous,
        )
        self.quarantines.append(event)
        if self.degradations is not None:
            self.degradations.record(
                "quarantine", pid=event.pid, detail=event.reason, at=now
            )
        tel = get_telemetry()
        if tel.enabled:
            # Detection window: check enqueued -> enforcement applied.
            # The detection-latency SLO reads this histogram's p99.
            tel.metrics.histogram("fleet.detection_latency").observe(
                now - task.enqueued_at
            )
        return event

    def _reason_for(self, pid: int) -> str:
        assert self.monitor is not None
        for det in reversed(self.monitor.detections):
            if det.pid == pid:
                return det.reason
        return "CFI violation"

    # -- accounting ----------------------------------------------------------

    def ledger(self) -> dict:
        """The worker/interception cycle ledger for reconciliation:
        ``busy - retry + intercept + dead_letter`` must equal the
        summed per-process MonitorStats cycles exactly (retry cycles
        are busy time no stats saw; dead-letter cycles are stats time
        no worker saw)."""
        return {
            "busy_cycles": self.pool.busy_total,
            "intercept_cycles": self.intercept_cycles,
            "retry_cycles": self.retry_cycles,
            "dead_letter_cycles": self.dead_letter_cycles,
        }
