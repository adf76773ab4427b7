"""The fleet service: one monitor, N processes, M checker workers.

``FleetService`` wires the pieces together::

    service = FleetService(FleetConfig(workers=4))
    service.add_workload(server_pipeline("nginx"), nginx_requests)
    service.add_workload(server_pipeline("exim"), exim_requests)
    result = service.run()
    result.quarantined_pids        # killed + isolated violators
    result.lag["p99"]              # detection-window tail latency

The result carries everything the scaling experiment and the CLI need:
per-process rows, quarantine events, check-lag percentiles, worker
utilization, and a cycle-accounting block (``FleetResult.accounting``)
that audits the worker pool's busy-cycle ledger against the summed
per-process ``MonitorStats`` charges: ``exact`` is false on any drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import configio
from repro.configio import JsonConfig
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import DeadLetter, RetryPolicy
from repro.telemetry import get_telemetry
from repro.telemetry.metrics import percentile as _percentile

from repro.fleet.dispatcher import FleetDispatcher, QuarantineEvent
from repro.fleet.monitor import FleetMonitor
from repro.fleet.rings import RingPolicy
from repro.fleet.scheduler import FleetClock, FleetEntry, RoundRobinScheduler
from repro.fleet.workers import SimulatedWorkerPool

@dataclass
class FleetConfig(JsonConfig):
    """Tuning knobs for one fleet run."""

    workers: int = 4
    #: round-robin time slice, in simulated cycles.
    quantum: float = 2000.0
    #: per-process trace ring capacity (two ToPA regions).
    ring_bytes: int = 16384
    ring_policy: RingPolicy = RingPolicy.STALL
    #: in-flight checks before backpressure kicks in.
    max_queue_depth: int = 64
    max_rounds: int = 100_000
    #: deterministic fault plan (None = fault-free run).
    faults: Optional[FaultPlan] = None
    #: retry/backoff/dead-letter policy (None = defaults).
    retry: Optional[RetryPolicy] = None
    #: fault-domain label: scopes this fleet's degradation ledger and
    #: telemetry series to one serving tenant (None = untenanted).
    tenant: Optional[str] = None


@dataclass
class FleetResult:
    """Everything observable about one completed fleet run."""

    config: FleetConfig
    processes: List[dict]
    quarantines: List[QuarantineEvent]
    detections: int
    tasks: int
    dropped_checks: int
    lag: Dict[str, float]
    makespan: float
    rounds: int
    worker_busy: List[float]
    worker_utilization: List[float]
    app_cycles: float
    monitor_cycles: float
    stall_cycles: float
    accounting: dict
    schedule_digest: str
    #: checks abandoned after exhausting retries (fail-closed handled).
    dead_letters: Optional[List[DeadLetter]] = None
    #: fault-plane stats + degradation ledger + its reconciliation.
    resilience: Optional[dict] = None
    #: SLO verdicts + plane health (None unless a plane was attached).
    slo: Optional[dict] = None

    @property
    def quarantined_pids(self) -> List[int]:
        return [event.pid for event in self.quarantines]

    @property
    def overhead(self) -> float:
        """Fleet overhead: monitoring work + stall time over app time."""
        if self.app_cycles <= 0:
            return 0.0
        return (self.monitor_cycles + self.stall_cycles) / self.app_cycles

    def to_dict(self) -> dict:
        """The run in the unified :class:`~repro.stats_report.StatsReport`
        schema: monitor cycle totals under ``monitor``, fleet-specific
        observables under ``fleet``, fault plane under ``resilience``."""
        from repro.stats_report import StatsReport

        monitor = {
            "app_cycles": self.app_cycles,
            "monitor_cycles": self.monitor_cycles,
            "stall_cycles": self.stall_cycles,
            "overhead": self.overhead,
            "detections": self.detections,
            "accounting": self.accounting,
        }
        fleet = {
            "config": self.config.to_dict(),
            "processes": self.processes,
            "quarantines": [
                configio.to_dict(e) for e in self.quarantines
            ],
            "tasks": self.tasks,
            "dropped_checks": self.dropped_checks,
            "lag": self.lag,
            "makespan": self.makespan,
            "rounds": self.rounds,
            "worker_busy": self.worker_busy,
            "worker_utilization": self.worker_utilization,
            "schedule_digest": self.schedule_digest,
            "dead_letters": [
                letter.to_dict() for letter in (self.dead_letters or [])
            ],
        }
        return StatsReport(
            monitor=monitor,
            fleet=fleet,
            resilience=self.resilience,
            slo=self.slo,
            context={"kind": "fleet"},
        ).to_dict()


class FleetService:
    """Owns the kernel, monitor, dispatcher, workers, and scheduler."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        kernel: Optional[Kernel] = None,
        policy: Optional[FlowGuardPolicy] = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.kernel = kernel if kernel is not None else Kernel()
        self.pool = SimulatedWorkerPool(self.config.workers)
        self.dispatcher = FleetDispatcher(
            self.pool,
            policy=self.config.ring_policy,
            max_queue_depth=self.config.max_queue_depth,
            retry=self.config.retry,
        )
        self.clock = FleetClock()
        self.monitor = FleetMonitor(
            self.kernel,
            self.dispatcher,
            self.clock,
            ring_policy=self.config.ring_policy,
            ring_bytes=self.config.ring_bytes,
            policy=policy,
            faults=self.config.faults,
        )
        self.dispatcher.bind(self.monitor)
        # Monitor and dispatcher share one fault plane (per-site RNG
        # streams stay aligned) and one degradation audit trail.
        self.dispatcher.injector = self.monitor.fault_injector
        self.dispatcher.degradations = self.monitor.degradations
        if self.config.tenant is not None:
            # Tenant-scope the shared ledger before any event lands:
            # every resilience.events series it emits carries the
            # tenant label.
            self.monitor.degradations.tenant = self.config.tenant
        self.monitor.install()
        self.scheduler = RoundRobinScheduler(
            self.kernel,
            self.clock,
            self.dispatcher,
            quantum=self.config.quantum,
            max_rounds=self.config.max_rounds,
        )
        self._sessions: Dict[int, int] = {}  # pid -> assigned sessions

    # -- fleet membership ----------------------------------------------------

    def add_workload(
        self, pipeline, requests: Sequence[bytes]
    ) -> Process:
        """Spawn one protected instance of ``pipeline``'s program and
        queue its client sessions."""
        _, proc = pipeline.deploy(self.kernel, monitor=self.monitor)
        pp = self.monitor.protected_for(proc)
        ring = self.monitor.attach_executor(proc)
        entry = FleetEntry(
            proc=proc,
            pp=pp,
            ring=ring,
            index=len(self.scheduler.entries),
        )
        self.scheduler.add(entry)
        for request in requests:
            if pipeline.mode == "stdin":
                proc.feed_stdin(request)
            else:
                proc.push_connection(request)
        self._sessions[proc.pid] = len(requests)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("fleet.processes").inc(
                program=pipeline.program
            )
        return proc

    # -- running -------------------------------------------------------------

    def run(self) -> FleetResult:
        tel = get_telemetry()
        if tel.plane is not None:
            # The fleet clock becomes the plane's time source; every
            # tick (quantum unpin / idle jump) offers a sample.
            tel.plane.bind_clock(self.clock)
        with tel.tracer.span(
            "fleet.run",
            processes=len(self.scheduler.entries),
            workers=self.config.workers,
            policy=self.config.ring_policy.value,
        ):
            self.scheduler.run()
        return self._build_result()

    # -- reporting -----------------------------------------------------------

    def _build_result(self) -> FleetResult:
        makespan = self.clock.now
        quarantined = {e.pid for e in self.dispatcher.quarantines}
        rows = []
        app_cycles = 0.0
        stall_cycles = 0.0
        for entry in self.scheduler.entries:
            proc = entry.proc
            stats = self.monitor.stats_for(proc)  # refreshes trace cycles
            ring = entry.ring
            app = proc.executor.cycles
            app_cycles += app
            stall_cycles += ring.stall_cycles
            rows.append(
                {
                    "pid": proc.pid,
                    "name": proc.name,
                    "sessions": self._sessions.get(proc.pid, 0),
                    "state": proc.state.value,
                    "quarantined": proc.pid in quarantined,
                    "quanta": entry.quanta,
                    "started_at": entry.started_at,
                    "finished_at": entry.finished_at,
                    "app_cycles": app,
                    "monitor_cycles": stats.total_cycles,
                    "checks": stats.checks,
                    "pmi_count": stats.pmi_count,
                    "stalls": ring.stalls,
                    "stall_cycles": ring.stall_cycles,
                    "drains": ring.drains,
                    "overwritten_bytes": ring.overwritten_bytes,
                    "resync_dropped_bytes": ring.resync_dropped_bytes,
                    "resyncs": ring.resyncs,
                }
            )
        # all_stats() covers inline children too — the ledger must.
        stats_list = self.monitor.all_stats()
        monitor_cycles = sum(
            s.decode_cycles + s.check_cycles + s.other_cycles
            for s in stats_list
        )
        ledger = self.dispatcher.ledger()
        # Wasted retry cycles are real pool busy time but were never
        # charged to any process's MonitorStats — subtract them.  The
        # inverse hole: dead-lettered checks were costed into stats at
        # submit() but never ran on a worker — add them back.
        ledger_total = (
            ledger["busy_cycles"]
            - ledger["retry_cycles"]
            + ledger["intercept_cycles"]
            + ledger["dead_letter_cycles"]
        )
        accounting = {
            **ledger,
            "stats_cycles": monitor_cycles,
            "exact": math.isclose(
                ledger_total, monitor_cycles, rel_tol=1e-9, abs_tol=1e-6
            ),
        }
        lags = [task.lag for task in self.dispatcher.tasks]
        lag = {
            "p50": _percentile(lags, 50),
            "p99": _percentile(lags, 99),
            "mean": sum(lags) / len(lags) if lags else 0.0,
            "max": max(lags) if lags else 0.0,
        }
        injector = self.monitor.fault_injector
        resilience = {
            "faults": injector.stats() if injector is not None else None,
            "degradations": self.monitor.degradations.to_dict(),
            "dead_letters": len(self.dispatcher.dead_letters),
            "retry": self.dispatcher.retry.to_dict(),
            "ledger_reconcile": self.monitor.degradations.reconcile(
                retry_cycles=self.dispatcher.retry_cycles
            ),
        }
        plane = get_telemetry().plane
        slo = None
        if plane is not None:
            # Drifting ledgers trigger a flight-recorder dump before
            # the SLO report freezes the plane's view of the run.
            plane.check_reconciliation("fleet-accounting", accounting)
            plane.check_reconciliation(
                "degradation-ledger", resilience["ledger_reconcile"]
            )
            slo = plane.slo_report()
        return FleetResult(
            config=self.config,
            processes=rows,
            quarantines=list(self.dispatcher.quarantines),
            detections=len(self.monitor.detections),
            tasks=len(self.dispatcher.tasks),
            dropped_checks=self.dispatcher.dropped_checks,
            lag=lag,
            makespan=makespan,
            rounds=self.scheduler.rounds,
            worker_busy=list(self.pool.busy_cycles),
            worker_utilization=self.pool.utilization(makespan),
            app_cycles=app_cycles,
            monitor_cycles=monitor_cycles,
            stall_cycles=stall_cycles,
            accounting=accounting,
            schedule_digest=self.scheduler.schedule_digest(),
            dead_letters=list(self.dispatcher.dead_letters),
            resilience=resilience,
            slo=slo,
        )
