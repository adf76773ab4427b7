"""One tenant at runtime: an isolated fleet stack driven round-by-round.

Isolation is structural, not cooperative: every tenant owns a complete
fleet — kernel, monitor, dispatcher, worker pool, scheduler, clock,
fault injector, and a tenant-scoped
:class:`~repro.resilience.ledger.DegradationLedger` — built by the same
:func:`~repro.loadgen.engine.build_load_service` the bench harness
uses.  Nothing is shared between tenants except the process-wide
telemetry registry (where every series carries the tenant label) and
the admission layer above.  A noisy tenant's corrupt rings, retries and
quarantines therefore *cannot* appear in a clean tenant's books, and a
clean tenant's schedule is bit-identical to a solo run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.loadgen.engine import build_load_service, summarize_load_point
from repro.telemetry import get_telemetry

from repro.service.config import TenantSpec
from repro.service.quota import TokenBucket
from repro.service.reload import PipelineVersion, ReloadRegistry, fresh_pipeline


class TenantRuntime:
    """A tenant's fleet, quota bucket, version registry, and results."""

    def __init__(self, spec: TenantSpec) -> None:
        spec.validate()
        self.spec = spec
        self.name = spec.name
        self.scenario = spec.resolve()
        self.fleet, self.tracker, self.attacked = build_load_service(
            self.scenario,
            spec.connections,
            workers=spec.workers,
            seed=spec.seed,
            tenant=spec.name,
            max_sessions=spec.max_sessions,
        )
        self.bucket = TokenBucket(spec.quota_rate, spec.quota_burst)
        self.registry = ReloadRegistry()
        self.finished = False
        self._reloaded = False
        self._verdict_frontier = 0
        self._result = None
        self._summary = None

    # -- driving -------------------------------------------------------------

    @property
    def clock(self):
        return self.fleet.clock

    def step(self) -> bool:
        """One scheduler round + quota charge; False when drained.

        The quota charge and throttle stall depend only on this
        tenant's own clock and config, so an unthrottled tenant's
        schedule (and digest) is untouched by this wrapper.
        """
        if self.finished:
            return False
        sched = self.fleet.scheduler
        if (
            self.spec.reload_at_round
            and not self._reloaded
            and sched.rounds >= self.spec.reload_at_round
        ):
            self.reload()
        before = self.clock.now
        more = sched.step_round()
        spent = self.clock.now - before
        stall = self.bucket.charge(spent)
        tel = get_telemetry()
        if stall > 0:
            self.clock.advance_to(self.clock.now + stall)
            # Throttle stalls waste no checker cycles (cycles=0 keeps
            # the wasted-cycle ledger balanced); the stall length lives
            # in the detail and the service.throttle_cycles counter.
            self.fleet.monitor.degradations.record(
                "throttle",
                detail=f"stall {stall:.1f} cycles",
                at=self.clock.now,
            )
            if tel.enabled:
                tel.metrics.counter("service.throttle_cycles").inc(
                    stall, tenant=self.name
                )
        if tel.enabled:
            tel.metrics.counter("service.rounds").inc(tenant=self.name)
        self.registry.retire_drained(self.fleet.dispatcher, self.clock.now)
        if not more:
            sched.finalize()
            self.registry.retire_drained(
                self.fleet.dispatcher, self.clock.now
            )
            self.finished = True
        return more

    def run_to_completion(self) -> None:
        """Drive the tenant synchronously (tests / solo baselines)."""
        while self.step():
            pass

    # -- hot reload ----------------------------------------------------------

    def reload(self) -> List[PipelineVersion]:
        """Swap every live process onto a freshly built pipeline.

        Called between rounds only; in-flight checks keep their
        already-computed verdicts, and each displaced version is
        retired once those checks have drained.
        """
        self._reloaded = True
        now = self.clock.now
        dispatcher = self.fleet.dispatcher
        inflight = [
            task.task_id
            for task in dispatcher.tasks
            if task.finished_at > now
        ]
        programs: List[str] = []
        for entry in self.fleet.scheduler.entries:
            if not entry.done and entry.proc.name not in programs:
                programs.append(entry.proc.name)
        versions: List[PipelineVersion] = []
        for program in programs:
            pipeline = fresh_pipeline(program)
            pids: List[int] = []
            for entry in self.fleet.scheduler.entries:
                if entry.done or entry.proc.name != program:
                    continue
                self.fleet.monitor.rebind(
                    entry.pp,
                    pipeline.labeled,
                    pipeline.ocfg,
                    path_index=pipeline.path_index,
                )
                pids.append(entry.proc.pid)
            versions.append(
                self.registry.activate(program, now, pids, inflight)
            )
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("service.reloads").inc(
                len(versions), tenant=self.name
            )
        return versions

    # -- streaming -----------------------------------------------------------

    def due_events(self) -> List[dict]:
        """Verdict/quarantine events newly due on this tenant's clock."""
        now = self.clock.now
        tasks = self.fleet.dispatcher.tasks
        events: List[dict] = []
        while self._verdict_frontier < len(tasks):
            task = tasks[self._verdict_frontier]
            if task.finished_at > now and not self.finished:
                break
            events.append(
                {
                    "type": "verdict",
                    "tenant": self.name,
                    "task_id": task.task_id,
                    "pid": task.pid,
                    "kind": task.kind,
                    "verdict": task.verdict,
                    "at": task.finished_at,
                }
            )
            self._verdict_frontier += 1
        return events

    # -- results -------------------------------------------------------------

    def result(self):
        """The tenant's FleetResult (memoized; finalizes the fleet)."""
        if self._result is None:
            if not self.finished:
                self.run_to_completion()
            self._result = self.fleet._build_result()
        return self._result

    def summary(self):
        """The tenant's LoadPointResult distilled from its run."""
        if self._summary is None:
            self._summary = summarize_load_point(
                self.scenario,
                self.spec.connections,
                self.fleet,
                self.tracker,
                self.attacked,
                self.result(),
            )
        return self._summary

    def report(self) -> dict:
        """This tenant's entry in the StatsReport v4 ``tenants``
        section: verdict counts, latency percentiles, quota/shed
        counters, error-budget burn, and the exactness verdicts."""
        summary = self.summary()
        result = self.result()
        ledger = self.fleet.monitor.degradations
        verdicts: Dict[str, int] = {}
        for task in self.fleet.dispatcher.tasks:
            verdicts[task.verdict] = verdicts.get(task.verdict, 0) + 1
        checks = len(self.fleet.dispatcher.tasks)
        events = len(ledger)
        return {
            "scenario": self.scenario.name,
            "connections": self.spec.connections,
            "offered": summary.offered,
            "completed": summary.completed,
            "shed": ledger.count("shed-load"),
            # Achieved/offered ratio: under closed loops this is 1.0
            # minus sheds (completions gate arrivals); under open-loop
            # schedules it measures how much of the tenant's scheduled
            # demand the service absorbed.  The service-level fairness
            # spread is the max-min gap of these ratios.
            "fairness": {
                "offered": summary.offered,
                "achieved": summary.completed,
                "ratio": (
                    summary.completed / summary.offered
                    if summary.offered
                    else 1.0
                ),
            },
            "throughput": summary.throughput,
            "latency": dict(summary.latency),
            "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
            "checks": checks,
            "dropped_checks": self.fleet.dispatcher.dropped_checks,
            "quota": self.bucket.to_dict(),
            "quarantines": len(self.fleet.dispatcher.quarantines),
            "detections": result.detections,
            "degradations": ledger.counts(),
            "error_budget": {
                "events": events,
                "burn": events / max(1, checks),
            },
            "reloads": {
                "count": len(self.registry.versions),
                "undrained": self.registry.undrained,
            },
            "makespan": summary.makespan,
            "accounting_exact": summary.accounting_exact,
            "ledger_exact": summary.ledger_exact,
            "digest": summary.digest,
        }
