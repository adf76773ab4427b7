"""The multi-tenant serving front-end (``repro service``).

:class:`TraceCheckService` admits trace-check work from multiple named
tenants and drives each tenant's isolated fleet in a plain round-robin
loop: every round gives each tenant whose stream is still open one
scheduler round, in config order.  Nothing in the loop depends on wall
time, so the whole service run is reproducible byte-for-byte (each
tenant's verdict digest is a pure function of its own spec).

Per tenant the service provides:

* **admission control** — a session cap shed at admission (``shed-load``
  ledger events, never silent) and a token-bucket quota over the
  tenant's own virtual cycles (:mod:`repro.service.quota`);
* **a fault domain** — its own :class:`FaultPlan` injector and
  tenant-labelled :class:`DegradationLedger`; a noisy neighbor's
  retries and quarantines cannot appear in another tenant's books;
* **hot reload** — a fresh O-CFG/ITC-CFG pipeline version swapped in
  between rounds without dropping in-flight checks, the old version
  retired after drain (:mod:`repro.service.reload`);
* **a verdict stream** — the list of verdict events as they came due on
  the tenant's clock, ending with a ``done`` (or ``drained``) marker.

``run_service`` is the one-call entry point: it serves a config to
completion and returns a :class:`ServiceResult` whose ``tenants``
mapping is exactly the StatsReport v4 ``tenants`` section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.telemetry import get_telemetry

from repro.service.config import ServeConfig
from repro.service.tenant import TenantRuntime


@dataclass
class ServiceResult:
    """Everything one serving run produced, per tenant."""

    name: str
    #: the StatsReport v4 ``tenants`` section: tenant -> report dict.
    tenants: Dict[str, dict] = field(default_factory=dict)
    #: every streamed event, per tenant, in stream order.
    events: Dict[str, List[dict]] = field(default_factory=dict)
    #: True when the run ended via graceful drain rather than natural
    #: completion (in-flight work still finished either way).
    drained: bool = False

    @property
    def makespan(self) -> float:
        return max(
            (t["makespan"] for t in self.tenants.values()), default=0.0
        )

    def fairness(self) -> dict:
        """Cross-tenant fairness: each tenant's achieved/offered ratio
        and the max-min spread between them (0.0 = perfectly fair —
        every tenant got the same fraction of its demand absorbed)."""
        ratios = {
            name: report["fairness"]["ratio"]
            for name, report in self.tenants.items()
            if "fairness" in report
        }
        spread = (
            max(ratios.values()) - min(ratios.values()) if ratios else 0.0
        )
        return {"ratios": ratios, "spread": spread}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "drained": self.drained,
            "makespan": self.makespan,
            "fairness": self.fairness(),
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
        }


class TraceCheckService:
    """Round-robin front-end over per-tenant fleet stacks."""

    def __init__(self, config: ServeConfig, plane=None) -> None:
        config.validate()
        self.config = config
        self.plane = plane
        self.runtimes: List[TenantRuntime] = [
            TenantRuntime(spec) for spec in config.tenants
        ]
        #: tenant -> its verdict stream so far, in stream order.
        self.events: Dict[str, List[dict]] = {
            rt.name: [] for rt in self.runtimes
        }
        #: tenants whose stream has no ``done``/``drained`` marker yet.
        self._open: List[TenantRuntime] = list(self.runtimes)
        self._drain_requested = False
        self._served = False

    # -- introspection -------------------------------------------------------

    @property
    def now(self) -> float:
        """The service frontier: the furthest tenant clock."""
        return max((rt.clock.now for rt in self.runtimes), default=0.0)

    # -- drain / shutdown ----------------------------------------------------

    def request_drain(self) -> None:
        """Graceful shutdown: stop starting new scheduler rounds once
        every in-flight check has been applied; already-admitted
        sessions whose checks are pending still complete (no verdict
        is ever dropped), later rounds are abandoned."""
        self._drain_requested = True

    # -- serving -------------------------------------------------------------

    def step(self) -> bool:
        """One round over the open tenants, in config order; returns
        whether any stream is still open."""
        still_open: List[TenantRuntime] = []
        for rt in self._open:
            events = self.events[rt.name]
            if self._drain_requested:
                # Drain: apply every already-submitted check before
                # stopping — verdicts are computed at submit, so none
                # can be dropped; we simply run the rounds out.
                rt.fleet.scheduler.finalize()
                rt.finished = True
            else:
                more = rt.step()
                events.extend(rt.due_events())
                if self.plane is not None:
                    self.plane.maybe_sample(self.now)
                if more:
                    still_open.append(rt)
                    continue
            events.extend(rt.due_events())
            events.append(
                {
                    "type": "drained" if self._drain_requested else "done",
                    "tenant": rt.name,
                    "at": rt.clock.now,
                }
            )
        self._open = still_open
        return bool(still_open)

    def serve(
        self, on_event: Optional[Callable[[dict], None]] = None
    ) -> ServiceResult:
        """Drive every tenant to completion (or through a drain), then
        hand each tenant's events to ``on_event``, tenant by tenant."""
        if self._served:
            raise RuntimeError("a TraceCheckService serves exactly once")
        self._served = True
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("service.tenants").inc(
                len(self.runtimes)
            )
        while self.step():
            pass
        if self.plane is not None:
            # Refresh every tenant's MonitorStats first (that is what
            # copies the cumulative trace cycles the profiler reads),
            # then close the sample ring at the service
            # frontier — tenant clocks are never bound to the plane,
            # so the default finalize would stamp t=0.
            for rt in self.runtimes:
                rt.fleet.monitor.all_stats()
            self.plane.finalize(self.now)
        result = ServiceResult(
            name=self.config.name, drained=self._drain_requested
        )
        for rt in self.runtimes:
            events = self.events[rt.name]
            if on_event is not None:
                for event in events:
                    on_event(event)
            result.events[rt.name] = events
            result.tenants[rt.name] = rt.report()
        return result


def run_service(config: ServeConfig) -> ServiceResult:
    """Serve a config to completion."""
    return TraceCheckService(config).serve()
