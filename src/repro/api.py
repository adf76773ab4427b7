"""repro.api — the stable public surface of the FlowGuard reproduction.

Everything an integrator needs lives here, imported from its canonical
submodule home::

    from repro.api import (
        Fleet, FleetConfig, FaultPlan, FlowGuardPolicy, RetryPolicy,
        RingPolicy, RunConfig, run_workload,
    )

    # Solo: one protected server, optionally under fault injection.
    run = run_workload("nginx", sessions=4,
                       faults=FaultPlan.standard_mix(seed=7))
    print(run.overhead, run.monitor.degradations.counts())

    # Fleet: N processes / M checker workers, one config tree.
    config = RunConfig(
        policy=FlowGuardPolicy(check_on_pmi=True),
        fleet=FleetConfig(workers=4, ring_policy=RingPolicy.LOSSY,
                          faults=FaultPlan.standard_mix(seed=7),
                          retry=RetryPolicy(task_timeout=20_000.0)),
    )
    service = Fleet.build(config)
    ...
    result = service.run()
    payload = result.to_dict()          # versioned StatsReport schema

    # Load generation: max throughput under a latency SLO.
    scenario = resolve_scenario("nginx-closed")
    payload = run_bench(scenario)       # `repro report` renders this

    # Multi-tenant serving: isolated fault domains behind one
    # admission-controlled round-robin front-end.
    config = resolve_serve_config("duo-isolation")
    result = run_service(config)
    print(result.tenants["clean"]["digest"])

The ``repro.monitor`` / ``repro.fleet`` package roots export nothing;
deep submodule imports remain supported for internals not re-exported
here.  This module itself imports cleanly under
``-W error::DeprecationWarning`` — the CI check that keeps the facade
honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.configio import JsonConfig
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetResult, FleetService
from repro.monitor.fastpath import Verdict
from repro.monitor.flowguard import FlowGuardMonitor
from repro.monitor.policy import FlowGuardPolicy
from repro.loadgen import (
    LoadPointResult,
    LoadScenario,
    resolve_scenario,
    run_bench,
    slo_search,
    sweep_connections,
)
from repro.osmodel.kernel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.resilience import (
    FaultPlan,
    FaultSite,
    InjectedFault,
    RetryPolicy,
)
from repro.service import (
    ServeConfig,
    ServiceResult,
    TenantSpec,
    TraceCheckService,
    resolve_serve_config,
    run_service,
)
from repro.stats_report import SCHEMA_VERSION, StatsReport
from repro.telemetry.plane import (
    ObservabilityPlane,
    SLOConfig,
    SLObjective,
)

__all__ = [
    "FaultPlan",
    "FaultSite",
    "Fleet",
    "FleetConfig",
    "FleetResult",
    "FleetService",
    "FlowGuardMonitor",
    "FlowGuardPipeline",
    "FlowGuardPolicy",
    "InjectedFault",
    "Kernel",
    "LoadPointResult",
    "LoadScenario",
    "ObservabilityPlane",
    "RetryPolicy",
    "RingPolicy",
    "RunConfig",
    "SCHEMA_VERSION",
    "SLOConfig",
    "SLObjective",
    "ServeConfig",
    "ServiceResult",
    "StatsReport",
    "TenantSpec",
    "TraceCheckService",
    "Verdict",
    "resolve_scenario",
    "resolve_serve_config",
    "run_bench",
    "run_service",
    "run_workload",
    "slo_search",
    "sweep_connections",
]


@dataclass
class RunConfig(JsonConfig):
    """The one config tree: checking policy + fleet shape + resilience.

    :class:`FlowGuardPolicy` (what the checker enforces),
    :class:`FleetConfig` (how the fleet is shaped — which itself embeds
    the :class:`FaultPlan` and :class:`RetryPolicy`) compose here, so
    one JSON document (:mod:`repro.configio`) can describe an entire
    reproducible run.
    """

    policy: FlowGuardPolicy = field(default_factory=FlowGuardPolicy)
    fleet: FleetConfig = field(default_factory=FleetConfig)

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self.fleet.faults

    @property
    def retry(self) -> Optional[RetryPolicy]:
        return self.fleet.retry


class Fleet:
    """Builder facade for the multi-process fleet service."""

    @staticmethod
    def build(
        config: Optional[RunConfig | FleetConfig] = None,
        kernel: Optional[Kernel] = None,
    ) -> FleetService:
        """A :class:`FleetService` from a :class:`RunConfig` (policy +
        fleet shape) or a bare :class:`FleetConfig` (default policy)."""
        if isinstance(config, RunConfig):
            return FleetService(
                config=config.fleet, kernel=kernel, policy=config.policy
            )
        return FleetService(config=config, kernel=kernel)


def run_workload(
    server: str,
    sessions: int = 4,
    protected: bool = True,
    faults: Optional[FaultPlan] = None,
):
    """Run one server workload end to end; returns the ``ServerRun``
    (process, cycles, monitor, stats).

    The convenience entry point for "protect this server and tell me
    the overhead": offline pipeline, deployment, client sessions and
    the run itself are all handled.
    """
    from repro.experiments.common import run_server, server_requests

    return run_server(
        server,
        server_requests(server, sessions),
        protected=protected,
        faults=faults,
    )
