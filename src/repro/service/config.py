"""Versioned serving configs: one JSON document per tenant mix.

A :class:`ServeConfig` describes everything the multi-tenant serving
front-end needs — the named tenants, each with its workload scenario,
admission quota, fault domain, and optional hot-reload point.  Its
JSON form is the one :mod:`repro.configio` gives every run config
(unknown keys rejected, down to each tenant's fault plan), plus the
explicit ``schema_version`` field the v4 reporting API introduced
(newer documents are rejected by older readers).

Builtin configs live in :data:`BUILTIN_SERVE_CONFIGS`; the bundled
copies under ``examples/tenants/`` are their JSON forms (a test keeps
them byte-identical).  ``resolve_serve_config`` accepts either a
builtin name or a JSON file path — the ``repro service --config``
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro import configio
from repro.loadgen.scenario import LoadScenario, resolve_scenario
from repro.resilience import FaultPlan, RetryPolicy

#: serve-config document revision (independent of the StatsReport
#: schema): bump on any breaking reshape of TenantSpec/ServeConfig.
SERVE_SCHEMA_VERSION = 1


@dataclass
class TenantSpec(configio.JsonConfig):
    """One tenant: a named fault domain with its own workload, quota,
    and admission policy."""

    name: str
    #: workload: a builtin :class:`LoadScenario` name or a JSON path.
    scenario: str = "smoke"
    #: concurrent connections this tenant drives (its fleet width).
    connections: int = 2
    #: checker workers (None = the scenario's own setting).
    workers: Optional[int] = None
    #: token-bucket refill rate in own-cycles per own-cycle executed:
    #: 1.0 (or more) = unthrottled; 0.5 = the tenant may consume at
    #: most half of its own virtual timeline, the rest is throttle
    #: stall.  The quota is a pure function of this tenant's config
    #: and schedule, so an unthrottled tenant runs bit-identical to a
    #: solo run no matter what its neighbors do.
    quota_rate: float = 1.0
    #: burst allowance in cycles before the bucket starts charging.
    quota_burst: float = 0.0
    #: admission cap: total sessions admitted across connections
    #: (0 = unlimited).  Excess sessions are shed at admission with a
    #: ``shed-load`` ledger event each — never silently dropped.
    max_sessions: int = 0
    #: per-tenant fault domain (None = the scenario's own plan).
    faults: Optional[FaultPlan] = None
    #: per-tenant retry policy (None = the scenario's own policy).
    retry: Optional[RetryPolicy] = None
    #: per-tenant seed override (None = the scenario's own seed).
    seed: Optional[int] = None
    #: hot reload: after this many scheduler rounds, rebuild the
    #: tenant's pipelines and atomically swap the new O-CFG/ITC-CFG
    #: version in (0 = never reload).
    reload_at_round: int = 0

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if not self.name or not self.name.replace("-", "").replace(
            "_", ""
        ).isalnum():
            raise ValueError(
                f"tenant name {self.name!r} must be a non-empty "
                "alphanumeric/dash/underscore token"
            )
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.quota_rate <= 0:
            raise ValueError("quota_rate must be positive")
        if self.quota_burst < 0:
            raise ValueError("quota_burst must be >= 0")
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be >= 0")
        if self.reload_at_round < 0:
            raise ValueError("reload_at_round must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

    def resolve(self) -> LoadScenario:
        """The tenant's scenario with its per-tenant overrides applied."""
        scenario = resolve_scenario(self.scenario)
        if self.seed is not None:
            scenario = scenario.with_seed(self.seed)
        if self.faults is not None:
            scenario = replace(scenario, faults=self.faults)
        if self.retry is not None:
            scenario = replace(scenario, retry=self.retry)
        scenario.validate()
        return scenario


@dataclass
class ServeConfig(configio.JsonConfig):
    """Everything one multi-tenant serving run needs, as data."""

    name: str = "service"
    tenants: Tuple[TenantSpec, ...] = ()
    schema_version: int = SERVE_SCHEMA_VERSION

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if not self.tenants:
            raise ValueError("serve config needs at least one tenant")
        names = [t.name for t in self.tenants]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(
                f"duplicate tenant names: {', '.join(sorted(dupes))}"
            )
        for tenant in self.tenants:
            tenant.validate()

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        # The version leads the document, so a reader sees it first.
        return {"schema_version": self.schema_version,
                **configio.to_dict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        # A document newer than this reader is refused, not guessed at.
        version = data.get("schema_version", SERVE_SCHEMA_VERSION)
        if version > SERVE_SCHEMA_VERSION:
            raise ValueError(
                f"ServeConfig schema_version {version} is newer than "
                f"this reader ({SERVE_SCHEMA_VERSION})"
            )
        return configio.from_dict(cls, data)


# -- builtin registry --------------------------------------------------------


def _smoke() -> ServeConfig:
    """One clean tenant, tiny — the CI smoke config."""
    return ServeConfig(
        name="smoke",
        tenants=(
            TenantSpec(name="acme", scenario="smoke", connections=2),
        ),
    )


def _duo_isolation() -> ServeConfig:
    """The isolation acceptance shape: a clean tenant next to a noisy
    neighbor running the lossy faulted scenario under a tight quota.
    The clean tenant's verdict digest must be bit-identical to its
    solo run, and the noisy tenant's faults must burn only its own
    error budget."""
    return ServeConfig(
        name="duo-isolation",
        tenants=(
            TenantSpec(name="clean", scenario="smoke", connections=2),
            TenantSpec(
                name="noisy",
                scenario="faulted-closed",
                connections=2,
                quota_rate=0.5,
                quota_burst=4_000.0,
            ),
        ),
    )


def _quota_shed() -> ServeConfig:
    """Admission-control shape: a throttled tenant with a session cap,
    next to an uncapped one — sheds and throttle stalls must show up
    in the capped tenant's ledger only."""
    return ServeConfig(
        name="quota-shed",
        tenants=(
            TenantSpec(name="uncapped", scenario="smoke", connections=2),
            TenantSpec(
                name="capped",
                scenario="smoke",
                connections=2,
                quota_rate=0.25,
                max_sessions=3,
            ),
        ),
    )


def _reload() -> ServeConfig:
    """Hot-reload shape: one tenant that swaps in a freshly built
    O-CFG/ITC-CFG version mid-run without dropping in-flight checks."""
    return ServeConfig(
        name="reload",
        tenants=(
            TenantSpec(
                name="rolling",
                scenario="smoke",
                connections=2,
                reload_at_round=4,
            ),
        ),
    )


def _open_mix() -> ServeConfig:
    """Open-loop arrival shape: two tenants driven by fixed-rate
    arrival schedules instead of closed-loop think time — steady
    Poisson-like arrivals next to clustered bursts.  Offered load is
    set by the schedule, not by completions, so each tenant's
    achieved/offered ratio (the v4 ``fairness`` entry) measures how
    much of its demand the service actually absorbed, and the
    cross-tenant ratio spread measures fairness between them."""
    return ServeConfig(
        name="open-mix",
        tenants=(
            TenantSpec(
                name="steady", scenario="mixed-open", connections=2
            ),
            TenantSpec(
                name="bursty", scenario="bursty-open", connections=2
            ),
        ),
    )


BUILTIN_SERVE_CONFIGS: Dict[str, Callable[[], ServeConfig]] = {
    "smoke": _smoke,
    "duo-isolation": _duo_isolation,
    "quota-shed": _quota_shed,
    "reload": _reload,
    "open-mix": _open_mix,
}


def builtin_serve_config(name: str) -> ServeConfig:
    try:
        factory = BUILTIN_SERVE_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin serve config {name!r} "
            f"(have: {', '.join(sorted(BUILTIN_SERVE_CONFIGS))})"
        ) from None
    config = factory()
    config.validate()
    return config


def resolve_serve_config(ref: str) -> ServeConfig:
    """A serve config from a builtin name or a JSON file path."""
    return configio.resolve(
        ref, BUILTIN_SERVE_CONFIGS, ServeConfig, "serve config"
    )
