"""The one versioned stats schema every reporting surface emits.

Before this module, three surfaces invented three payload shapes:
``repro stats`` dumped an ad-hoc ``{server, monitor, telemetry, ...}``
dict, ``repro fleet --json`` dumped :class:`FleetResult`'s flat field
dump, and library consumers got a third shape from
``FleetResult.to_dict()``.  All three now emit one
:class:`StatsReport`:

- ``schema_version`` — bumped on any breaking reshape, so downstream
  log pipelines can dispatch on it,
- ``context`` — what produced the report (solo server run, fleet run),
- ``monitor`` — the checking stack: policy, per-process cycle
  breakdowns, detections (fleet runs add their worker-ledger
  ``accounting`` audit),
- ``fleet`` — fleet-only observables (schedule, lag, workers, config);
  ``None`` for solo runs,
- ``resilience`` — fault-plane stats, the degradation ledger and its
  wasted-cycle balance; ``None`` when the run had no resilience plane,
- ``slo`` — SLO verdicts, error-budget burn and plane health from the
  observability plane (v3); ``None`` when no plane was attached,
- ``tenants`` — per-tenant serving breakdown from ``repro.service``
  (v4): verdict counts, latency percentiles, quota/shed counters and
  error-budget burn, keyed by tenant name; ``None`` outside service
  mode,
- ``telemetry`` — the metrics snapshot, when telemetry was enabled.

Every key is always present (absent sections are ``None``, never
missing), so consumers can index without existence checks.

Migration v2 -> v3: purely additive — the new ``slo`` section.  v2
payloads load fine through :meth:`StatsReport.from_dict` (``slo``
becomes ``None``); v3 payloads are rejected by v2 readers via the
existing newer-version check, which is the point of the bump.

Migration v3 -> v4: again purely additive — the new ``tenants``
section.  v2/v3 payloads load fine (``slo`` / ``tenants`` default to
``None``); v4 payloads are rejected by older readers.

Solo-run ``monitor`` sections no longer carry ``reconciliation`` (the
profiler is a view over ``MonitorStats``, so there is no second copy
to compare).  The section is free-form, so older v4 payloads that
still carry the key load unchanged.

There is no ``caches`` section any more: the fast path has no
optional caches to report on.  Older v4 payloads that carry it (always
``None`` unless a cache was switched on) still load; the key is
dropped.  Readers never required it (:meth:`StatsReport.from_dict`
read it with ``get``), so older readers load newer payloads too.

``resilience.ledger_reconcile`` balances the ledger's wasted cycles
against the fleet dispatcher's ``retry_cycles``; a solo run has no
dispatcher, so its value is ``None``.  Older v4 payloads whose solo
value is a per-kind counter audit load unchanged (the section is
free-form too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: current schema revision.  1 was the trio of ad-hoc shapes (implicit,
#: unversioned); 2 is the unified report; 3 adds the ``slo`` section;
#: 4 adds the per-tenant serving section ``tenants``.
SCHEMA_VERSION = 4

_SECTIONS = (
    "schema_version",
    "context",
    "monitor",
    "fleet",
    "resilience",
    "slo",
    "tenants",
    "telemetry",
)


@dataclass
class StatsReport:
    """One run's complete observable state, in the unified schema."""

    monitor: dict
    fleet: Optional[dict] = None
    resilience: Optional[dict] = None
    slo: Optional[dict] = None
    tenants: Optional[dict] = None
    telemetry: Optional[dict] = None
    context: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-ready payload; key order is the documented one."""
        return {
            "schema_version": self.schema_version,
            "context": self.context,
            "monitor": self.monitor,
            "fleet": self.fleet,
            "resilience": self.resilience,
            "slo": self.slo,
            "tenants": self.tenants,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatsReport":
        # ``caches``: a section older v4 payloads carry (see above).
        unknown = set(data) - set(_SECTIONS) - {"caches"}
        if unknown:
            raise ValueError(
                f"unknown StatsReport keys: {', '.join(sorted(unknown))}"
            )
        version = data.get("schema_version", SCHEMA_VERSION)
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"StatsReport schema_version {version} is newer than "
                f"this reader ({SCHEMA_VERSION})"
            )
        return cls(
            monitor=data.get("monitor") or {},
            fleet=data.get("fleet"),
            resilience=data.get("resilience"),
            slo=data.get("slo"),  # absent before v3
            tenants=data.get("tenants"),  # absent before v4
            telemetry=data.get("telemetry"),
            context=dict(data.get("context") or {}),
            schema_version=version,
        )

    # -- builders ------------------------------------------------------------

    @classmethod
    def from_monitor(
        cls,
        monitor,
        telemetry: Optional[dict] = None,
        slo: Optional[dict] = None,
        **context,
    ) -> "StatsReport":
        """A report for a solo (non-fleet) monitor."""
        block = monitor.report()
        injector = getattr(monitor, "fault_injector", None)
        ledger = getattr(monitor, "degradations", None)
        resilience = None
        if injector is not None or (ledger is not None and ledger.events):
            resilience = {
                "faults": injector.stats() if injector is not None else None,
                "degradations": (
                    ledger.to_dict() if ledger is not None else None
                ),
                # No dispatcher, so no wasted-cycle tally to balance.
                "ledger_reconcile": None,
            }
        return cls(
            monitor=block,
            resilience=resilience,
            slo=slo,
            telemetry=telemetry,
            context={"kind": "solo", **context},
        )
