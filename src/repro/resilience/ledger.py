"""The degradation ledger: every downgrade the monitor takes, audited.

Graceful degradation is only trustworthy if it is *accounted*: a
monitor that silently falls back to weaker checking is indistinguishable
from one that was attacked into it.  Every recovery action therefore
records a :class:`DegradationEvent` here, and the ledger is the one
record of each downgrade.  :meth:`DegradationLedger.record` is its only
writer; everything else that counts downgrades is a view over it:

- **telemetry** — while telemetry is enabled, each recorded event also
  increments the labeled counter ``resilience.events{kind[,tenant]}``
  (the registry's one view of the ledger, read by the
  ``degradation-free`` SLO and ``repro top``) and is journaled into
  the observability plane's flight recorder.  No other ``resilience.*``
  series exists, and nothing compares these views back to the ledger:
  they are written in the same call.
- **cycles** — events that waste checker-worker cycles (crashed/hung/
  timed-out attempts) carry the wasted amount.  :meth:`reconcile`
  balances the total against the dispatcher's ``retry_cycles``, an
  independent tally the pool accrues as it burns the attempts; the
  fleet's ``FleetResult.accounting`` in turn balances ``retry_cycles``
  against ``MonitorStats`` (busy − retry + intercept + dead letter ==
  stats).  One chain, no slack: every wasted pool cycle is ledgered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import configio
from repro.telemetry import get_telemetry

#: canonical event kinds, grouped by the subsystem that records them.
EVENT_KINDS = (
    # drain-byte faults (monitor, per check)
    "corrupt-drain", "truncate-drain",
    # PMI faults (monitor / fleet rings)
    "pmi-drop", "pmi-delay",
    # fast-path degradation (checker)
    "corrupt-segment", "psb-resync",
    # path downgrades (monitor)
    "slowpath-fallback", "slowpath-error",
    # dispatcher recovery (fleet)
    "worker-crash", "worker-hang", "task-timeout",
    "retry", "hedge", "dead-letter", "drop-drain", "quarantine",
    # serving admission control (repro.service)
    "shed-load", "throttle",
)


@dataclass
class DegradationEvent:
    """One recorded downgrade."""

    kind: str
    pid: int = -1
    detail: str = ""
    #: fleet-clock timestamp (or check index solo; 0 when unknown).
    at: float = 0.0
    #: checker-worker cycles this event wasted (failed attempts only).
    cycles: float = 0.0
    #: serving tenant whose fault domain this event belongs to
    #: (None outside service mode).
    tenant: Optional[str] = None

    def to_dict(self) -> dict:
        return configio.to_dict(self)


class DegradationLedger:
    """Append-only downgrade log with exact reconciliation.

    ``tenant`` (set by a tenant's fleet, ``None`` elsewhere) scopes the
    ledger to one serving fault domain: every event and every
    ``resilience.events`` series it emits carries the tenant label, so
    N tenant ledgers over one metrics registry keep separate books, and
    a noisy tenant's faults can never leak into a clean tenant's.
    """

    def __init__(self) -> None:
        self.tenant: Optional[str] = None
        self.events: List[DegradationEvent] = []
        self._counts: Dict[str, int] = {}
        #: total wasted checker cycles across recorded events.
        self.wasted_cycles: float = 0.0

    def __len__(self) -> int:
        return len(self.events)

    # -- recording -----------------------------------------------------------

    def record(
        self,
        kind: str,
        pid: int = -1,
        detail: str = "",
        at: float = 0.0,
        cycles: float = 0.0,
    ) -> DegradationEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown degradation kind {kind!r}")
        event = DegradationEvent(
            kind=kind, pid=pid, detail=detail, at=at, cycles=cycles,
            tenant=self.tenant,
        )
        self.events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.wasted_cycles += cycles
        tel = get_telemetry()
        if tel.enabled:
            labels = {} if self.tenant is None else {"tenant": self.tenant}
            tel.metrics.counter("resilience.events").inc(kind=kind, **labels)
            if tel.plane is not None:
                tel.plane.on_degradation(event)
        return event

    # -- views ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)

    def events_of(self, kind: str) -> List[DegradationEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_dict(self) -> dict:
        return {
            "events": len(self.events),
            "counts": {k: self._counts[k] for k in sorted(self._counts)},
            "wasted_cycles": self.wasted_cycles,
            "tenant": self.tenant,
        }

    # -- reconciliation ------------------------------------------------------

    def reconcile(self, retry_cycles: float) -> dict:
        """Balance the summed wasted cycles against ``retry_cycles``,
        the dispatcher's tally of pool time burnt by failed attempts."""
        ok = abs(retry_cycles - self.wasted_cycles) <= max(
            1e-6, 1e-9 * abs(retry_cycles)
        )
        return {
            "retry_cycles": {
                "ledger": self.wasted_cycles,
                "dispatcher": retry_cycles,
                "ok": ok,
            },
            "exact": ok,
        }
