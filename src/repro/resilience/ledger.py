"""The degradation ledger: every downgrade the monitor takes, audited.

Graceful degradation is only trustworthy if it is *accounted*: a
monitor that silently falls back to weaker checking is indistinguishable
from one that was attacked into it.  Every recovery action therefore
records a :class:`DegradationEvent` here, and the ledger reconciles two
ways:

- **telemetry** — each recorded event (while telemetry is enabled) also
  increments the labeled counter ``resilience.events{kind=...}``;
  :meth:`DegradationLedger.reconcile` re-derives the per-kind counts
  from the counter and demands exact equality.
- **cycles** — events that waste checker-worker cycles (crashed/hung/
  timed-out attempts) carry the wasted amount; the total must equal the
  dispatcher's ``retry_cycles`` ledger entry, which the fleet's
  ``FleetResult.accounting`` in turn balances against ``MonitorStats``
  (busy + intercept − retry + dead letter == stats).  One chain, no
  slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry import get_telemetry

#: canonical event kinds, grouped by the subsystem that records them.
EVENT_KINDS = (
    # drain-byte faults (monitor, per check)
    "corrupt-drain", "truncate-drain",
    # PMI faults (monitor / fleet rings)
    "pmi-drop", "pmi-delay",
    # fast-path degradation (checker)
    "corrupt-segment", "cache-bypass", "psb-resync",
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
        return {
            "kind": self.kind,
            "pid": self.pid,
            "detail": self.detail,
            "at": self.at,
            "cycles": self.cycles,
            "tenant": self.tenant,
        }


class DegradationLedger:
    """Append-only downgrade log with exact reconciliation.

    ``tenant`` scopes the ledger to one serving fault domain: every
    event and every ``resilience.events`` series it emits carries the
    tenant label, and :meth:`reconcile` audits only that tenant's
    slice of the shared counter — so N tenant ledgers over one metrics
    registry each balance independently, and a noisy tenant's faults
    can never leak into a clean tenant's books.
    """

    def __init__(self, tenant: Optional[str] = None) -> None:
        self.tenant = tenant
        self.events: List[DegradationEvent] = []
        self._counts: Dict[str, int] = {}
        #: per-kind counts recorded while telemetry was enabled — the
        #: slice the ``resilience.events`` counter must match exactly.
        self._telemetry_counts: Dict[str, int] = {}
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
            self._telemetry_counts[kind] = (
                self._telemetry_counts.get(kind, 0) + 1
            )
            labels = self._labels()
            tel.metrics.counter("resilience.events").inc(
                kind=kind, **labels
            )
            if cycles:
                tel.metrics.counter("resilience.wasted_cycles").inc(
                    cycles, **labels
                )
            # The observability plane journals the same event into its
            # flight recorder (inside the enabled guard, so the plane's
            # per-kind tallies reconcile exactly with the counter).
            if tel.plane is not None:
                tel.plane.on_degradation(event)
        return event

    def _labels(self) -> Dict[str, str]:
        """Extra metric labels: the tenant fault-domain tag, if any."""
        return {} if self.tenant is None else {"tenant": self.tenant}

    # -- views ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def telemetry_counts(self) -> Dict[str, int]:
        """Per-kind counts recorded while telemetry was enabled — the
        slice the counter (and the plane's flight tallies) must match."""
        return dict(self._telemetry_counts)

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

    def reconcile(
        self,
        metrics=None,
        retry_cycles: Optional[float] = None,
    ) -> dict:
        """Balance the ledger against its two mirrors.

        ``metrics`` is a :class:`~repro.telemetry.metrics.MetricsRegistry`
        (defaults to the process-wide one); the per-kind event counts it
        recorded must equal the ledger's telemetry-enabled counts.
        ``retry_cycles``, when given, is the dispatcher's wasted-cycle
        ledger entry and must equal the summed event cycles.
        """
        if metrics is None:
            metrics = get_telemetry().metrics
        counter = metrics.counter("resilience.events")
        labels = self._labels()
        kinds = set(self._telemetry_counts)
        report: dict = {"kinds": {}, "exact": True}
        if self.tenant is not None:
            report["tenant"] = self.tenant
        for kind in sorted(kinds):
            ledger_count = self._telemetry_counts.get(kind, 0)
            counter_count = int(counter.value(kind=kind, **labels))
            ok = ledger_count == counter_count
            report["kinds"][kind] = {
                "ledger": ledger_count,
                "counter": counter_count,
                "ok": ok,
            }
            report["exact"] = report["exact"] and ok
        # the counter must not know kinds the ledger never recorded —
        # for a tenanted ledger, only that tenant's slice is audited
        # (other tenants' series are their own ledgers' business).
        extra = counter.total(**labels) - sum(
            self._telemetry_counts.values()
        )
        report["counter_only"] = extra
        report["exact"] = report["exact"] and extra == 0
        if retry_cycles is not None:
            ok = abs(retry_cycles - self.wasted_cycles) <= max(
                1e-6, 1e-9 * abs(retry_cycles)
            )
            report["retry_cycles"] = {
                "ledger": self.wasted_cycles,
                "dispatcher": retry_cycles,
                "ok": ok,
            }
            report["exact"] = report["exact"] and ok
        return report
