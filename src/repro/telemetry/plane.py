"""The live observability plane: sampler + flight recorder + SLO engine.

PR 1's telemetry is post-mortem: one snapshot after the run.  This
module makes the monitor's own cost and health a *continuously
observed* signal, in the spirit of TitanCFI's separately-budgeted
root-of-trust monitor:

- :class:`TimeseriesSampler` — snapshots every registered metric series
  on a virtual-clock cadence (hooked into ``FleetClock`` ticks and
  ``Kernel.step``), ring-buffered; :meth:`ObservabilityPlane.export`
  writes the resident samples with the rest of the plane.
- :class:`FlightRecorder` — a bounded structured journal of notable
  events (verdicts, fault injections, cache transitions, quarantines,
  dead letters, PSB re-syncs) that auto-dumps the last N events with
  surrounding timeseries context when a VIOLATION or a
  ledger-reconciliation failure occurs.
- :class:`SLOEngine` — declarative objectives (detection-latency p99,
  checker lag p99, monitor-cycle budget) evaluated over sampler
  windows, with error-budget accounting and per-label breakdowns
  reusing the ``DegradationLedger`` labels.
- :class:`ObservabilityPlane` — ties the three together and owns the
  hook surface the pipeline calls into.

Everything here *observes*; nothing charges simulated cycles or
perturbs verdicts — ``repro experiments observability`` gates that an
instrumented run is bit-identical to an uninstrumented one.  The plane
keeps no count of its own to audit: its check and degradation views
are written in the same calls as ``MonitorStats`` and the
:class:`~repro.resilience.ledger.DegradationLedger`.  What it does is
dump the flight recorder when an audit of *independent* sources drifts
— the fleet's cycle accounting or the ledger's wasted cycles against
the dispatcher (:meth:`ObservabilityPlane.check_reconciliation`).

Attach via :meth:`repro.telemetry.Telemetry.attach_plane`::

    tel = telemetry.get_telemetry()
    tel.reset()
    plane = ObservabilityPlane(interval=2000.0)
    tel.attach_plane(plane)         # also enables telemetry
    ... run ...
    report = plane.slo_report()
    tel.detach_plane()
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.configio import JsonConfig
from repro.telemetry.metrics import QUANTILES, series_base, series_name

#: events the flight recorder keeps
FLIGHT_CAPACITY = 256
#: the newest events a flight dump freezes
DUMP_EVENTS = 64
#: the newest timeseries samples a flight dump freezes
DUMP_SAMPLES = 8
#: dumps a recorder keeps; later ones are counted as suppressed
MAX_DUMPS = 16


class TimeseriesSampler:
    """Ring-buffered snapshots of every series, on a virtual cadence.

    ``maybe_sample(now)`` is the hot hook: it returns immediately
    unless virtual time crossed the next cadence boundary, at which
    point one sample — the full metrics snapshot plus the profiler's
    phase totals — is appended to the ring.  Sampling reads state only;
    it never charges cycles.
    """

    def __init__(
        self,
        metrics,
        profiler,
        interval: float = 2000.0,
        capacity: int = 512,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        if capacity <= 0:
            raise ValueError("sampler capacity must be positive")
        self.metrics = metrics
        self.profiler = profiler
        self.interval = float(interval)
        self.capacity = capacity
        self.samples: deque = deque(maxlen=capacity)
        #: total samples ever taken (resident + evicted).
        self.taken = 0
        self._next_at = self.interval
        #: called with each new sample (the ``repro top`` renderer).
        self.on_sample: List[Callable[[dict], None]] = []

    @property
    def dropped(self) -> int:
        return self.taken - len(self.samples)

    def maybe_sample(self, now: float) -> Optional[dict]:
        if now < self._next_at:
            return None
        return self.sample(now)

    def sample(self, now: float) -> dict:
        """Take one sample unconditionally (forced by dumps/finalize)."""
        snap = self.metrics.snapshot()
        phases = self.profiler.per_phase()
        sample = {
            "seq": self.taken,
            "t": now,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "profile": {"total": sum(phases.values()), "phases": phases},
        }
        self.samples.append(sample)
        self.taken += 1
        # Next boundary strictly after ``now``, staying on the grid.
        self._next_at = (math.floor(now / self.interval) + 1) * self.interval
        for hook in self.on_sample:
            hook(sample)
        return sample

    def reset(self) -> None:
        self.samples.clear()
        self.taken = 0
        self._next_at = self.interval


class FlightRecorder:
    """Bounded structured event journal with crash dumps.

    It keeps the last :data:`FLIGHT_CAPACITY` events.  ``dump``
    freezes the last :data:`DUMP_EVENTS` events plus the last
    :data:`DUMP_SAMPLES` timeseries samples under a reason string;
    dumps are themselves bounded (:data:`MAX_DUMPS`) so a pathological
    run cannot grow without bail.
    """

    __slots__ = ("events", "seq", "counts", "dumps", "dumps_suppressed")

    def __init__(self) -> None:
        self.events: deque = deque(maxlen=FLIGHT_CAPACITY)
        self.seq = 0
        self.counts: Dict[str, int] = {}
        self.dumps: List[dict] = []
        self.dumps_suppressed = 0

    @property
    def dropped(self) -> int:
        return self.seq - len(self.events)

    def record(
        self, kind: str, t: float, pid: int = -1, detail: str = ""
    ) -> dict:
        event = {
            "seq": self.seq, "t": t, "kind": kind, "pid": pid,
            "detail": detail,
        }
        self.seq += 1
        self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        return event

    def dump(
        self, reason: str, t: float, sampler: Optional[TimeseriesSampler]
    ) -> Optional[dict]:
        if len(self.dumps) >= MAX_DUMPS:
            self.dumps_suppressed += 1
            return None
        tail = list(self.events)[-DUMP_EVENTS:]
        context = (
            list(sampler.samples)[-DUMP_SAMPLES:]
            if sampler is not None else []
        )
        dump = {
            "reason": reason,
            "t": t,
            "seq": self.seq,
            "events": [dict(e) for e in tail],
            "samples": [dict(s) for s in context],
        }
        self.dumps.append(dump)
        return dump

    def reset(self) -> None:
        self.events.clear()
        self.seq = 0
        self.counts.clear()
        self.dumps.clear()
        self.dumps_suppressed = 0


# -- SLO layer ---------------------------------------------------------------

#: objective kinds the engine evaluates.
OBJECTIVE_KINDS = ("histogram_quantile", "counter_window", "gauge",
                   "overhead")


@dataclass
class SLObjective(JsonConfig):
    """One declarative objective: a bound on a signal, with a target.

    ``kind`` selects the signal:

    - ``histogram_quantile`` — exact nearest-rank ``q``-percentile of
      histogram ``metric`` at each sample (cumulative-to-date tail);
      ``q`` is one of the summary's ``QUANTILES`` (50, 95, 99).
    - ``counter_window`` — the counter's *delta* across each sampler
      window.
    - ``gauge`` — the gauge's value at each sample.
    - ``overhead`` — cumulative profiler cycles over virtual time at
      each sample (the TitanCFI-style monitor-cycle budget).

    A window *complies* when the signal is ``<= max_value``; ``target``
    is the required compliance ratio (0.99 = an error budget of 1% of
    windows).  Windows where the signal is absent (metric never
    recorded yet) are not counted either way.
    """

    name: str
    kind: str
    max_value: float
    metric: str = ""
    q: int = 99
    target: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown SLO objective kind {self.kind!r}")
        if not (0.0 < self.target <= 1.0):
            raise ValueError("SLO target must be in (0, 1]")
        if self.kind in ("histogram_quantile", "counter_window", "gauge") \
                and not self.metric:
            raise ValueError(f"objective {self.name!r} needs a metric")
        if self.kind == "histogram_quantile" and self.q not in QUANTILES:
            # A histogram summary keeps only these percentiles.
            raise ValueError(
                f"objective {self.name!r}: q must be one of "
                f"{', '.join(map(str, QUANTILES))}, not {self.q!r}"
            )


@dataclass
class SLOConfig(JsonConfig):
    """The declarative objective set."""

    objectives: List[SLObjective] = field(default_factory=list)

    @classmethod
    def default(cls) -> "SLOConfig":
        """The stock objective set for fleet runs.

        Thresholds are sized for the repo's default fleet shapes (the
        ``repro experiments observability`` clean run must meet all of
        them); a fault-injected run burns ``degradation-free`` budget.
        """
        return cls(objectives=[
            SLObjective(
                name="checker-lag-p99",
                kind="histogram_quantile",
                metric="fleet.check_lag",
                q=99,
                max_value=300_000.0,
                target=0.95,
            ),
            SLObjective(
                name="detection-latency-p99",
                kind="histogram_quantile",
                metric="fleet.detection_latency",
                q=99,
                max_value=300_000.0,
                target=1.0,
            ),
            SLObjective(
                name="monitor-cycle-budget",
                kind="overhead",
                max_value=6.0,
                target=0.9,
            ),
            SLObjective(
                name="degradation-free",
                kind="counter_window",
                metric="resilience.events",
                max_value=0.0,
                target=0.9,
            ),
        ])


class SLOEngine:
    """Evaluates an :class:`SLOConfig` over sampler windows."""

    #: burn values are capped here so a zero error budget reports a
    #: finite (but unmistakable) burn instead of infinity.
    BURN_CAP = 100.0

    def __init__(self, config: SLOConfig) -> None:
        self.config = config

    # -- signal extraction ---------------------------------------------------

    @staticmethod
    def _matching(series_map: dict, metric: str) -> Dict[str, object]:
        return {
            series: value for series, value in series_map.items()
            if series_base(series) == metric
        }

    def _value_at(self, obj: SLObjective, sample: dict,
                  prev: Optional[dict]) -> Optional[float]:
        """The objective's merged signal at one sample (None = absent)."""
        if obj.kind == "histogram_quantile":
            cells = self._matching(sample["histograms"], obj.metric)
            if not cells:
                return None
            # Unlabeled series preferred; otherwise the worst labeled
            # series bounds the merged percentile from above.
            cell = cells.get(obj.metric)
            if cell is not None:
                return cell[f"p{obj.q}"]
            return max(c[f"p{obj.q}"] for c in cells.values())
        if obj.kind == "counter_window":
            cur = self._matching(sample["counters"], obj.metric)
            if not cur and prev is None:
                return None
            before = self._matching(prev["counters"], obj.metric) \
                if prev is not None else {}
            if not cur and not before:
                return None
            return sum(cur.values()) - sum(before.values())
        if obj.kind == "gauge":
            cells = self._matching(sample["gauges"], obj.metric)
            if not cells:
                return None
            if obj.metric in cells:
                return cells[obj.metric]
            return max(cells.values())
        # overhead: cumulative monitor cycles over virtual time.
        t = sample["t"]
        if t <= 0:
            return None
        return sample["profile"]["total"] / t

    def _series_value_at(self, obj: SLObjective, series: str,
                         sample: dict, prev: Optional[dict]
                         ) -> Optional[float]:
        if obj.kind == "histogram_quantile":
            cell = sample["histograms"].get(series)
            return None if cell is None else cell[f"p{obj.q}"]
        if obj.kind == "counter_window":
            cur = sample["counters"].get(series)
            before = prev["counters"].get(series, 0.0) \
                if prev is not None else 0.0
            if cur is None:
                return None if before == 0.0 else -before
            return cur - before
        if obj.kind == "gauge":
            return sample["gauges"].get(series)
        return None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, samples: Sequence[dict]) -> dict:
        """Error-budget report over the sampled windows."""
        samples = list(samples)
        objectives = []
        all_met = True
        for obj in self.config.objectives:
            windows = 0
            violations = 0
            worst: Optional[float] = None
            prev: Optional[dict] = None
            series_stats: Dict[str, dict] = {}
            for sample in samples:
                value = self._value_at(obj, sample, prev)
                if value is not None:
                    windows += 1
                    if value > obj.max_value:
                        violations += 1
                    if worst is None or value > worst:
                        worst = value
                if obj.kind in ("histogram_quantile", "counter_window",
                                "gauge"):
                    group = ("histograms"
                             if obj.kind == "histogram_quantile"
                             else "counters" if obj.kind == "counter_window"
                             else "gauges")
                    for series in self._matching(sample[group], obj.metric):
                        sval = self._series_value_at(obj, series, sample,
                                                     prev)
                        if sval is None:
                            continue
                        cell = series_stats.setdefault(
                            series,
                            {"windows": 0, "violations": 0, "worst": None},
                        )
                        cell["windows"] += 1
                        if sval > obj.max_value:
                            cell["violations"] += 1
                        if cell["worst"] is None or sval > cell["worst"]:
                            cell["worst"] = sval
                prev = sample
            compliance = 1.0 if windows == 0 else 1.0 - violations / windows
            error_budget = max(0.0, 1.0 - obj.target)
            if violations == 0:
                burn = 0.0
            elif error_budget <= 0.0:
                burn = self.BURN_CAP
            else:
                burn = min(self.BURN_CAP,
                           (violations / windows) / error_budget)
            met = compliance >= obj.target - 1e-12
            all_met = all_met and met
            objectives.append({
                **obj.to_dict(),
                "windows": windows,
                "violations": violations,
                "compliance": compliance,
                "worst": worst,
                "budget_burn": burn,
                "met": met,
                "breakdown": {
                    series: series_stats[series]
                    for series in sorted(series_stats)
                },
            })
        return {
            "objectives": objectives,
            "met": all_met,
            "total_burn": sum(o["budget_burn"] for o in objectives),
        }


# -- the plane ---------------------------------------------------------------

class ObservabilityPlane:
    """Sampler + flight recorder + SLO engine, wired into the pipeline.

    Hook points (each call site guards on ``telemetry.plane is not
    None`` so an absent plane costs one attribute read):

    - ``Kernel.step``                 -> :meth:`on_step`
    - ``FleetClock.unpin/advance_to`` -> :meth:`maybe_sample`
    - ``FlowGuardMonitor._run_check`` -> :meth:`on_check`
    - ``DegradationLedger.record``    -> :meth:`on_degradation`
    - reconciliation call sites       -> :meth:`check_reconciliation`
    """

    def __init__(
        self,
        interval: float = 2000.0,
        sampler_capacity: int = 512,
        slo: Optional[SLOConfig] = None,
    ) -> None:
        from repro.telemetry import get_telemetry  # lazy: avoid cycle

        telemetry = self.telemetry = get_telemetry()
        self.sampler = TimeseriesSampler(
            telemetry.metrics, telemetry.profiler,
            interval=interval, capacity=sampler_capacity,
        )
        self.flight = FlightRecorder()
        self.slo = slo if slo is not None else SLOConfig.default()
        self.engine = SLOEngine(self.slo)
        self.clock = None
        #: per-(kind, pid) degradation tallies, for ``slo_report``.
        self._ledger_by_pid: Dict[str, int] = {}
        self._finalized = False

    # -- time ----------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Adopt the fleet clock as the plane's time source; the clock
        calls :meth:`maybe_sample` on every tick (unpin / jump)."""
        self.clock = clock
        clock.plane = self

    def now(self, fallback: float = 0.0) -> float:
        if self.clock is not None:
            return self.clock.now
        return fallback

    def maybe_sample(self, now: float) -> Optional[dict]:
        return self.sampler.maybe_sample(now)

    # -- pipeline hooks ------------------------------------------------------

    def on_step(self, proc) -> None:
        """``Kernel.step`` boundary: solo runs sample on process time."""
        self.sampler.maybe_sample(self.now(proc.executor.cycles))

    def on_check(self, pp, nr: int, verdict) -> None:
        """Every monitor check: journal the verdict; dump on VIOLATION."""
        t = self.now(pp.process.executor.cycles)
        value = getattr(verdict, "value", verdict)
        self.flight.record(
            "verdict", t, pid=pp.process.pid,
            detail=f"syscall={nr} verdict={value}",
        )
        if value == "violation":
            self.sampler.sample(t)
            self.flight.dump(
                f"VIOLATION pid={pp.process.pid} syscall={nr}", t,
                self.sampler,
            )
        else:
            self.sampler.maybe_sample(t)

    def on_degradation(self, event) -> None:
        """Journal one ``DegradationLedger.record`` event (quarantines,
        fault injections, dead letters, PSB re-syncs...)."""
        t = event.at if event.at else self.now()
        self.flight.record(event.kind, t, pid=event.pid,
                           detail=event.detail)
        key = series_name(event.kind, (("pid", str(event.pid)),))
        self._ledger_by_pid[key] = self._ledger_by_pid.get(key, 0) + 1

    # -- drift dumps ---------------------------------------------------------

    def record_drift(self, what: str) -> None:
        t = self.now()
        self.flight.record("ledger-drift", t, detail=what)
        self.sampler.sample(t)
        self.flight.dump(f"ledger drift: {what}", t, self.sampler)

    def check_reconciliation(self, what: str,
                             report: Optional[dict]) -> bool:
        """Auto-dump when a reconciliation report came back inexact."""
        if report is not None and not report.get("exact", True):
            self.record_drift(what)
            return False
        return True

    # -- reporting -----------------------------------------------------------

    def finalize(self, now: Optional[float] = None) -> None:
        """Take the closing sample (idempotent)."""
        if self._finalized:
            return
        self.sampler.sample(self.now() if now is None else now)
        self._finalized = True

    def slo_report(self) -> dict:
        """SLO verdicts + plane health, for StatsReport's ``slo``
        section (schema v3)."""
        self.finalize()
        report = self.engine.evaluate(self.sampler.samples)
        report["sampler"] = {
            "interval": self.sampler.interval,
            "samples": self.sampler.taken,
            "resident": len(self.sampler.samples),
            "dropped": self.sampler.dropped,
        }
        report["flight"] = {
            "events": self.flight.seq,
            "resident": len(self.flight.events),
            "dropped": self.flight.dropped,
            "counts": dict(sorted(self.flight.counts.items())),
            "dumps": len(self.flight.dumps),
            "dumps_suppressed": self.flight.dumps_suppressed,
        }
        report["degradations_by_pid"] = dict(
            sorted(self._ledger_by_pid.items())
        )
        return report

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-contained dump: samples + flight journal + SLO report
        (the payload ``repro report`` renders)."""
        return {
            "kind": "plane-dump",
            "interval": self.sampler.interval,
            "samples": [dict(s) for s in self.sampler.samples],
            "flight": {
                "events": [dict(e) for e in self.flight.events],
                "counts": dict(sorted(self.flight.counts.items())),
                "dropped": self.flight.dropped,
            },
            "dumps": list(self.flight.dumps),
            "slo": self.slo_report(),
            "slo_config": self.slo.to_dict(),
        }

    def export(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path

    def reset(self) -> None:
        self.sampler.reset()
        self.flight.reset()
        self._ledger_by_pid.clear()
        self._finalized = False

