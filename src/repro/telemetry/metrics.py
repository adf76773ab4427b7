"""Process-wide metrics registry: counters, gauges and histograms.

Every instrument supports labels, so one metric fans out into series —
``monitor.checks{path="fast"}`` and ``monitor.checks{path="slow"}`` are
two series of the same counter.  The registry is the single sink the
whole pipeline reports into; :meth:`MetricsRegistry.snapshot` renders it
as a plain JSON-compatible dict for the ``repro stats`` CLI, experiment
result files and the benchmark exports.

Instruments are no-ops while the registry is disabled, and hot paths
additionally guard the *call* behind ``telemetry.enabled`` so a disabled
run never even builds the label dict (the near-zero-overhead
requirement).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: the percentile points every histogram summary exposes.
QUANTILES = (50, 95, 99)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile over a *sorted* sequence.

    ``q`` is in [0, 100].  This is the one percentile definition the
    whole repo uses (histograms, fleet lag, the SLO engine), so a p99
    computed anywhere matches a p99 computed anywhere else on the same
    observations.  The rank is ``ceil(q * n / 100)``, computed exactly:
    a fractional ``q`` is taken at its decimal value, so p99.9 of 1000
    observations is the 999th (the float 99.9 is slightly above it).
    """
    if not ordered:
        return 0.0
    n = len(ordered)
    if q == int(q):
        rank = -(-int(q) * n // 100)  # ceil without floats
    else:
        rank = math.ceil(Fraction(str(q)) * n / 100)
    return ordered[min(max(1, rank), n) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile of an *unsorted* sequence.

    Canonical home of the helper every reporting surface uses (the
    fleet result, the load tracker, the serving front-end); it simply
    sorts and defers to :func:`nearest_rank`.
    """
    return nearest_rank(sorted(values), q)


def series_name(name: str, labels: LabelKey) -> str:
    """Render ``name{k="v",...}`` — the stable series naming scheme."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


def series_base(series: str) -> str:
    """The metric name of a rendered series: ``name{...}`` -> ``name``."""
    return series.partition("{")[0]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Scalar:
    """One float per labeled series: what a counter and a gauge share."""

    __slots__ = ("name", "_registry", "_series")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._series: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def reset(self) -> None:
        self._series.clear()


class Counter(_Scalar):
    """Monotonically increasing value (events, bytes, cycles)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def total(self, **labels: object) -> float:
        """Sum across every labeled series.

        With labels given, only series carrying those exact label
        values are summed — ``total(tenant="acme")`` is the tenant's
        slice of a counter whose series also carry other labels
        (``kind``, ``server``, ...).
        """
        if not labels:
            return sum(self._series.values())
        want = set(_label_key(labels))
        return sum(
            value
            for key, value in self._series.items()
            if want <= set(key)
        )


class Gauge(_Scalar):
    """Last-written value (sizes, ratios, configuration)."""

    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        self._series[_label_key(labels)] = float(value)


class Histogram:
    """Per-series summary with exact percentiles.

    Every observation is retained (this is a simulator — series are
    thousands of points, not billions), so ``summary`` reports *exact*
    nearest-rank p50/p95/p99 alongside count / sum / min / max — the SLO
    engine needs real tail percentiles, not min/mean/max bounds.
    """

    __slots__ = ("name", "_registry", "_series", "_observations", "_dirty")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._series: Dict[LabelKey, Dict[str, float]] = {}
        self._observations: Dict[LabelKey, List[float]] = {}
        self._dirty: set = set()

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        cell = self._series.get(key)
        if cell is None:
            self._series[key] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
            self._observations[key] = [value]
            return
        cell["count"] += 1
        cell["sum"] += value
        if value < cell["min"]:
            cell["min"] = value
        if value > cell["max"]:
            cell["max"] = value
        self._observations[key].append(value)
        self._dirty.add(key)

    def _ordered(self, key: LabelKey) -> List[float]:
        obs = self._observations.get(key, [])
        if key in self._dirty:
            obs.sort()  # near-sorted in practice; Timsort is cheap here
            self._dirty.discard(key)
        return obs

    def percentile(self, q: float, **labels: object) -> float:
        """Exact nearest-rank percentile of this series (0 if empty)."""
        return nearest_rank(self._ordered(_label_key(labels)), q)

    def _summarize(self, key: LabelKey) -> Optional[Dict[str, float]]:
        cell = self._series.get(key)
        if cell is None:
            return None
        out = dict(cell)
        out["mean"] = out["sum"] / out["count"] if out["count"] else 0.0
        ordered = self._ordered(key)
        for q in QUANTILES:
            out[f"p{q}"] = nearest_rank(ordered, q)
        return out

    def summary(self, **labels: object) -> Optional[Dict[str, float]]:
        return self._summarize(_label_key(labels))

    def reset(self) -> None:
        self._series.clear()
        self._observations.clear()
        self._dirty.clear()


class MetricsRegistry:
    """Owns every instrument; one per :class:`repro.telemetry.Telemetry`."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories (memoized by name) ----------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, self)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name, self)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, self)
        return inst

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every series, keeping the registered instruments."""
        for group in (self._counters, self._gauges, self._histograms):
            for inst in group.values():
                inst.reset()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-compatible dump of every non-empty series."""
        counters = {
            series_name(c.name, key): value
            for c in self._counters.values()
            for key, value in sorted(c._series.items())
        }
        gauges = {
            series_name(g.name, key): value
            for g in self._gauges.values()
            for key, value in sorted(g._series.items())
        }
        histograms = {}
        for h in self._histograms.values():
            for key in sorted(h._series):
                histograms[series_name(h.name, key)] = h._summarize(key)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
