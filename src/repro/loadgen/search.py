"""Binary-search "max throughput under SLO" (the wrk/ampere idiom).

PerfKitBenchmarker's nginx benchmark walks ``connections_lower_bound``
/ ``connections_upper_bound`` with a bisection: a probe at the
midpoint either meets the p99-latency SLO (search up) or misses it
(search down).  :func:`search_max_under_slo` is that loop, generic
over any probe so a synthetic latency curve can unit-test convergence;
:func:`slo_search` binds it to real measured load points and emits the
convergence trace the bench report renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.loadgen.engine import LoadPointResult
from repro.loadgen.scenario import LoadScenario
from repro.loadgen.sweep import ProbeFn, cached_probe


@dataclass
class SearchResult:
    """Outcome of one max-throughput-under-SLO search."""

    #: the largest connection count meeting the SLO (None: even the
    #: lower bound misses it).
    best_connections: Optional[int]
    best: Optional[LoadPointResult]
    #: probe-by-probe convergence log.
    trace: List[dict] = field(default_factory=list)
    probes: int = 0
    converged: bool = False
    lower: int = 0
    upper: int = 0
    slo_latency: float = 0.0
    slo_percentile: float = 99.0

    @property
    def max_throughput(self) -> float:
        return self.best.throughput if self.best is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "best_connections": self.best_connections,
            "best": self.best.to_dict() if self.best is not None else None,
            "max_throughput": self.max_throughput,
            "trace": list(self.trace),
            "probes": self.probes,
            "converged": self.converged,
            "lower": self.lower,
            "upper": self.upper,
            "slo_latency": self.slo_latency,
            "slo_percentile": self.slo_percentile,
        }


def probe_budget(lower: int, upper: int) -> int:
    """The bisection's worst case: ⌈log2(range)⌉ + 1 probes."""
    span = max(upper - lower + 1, 1)
    return int(math.ceil(math.log2(span))) + 1


def search_max_under_slo(
    probe: Callable[[int], Tuple[object, bool]],
    lower: int,
    upper: int,
) -> Tuple[Optional[int], Optional[object], List[dict]]:
    """Bisect for the largest ``c`` in [lower, upper] whose probe
    meets the SLO.

    ``probe(c)`` returns ``(result, met)``.  Assumes the usual load
    monotonicity (latency grows with offered load); returns
    ``(best_c, best_result, trace)`` with ``best_c`` None when even
    ``lower`` misses.
    """
    if lower > upper:
        raise ValueError("lower bound above upper bound")
    best_c: Optional[int] = None
    best: Optional[object] = None
    trace: List[dict] = []
    lo, hi = lower, upper
    while lo <= hi:
        mid = (lo + hi) // 2
        result, met = probe(mid)
        trace.append({
            "probe": len(trace) + 1,
            "connections": mid,
            "met": bool(met),
            "lower": lo,
            "upper": hi,
        })
        if met:
            best_c, best = mid, result
            lo = mid + 1
        else:
            hi = mid - 1
    return best_c, best, trace


def slo_search(
    scenario: LoadScenario, probe: Optional[ProbeFn] = None
) -> SearchResult:
    """Max measured throughput with latency p-``slo_percentile`` at or
    under ``scenario.slo_latency`` cycles."""
    if probe is None:
        probe = cached_probe(scenario)
    lower = scenario.connections_lower_bound
    upper = scenario.connections_upper_bound

    def judged(connections: int) -> Tuple[LoadPointResult, bool]:
        point = probe(connections)
        return point, point.slo_value <= scenario.slo_latency

    best_c, best, trace = search_max_under_slo(judged, lower, upper)
    for row in trace:
        point = probe(row["connections"])  # memoised: no extra run
        row["latency"] = point.slo_value
        row["throughput"] = point.throughput
    return SearchResult(
        best_connections=best_c,
        best=best,
        trace=trace,
        probes=len(trace),
        converged=len(trace) <= probe_budget(lower, upper),
        lower=lower,
        upper=upper,
        slo_latency=scenario.slo_latency,
        slo_percentile=scenario.slo_percentile,
    )
