"""The connection sweep: offered load stepped across the scenario's
bounds, one measured :class:`~repro.loadgen.engine.LoadPointResult`
per step.

On the one-CPU fleet the curve has the classic wrk shape: throughput
rises while added concurrency overlaps ring-stall and checker time,
saturates at the *knee*, and the latency percentiles keep growing with
queueing — which is what the SLO search trades against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.loadgen.engine import LoadPointResult, run_load_point
from repro.loadgen.scenario import LoadScenario

#: probe signature shared with the search: connections -> result.
ProbeFn = Callable[[int], LoadPointResult]

#: how far one step's throughput may dip below the last one's before
#: the knee and still count as non-decreasing.
KNEE_TOLERANCE = 0.02


def cached_probe(
    scenario: LoadScenario,
    cache: Optional[Dict[int, LoadPointResult]] = None,
) -> ProbeFn:
    """A memoised load-point prober, so the sweep and the binary
    search share measurements instead of re-running fleets."""
    store: Dict[int, LoadPointResult] = cache if cache is not None else {}

    def probe(connections: int) -> LoadPointResult:
        if connections not in store:
            store[connections] = run_load_point(scenario, connections)
        return store[connections]

    return probe


def sweep_connections(
    scenario: LoadScenario, probe: Optional[ProbeFn] = None
) -> List[LoadPointResult]:
    """Measure every connection step in the scenario's sweep bounds."""
    if probe is None:
        probe = cached_probe(scenario)
    points = list(
        range(
            scenario.connections_lower_bound,
            scenario.connections_upper_bound + 1,
            scenario.sweep_step,
        )
    )
    if points and points[-1] != scenario.connections_upper_bound:
        points.append(scenario.connections_upper_bound)
    return [probe(c) for c in points]


def knee_index(results: Sequence[LoadPointResult]) -> int:
    """The saturation knee: the first sweep index achieving the
    maximum throughput (offered load beyond it buys latency, not
    requests/sec)."""
    if not results:
        raise ValueError("empty sweep")
    best = max(r.throughput for r in results)
    for index, r in enumerate(results):
        if r.throughput >= best:
            return index
    return len(results) - 1  # pragma: no cover - unreachable


def monotone_to_knee(results: Sequence[LoadPointResult]) -> bool:
    """True when throughput is non-decreasing (within
    ``KNEE_TOLERANCE``) up to the knee — the shape a healthy closed-loop
    sweep must have."""
    knee = knee_index(results)
    for i in range(knee):
        if results[i + 1].throughput < results[i].throughput * (
            1.0 - KNEE_TOLERANCE
        ):
            return False
    return True
