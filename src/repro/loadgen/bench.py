"""`repro bench` orchestration: sweep + knee + SLO search, one payload.

The returned dict is the ``kind: "loadgen-bench"`` document `repro
report` renders and ``repro experiments loadgen`` extends with its
acceptance gates.  Sweep and search share one memoised prober, so a
connection count measured by the sweep is never re-run by the search.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.loadgen.engine import LoadPointResult, warm_pipelines
from repro.loadgen.scenario import LoadScenario
from repro.loadgen.search import slo_search
from repro.loadgen.sweep import (
    cached_probe,
    knee_index,
    monotone_to_knee,
    sweep_connections,
)

PAYLOAD_KIND = "loadgen-bench"


def run_bench(
    scenario: LoadScenario,
    seed: Optional[int] = None,
) -> dict:
    """Run the full bench for one scenario; returns the report payload."""
    scenario.validate()
    if seed is not None:
        scenario = scenario.with_seed(seed)
    warm_pipelines(scenario)
    cache: Dict[int, LoadPointResult] = {}
    probe = cached_probe(scenario, cache=cache)
    sweep = sweep_connections(scenario, probe=probe)
    knee = knee_index(sweep)
    search = slo_search(scenario, probe=probe)
    return {
        "kind": PAYLOAD_KIND,
        "scenario": scenario.to_dict(),
        "sweep": [point.to_dict() for point in sweep],
        "knee": {
            "index": knee,
            "connections": sweep[knee].connections,
            "throughput": sweep[knee].throughput,
            "latency": sweep[knee].slo_value,
        },
        "monotone_to_knee": monotone_to_knee(sweep),
        "search": search.to_dict(),
        "fleet_runs": len(cache) + 1,  # the warm-up run
    }
