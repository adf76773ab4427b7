"""repro.loadgen — closed/open-loop load generation for the protected
servers, with a max-throughput-under-SLO binary search.

The wrk/PerfKitBenchmarker idiom, ported onto the simulator's virtual
clock:

- :mod:`repro.loadgen.mixes` — seeded per-server request mixes drawn
  from the trained corpus behaviors.
- :mod:`repro.loadgen.scenario` — declarative :class:`LoadScenario`
  configs (JSON round-trip, bundled examples, builtin registry).
- :mod:`repro.loadgen.clients` — the :class:`LoadTracker` client
  generator: closed-loop (next request issued at the previous
  completion) and open-loop (fixed arrival schedule) timing over the
  fleet clock, via accept/close syscall instrumentation.
- :mod:`repro.loadgen.engine` — one load point: build the fleet, run
  it, measure throughput / latency percentiles / monitor overhead /
  detection latency, and digest the outcome.
- :mod:`repro.loadgen.sweep` — the connection sweep and its knee.
- :mod:`repro.loadgen.search` — binary-search max throughput under a
  p99-latency SLO (the ampere ``connections_lower_bound`` /
  ``upper_bound`` idiom), with a convergence trace.
- :mod:`repro.loadgen.bench` — the `repro bench` orchestration that
  ties sweep + search into one report payload.
"""

from repro.loadgen.bench import run_bench
from repro.loadgen.clients import LoadTracker, RequestRecord
from repro.loadgen.engine import (
    LoadPointResult,
    build_load_service,
    rop_request,
    run_load_point,
    summarize_load_point,
)
from repro.loadgen.mixes import MIX_NAMES, mix_requests
from repro.loadgen.scenario import (
    BUILTIN_SCENARIOS,
    LoadScenario,
    builtin_scenario,
    resolve_scenario,
)
from repro.loadgen.search import SearchResult, search_max_under_slo, slo_search
from repro.loadgen.sweep import knee_index, sweep_connections

__all__ = [
    "BUILTIN_SCENARIOS",
    "LoadPointResult",
    "LoadScenario",
    "LoadTracker",
    "MIX_NAMES",
    "RequestRecord",
    "SearchResult",
    "build_load_service",
    "builtin_scenario",
    "knee_index",
    "mix_requests",
    "resolve_scenario",
    "rop_request",
    "run_bench",
    "run_load_point",
    "search_max_under_slo",
    "slo_search",
    "summarize_load_point",
    "sweep_connections",
]
