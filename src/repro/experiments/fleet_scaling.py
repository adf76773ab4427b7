"""Fleet scaling: check-lag vs workers, fleet size, and ring policy.

Three sweeps over the :mod:`repro.fleet` service, all deterministic:

- **worker sweep** — an 8-process fleet checked by 1..4 workers.  The
  p99 check lag (the tail of the asynchronous detection window) must
  fall monotonically as workers are added: PSB-sliced checks spread
  across the pool, which is the §5.3 parallel-decode claim at fleet
  scale.
- **process sweep** — fleet sizes at a fixed pool, showing how lag and
  worker utilization grow as one monitor serves more processes.
- **policy pressure** — stall vs lossy rings sized small enough to
  force PMIs every few quanta.  Stall pays for losslessness in stall
  cycles (higher overhead); lossy keeps the fleet moving but drops
  bytes and forces PSB re-syncs.

``python -m repro experiments fleet`` writes the result to
``BENCH_fleet.json`` and judges :func:`gates`; ``fleet-scale`` does the
same for :func:`run_scale` (→ ``BENCH_fleet_scale.json``).

:func:`build_fault_fleet` is the fault-injected fleet the resilience
and observability experiments share.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    format_rows,
    run_server_overhead,
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.loadgen import rop_request
from repro.resilience import RetryPolicy

#: the two concurrently-served workloads (ISSUE: "two different server
#: workloads"); alternated across fleet slots.
FLEET_SERVERS = ("nginx", "exim")


def build_fleet(
    processes: int,
    workers: int,
    sessions: int,
    policy: RingPolicy = RingPolicy.LOSSY,
    ring_bytes: int = 8192,
    max_queue_depth: int = 1_000_000,
    faults=None,
    retry=None,
) -> FleetService:
    """A fleet with the standard alternating server mix.

    Lag sweeps default to lossy rings and an unbounded queue so the
    submitted work is *identical* across worker counts — stall-mode
    feedback would change the schedule itself and confound the sweep.
    ``faults``/``retry`` arm the resilience plane (see
    :func:`build_fault_fleet`).
    """
    config = FleetConfig(
        workers=workers,
        ring_bytes=ring_bytes,
        ring_policy=policy,
        max_queue_depth=max_queue_depth,
        faults=faults,
        retry=retry,
    )
    service = FleetService(config)
    seed_server_fs(service.kernel)
    for index in range(processes):
        name = FLEET_SERVERS[index % len(FLEET_SERVERS)]
        service.add_workload(
            server_pipeline(name), server_requests(name, sessions)
        )
    return service


#: the fault fleet's shape, shared by the resilience and observability
#: experiments: four alternating nginx/exim processes on two workers
#: with 8 KiB rings (lossy by default: the fault mix includes dropped
#: PMIs, which only degrade meaningfully when the ring may wrap).
FAULT_PROCESSES = 4
FAULT_WORKERS = 2
FAULT_RING_BYTES = 8192

#: retry policy for fault-injected fleets: enough attempts that the
#: standard mix never exhausts them (dead-lettering is exercised by its
#: own scheduled scenario, not left to chance).  The watchdog is a
#: small multiple of a typical check cost, and hung attempts are hedged
#: after ``hedge_delay`` cycles rather than waited out — the two knobs
#: that keep the p99 verdict-lag gate bounded.
FAULT_RETRY = RetryPolicy(
    max_attempts=4,
    task_timeout=2_000.0,
    backoff_base=50.0,
    backoff_cap=400.0,
    hedge_delay=250.0,
)


def build_fault_fleet(
    sessions: int,
    faults=None,
    retry=None,
    policy: RingPolicy = RingPolicy.LOSSY,
    inject_rop: bool = False,
) -> Tuple[FleetService, Optional[int]]:
    """The fault fleet, and the pid of its attacked process.

    With ``inject_rop`` the first nginx instance gets a ROP exploit
    planted mid-stream; everyone else serves clean sessions (the
    attacked pid is ``None`` without it).
    """
    # processes=0: build_fleet seeds the filesystem but leaves the fleet
    # empty, so the rop payload can go into the first instance's stream.
    service = build_fleet(
        0, FAULT_WORKERS, sessions, policy=policy,
        ring_bytes=FAULT_RING_BYTES, faults=faults, retry=retry,
    )
    rop = rop_request() if inject_rop else None
    attacked_pid = None
    for index in range(FAULT_PROCESSES):
        name = FLEET_SERVERS[index % len(FLEET_SERVERS)]
        requests = list(server_requests(name, sessions))
        if index == 0 and rop is not None:
            requests.insert(len(requests) // 2, rop)
        proc = service.add_workload(server_pipeline(name), requests)
        if index == 0 and rop is not None:
            attacked_pid = proc.pid
    return service, attacked_pid


def _fleet_row(result) -> dict:
    sessions = sum(p["sessions"] for p in result.processes)
    throughput = (
        sessions / result.makespan * 1e6 if result.makespan > 0 else 0.0
    )
    return {
        "processes": len(result.processes),
        "workers": result.config.workers,
        "policy": result.config.ring_policy.value,
        "ring_bytes": result.config.ring_bytes,
        "sessions": sessions,
        "tasks": result.tasks,
        "dropped_checks": result.dropped_checks,
        "makespan": result.makespan,
        "throughput_per_mcycle": throughput,
        "lag_p50": result.lag["p50"],
        "lag_p99": result.lag["p99"],
        "lag_mean": result.lag["mean"],
        "overhead": result.overhead,
        "stall_cycles": result.stall_cycles,
        "utilization_mean": (
            sum(result.worker_utilization) / len(result.worker_utilization)
        ),
        "accounting_exact": result.accounting["exact"],
        "schedule_digest": result.schedule_digest,
    }


def run(quick: bool = False) -> Dict[str, object]:
    sessions = 2 if quick else 3
    results: Dict[str, object] = {"quick": quick, "sessions": sessions}

    # -- worker sweep: 8 processes, 1..4 workers ---------------------------
    worker_rows: List[dict] = []
    for workers in (1, 2, 3, 4):
        service = build_fleet(8, workers, sessions)
        worker_rows.append(_fleet_row(service.run()))
    results["worker_sweep"] = worker_rows

    # -- process sweep: 4 workers, growing fleet ---------------------------
    process_rows: List[dict] = []
    for processes in (2, 4, 8) if not quick else (2, 8):
        service = build_fleet(processes, 4, sessions)
        process_rows.append(_fleet_row(service.run()))
    results["process_sweep"] = process_rows

    # -- policy pressure: small rings force PMIs every few quanta ----------
    pressure_rows: List[dict] = []
    for policy in (RingPolicy.STALL, RingPolicy.LOSSY):
        service = build_fleet(
            4, 2, sessions, policy=policy, ring_bytes=1024,
            max_queue_depth=64,
        )
        result = service.run()
        row = _fleet_row(result)
        row["pmis"] = sum(p["pmi_count"] for p in result.processes)
        row["stalls"] = sum(p["stalls"] for p in result.processes)
        row["lost_bytes"] = sum(
            p["overwritten_bytes"] + p["resync_dropped_bytes"]
            for p in result.processes
        )
        row["resyncs"] = sum(p["resyncs"] for p in result.processes)
        pressure_rows.append(row)
    results["policy_pressure"] = pressure_rows

    # -- overhead vs solo: same servers, one monitor each ------------------
    solo: Dict[str, float] = {}
    for name in FLEET_SERVERS:
        overhead, _, _ = run_server_overhead(name, sessions=sessions)
        solo[name] = overhead
    fleet_service = build_fleet(8, 4, sessions)
    fleet_result = fleet_service.run()
    per_server: Dict[str, dict] = {}
    for row in fleet_result.processes:
        cell = per_server.setdefault(
            row["name"], {"monitor": 0.0, "stall": 0.0, "app": 0.0}
        )
        cell["monitor"] += row["monitor_cycles"]
        cell["stall"] += row["stall_cycles"]
        cell["app"] += row["app_cycles"]
    results["overhead_vs_solo"] = {
        name: {
            "solo": solo[name],
            "fleet": (cell["monitor"] + cell["stall"]) / cell["app"],
        }
        for name, cell in per_server.items()
    }
    results["gates"] = gates(results)
    return results


def gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    p99s = [row["lag_p99"] for row in results["worker_sweep"]]
    stall, lossy = results["policy_pressure"]
    return {
        "lag_p99_falls_with_workers": all(
            b < a for a, b in zip(p99s, p99s[1:])
        ),
        "stall_overhead_exceeds_lossy": (
            stall["overhead"] > lossy["overhead"]
        ),
    }


def run_scale(
    quick: bool = False, max_processes: Optional[int] = None,
) -> Dict[str, object]:
    """The 100× sweep: one monitor serving hundreds of protected
    processes, workers scaled at one per four processes.

    Fleets of 16, 32, 64 and 100 processes below ``max_processes``
    (default 100, or 32 with ``quick``), then ``max_processes`` itself.
    """
    if max_processes is None:
        max_processes = 32 if quick else 100
    sizes = [
        size for size in (16, 32, 64, 100, 128) if size < max_processes
    ]
    sizes.append(max_processes)
    scale_rows: List[dict] = []
    for processes in sizes:
        workers = max(4, processes // 4)
        row = _fleet_row(build_fleet(processes, workers, 1).run())
        row["lag_p99_per_process"] = row["lag_p99"] / processes
        scale_rows.append(row)
    growth = []
    for prev, cur in zip(scale_rows, scale_rows[1:]):
        size_ratio = cur["processes"] / prev["processes"]
        lag_ratio = (
            cur["lag_p99"] / prev["lag_p99"] if prev["lag_p99"] > 0
            else 0.0
        )
        growth.append({
            "from": prev["processes"],
            "to": cur["processes"],
            "size_ratio": size_ratio,
            "lag_ratio": lag_ratio,
            "sublinear": lag_ratio < size_ratio,
        })
    results: Dict[str, object] = {
        "max_processes": max_processes,
        "scale_sweep": scale_rows,
        "lag_growth": growth,
    }
    results["gates"] = scale_gates(results)
    return results


def scale_gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run_scale` result: lag_p99
    grows strictly slower than fleet size between consecutive sizes,
    and every fleet's cycle ledger reconciles exactly (the largest
    clean fleets any gate checks)."""
    return {
        "lag_sublinear": all(g["sublinear"] for g in results["lag_growth"]),
        "accounting_exact": all(
            row["accounting_exact"] for row in results["scale_sweep"]
        ),
    }


def format_scale_table(results: Dict[str, object]) -> str:
    rows = [
        [
            row["processes"],
            row["workers"],
            row["lag_p99"],
            row["lag_p99_per_process"],
            row["throughput_per_mcycle"],
            row["utilization_mean"],
        ]
        for row in results["scale_sweep"]
    ]
    table = format_rows(
        ["procs", "workers", "lag p99", "lag/proc", "thru/Mcyc", "util"],
        rows,
    )
    return "Fleet at 100x: process sweep\n" + table


def format_table(results: Dict[str, object]) -> str:
    sections = []
    headers = ["procs", "workers", "policy", "lag p50", "lag p99",
               "overhead", "util", "thru/Mcyc"]

    def rows_of(sweep):
        return [
            [
                row["processes"],
                row["workers"],
                row["policy"],
                row["lag_p50"],
                row["lag_p99"],
                row["overhead"],
                row["utilization_mean"],
                row["throughput_per_mcycle"],
            ]
            for row in sweep
        ]

    sections.append("Fleet scaling: worker sweep (8 processes)\n"
                    + format_rows(headers, rows_of(results["worker_sweep"])))
    sections.append("Fleet scaling: process sweep (4 workers)\n"
                    + format_rows(headers, rows_of(results["process_sweep"])))
    pressure = results["policy_pressure"]
    sections.append(
        "Ring pressure: stall vs lossy (1 KiB rings)\n"
        + format_rows(
            ["policy", "overhead", "stall cyc", "PMIs", "lost B",
             "resyncs", "dropped"],
            [
                [
                    row["policy"],
                    row["overhead"],
                    row["stall_cycles"],
                    row["pmis"],
                    row["lost_bytes"],
                    row["resyncs"],
                    row["dropped_checks"],
                ]
                for row in pressure
            ],
        )
    )
    solo = results["overhead_vs_solo"]
    sections.append(
        "Overhead: fleet (8p/4w) vs solo\n"
        + format_rows(
            ["server", "solo", "fleet"],
            [[name, cell["solo"], cell["fleet"]]
             for name, cell in sorted(solo.items())],
        )
    )
    return "\n\n".join(sections)
