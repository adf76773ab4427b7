"""Observability-plane acceptance: transparency, verdicts, exactness.

The plane's contract has three legs, all gated by
``experiments/observability.py`` (→ ``BENCH_observability.json``):

- **transparency** — attaching the plane must not perturb the run.
  Each scenario executes twice, uninstrumented (telemetry fully off)
  and with the plane attached; the verdict digests (schedule digest +
  every task's verdict + quarantined pids + cycle totals) must be
  bit-identical.
- **verdicts** — a clean fleet run must meet every stock SLO; a
  fault-injected run with a planted ROP exploit must burn
  ``degradation-free`` error budget and capture at least one
  flight-recorder dump (the VIOLATION auto-dump).
- **exactness** — with the plane attached, the fleet's cycle
  accounting (worker ledger vs ``MonitorStats``) and the
  ``DegradationLedger``'s wasted cycles (vs the dispatcher's
  ``retry_cycles``) must come back exact.  The plane keeps no count of
  its own to audit: its views are written in the same calls as the
  stats and the ledger.

A quick ``psb_period`` sweep rides along so the run report can chart
the trace-granularity tradeoff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List, Optional

from repro import telemetry
from repro.attacks import build_rop_request, run_recon
from repro.experiments.ablations import sweep_psb_period
from repro.experiments.common import (
    format_rows,
    libraries,
    server_pipeline,
    server_requests,
)
from repro.experiments.fleet_scaling import build_fleet
from repro.fleet.rings import RingPolicy
from repro.resilience import FaultPlan, RetryPolicy
from repro.telemetry.plane import ObservabilityPlane, SLOConfig
from repro.workloads import build_nginx, build_vdso

#: fleet shape shared with the resilience experiment.
PROCESSES = 4
WORKERS = 2
RING_BYTES = 8192

#: sampler cadence in fleet-clock cycles.
INTERVAL = 5_000.0

RETRY = RetryPolicy(
    max_attempts=4,
    task_timeout=2_000.0,
    backoff_base=50.0,
    backoff_cap=400.0,
    hedge_delay=250.0,
)


def _build(sessions: int, faults=None, retry=None, seed: int = 0,
           inject_rop: bool = False):
    """One fleet, optionally with a mid-stream ROP in the first nginx."""
    service = build_fleet(
        0, WORKERS, sessions,
        policy=RingPolicy.LOSSY if faults is not None else RingPolicy.STALL,
        ring_bytes=RING_BYTES, seed=seed, faults=faults, retry=retry,
    )
    rop = None
    if inject_rop:
        recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
        rop = build_rop_request(recon)
    attacked_pid = None
    for index in range(PROCESSES):
        name = ("nginx", "exim")[index % 2]
        requests = list(server_requests(name, sessions))
        if index == 0 and rop is not None:
            requests.insert(len(requests) // 2, rop)
        proc = service.add_workload(server_pipeline(name), requests)
        if index == 0 and rop is not None:
            attacked_pid = proc.pid
    return service, attacked_pid


def _digest(result, service) -> str:
    """Everything a reader would call *the run's outcome*, hashed."""
    blob = json.dumps(
        {
            "schedule": result.schedule_digest,
            "verdicts": [
                (t.task_id, t.pid, t.kind, t.verdict)
                for t in service.dispatcher.tasks
            ],
            "quarantined": sorted(result.quarantined_pids),
            "detections": result.detections,
            "cycles": [
                round(result.makespan, 6),
                round(result.app_cycles, 6),
                round(result.monitor_cycles, 6),
                round(result.stall_cycles, 6),
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_scenario(
    sessions: int,
    faults=None,
    retry=None,
    seed: int = 0,
    inject_rop: bool = False,
    plane: bool = False,
    slo: Optional[SLOConfig] = None,
) -> dict:
    """One fleet run, uninstrumented or plane-attached, summarized."""
    tel = telemetry.get_telemetry()
    tel.reset()
    plane_obj = None
    if plane:
        plane_obj = ObservabilityPlane(
            interval=INTERVAL, sampler_capacity=256, slo=slo,
        )
        tel.attach_plane(plane_obj)
    else:
        tel.disable()
    try:
        service, attacked_pid = _build(
            sessions, faults=faults, retry=retry, seed=seed,
            inject_rop=inject_rop,
        )
        result = service.run()
        row: Dict[str, object] = {
            "digest": _digest(result, service),
            "tasks": result.tasks,
            "quarantined": sorted(result.quarantined_pids),
            "attacked_pid": attacked_pid,
            "makespan": result.makespan,
            "overhead": result.overhead,
            "lag_p99": result.lag["p99"],
            "accounting_exact": result.accounting["exact"],
        }
        if plane_obj is not None:
            ledger = (result.resilience or {}).get("ledger_reconcile") or {}
            row.update({
                "ledger_exact": ledger.get("exact", True),
                "slo": result.slo,
                "samples": plane_obj.sampler.taken,
                "flight_events": plane_obj.flight.seq,
                "dumps": len(plane_obj.flight.dumps),
                "plane_dump": plane_obj.to_dict(),
            })
    finally:
        if plane_obj is not None:
            tel.detach_plane()
        tel.disable()
    return row


def run(quick: bool = False) -> Dict[str, object]:
    sessions = 2 if quick else 3
    results: Dict[str, object] = {"quick": quick, "sessions": sessions}
    faults = FaultPlan.standard_mix(seed=42)

    # -- clean fleet: uninstrumented vs plane-attached --------------------
    clean_ref = _run_scenario(sessions)
    clean = _run_scenario(sessions, plane=True)
    results["scenarios"] = {
        "clean_reference": clean_ref,
        "clean_plane": clean,
    }

    # -- faulted fleet + planted ROP: same pairing ------------------------
    # The cached server pipelines are shared across runs and the first
    # slow-path excursion *promotes* verified ITC pairs back into them
    # (flowguard's clean-verdict feedback), so one throwaway faulted
    # run settles that state — the measured reference/plane pair must
    # differ by the plane alone.
    _run_scenario(sessions, faults=faults, retry=RETRY, inject_rop=True)
    faulted_ref = _run_scenario(
        sessions, faults=faults, retry=RETRY, inject_rop=True,
    )
    faulted = _run_scenario(
        sessions, faults=faults, retry=RETRY, inject_rop=True, plane=True,
    )
    results["scenarios"]["faulted_reference"] = faulted_ref
    results["scenarios"]["faulted_plane"] = faulted

    # -- psb_period ablation (recorded in the run report) ----------------
    tel = telemetry.get_telemetry()
    tel.reset()
    tel.disable()
    grid = sweep_psb_period(
        periods=(128, 1024) if quick else (128, 256, 1024),
        sessions=2 if quick else 4,
    )
    results["ablation"] = [asdict(p) for p in grid]

    # -- acceptance gates -------------------------------------------------
    faulted_burn = sum(
        o["budget_burn"] for o in faulted["slo"]["objectives"]
    )
    results["gates"] = {
        "clean_bit_identical": clean_ref["digest"] == clean["digest"],
        "faulted_bit_identical": faulted_ref["digest"] == faulted["digest"],
        "clean_slo_met": bool(clean["slo"]["met"]),
        "faulted_budget_burned": faulted_burn > 0.0,
        "faulted_dump_captured": faulted["dumps"] >= 1,
        "attack_quarantined": (
            faulted["attacked_pid"] in faulted["quarantined"]
        ),
        "reconciled_exact": all(
            row[k]
            for row in (clean, faulted)
            for k in ("accounting_exact", "ledger_exact")
        ),
    }
    return results


def gates_passed(results: Dict[str, object]) -> List[str]:
    """Names of the gates that failed (empty = all green)."""
    return [
        name for name, ok in results["gates"].items()
        if isinstance(ok, bool) and not ok
    ]


def format_table(results: Dict[str, object]) -> str:
    sections = []
    rows = []
    for key, row in results["scenarios"].items():
        slo = row.get("slo")
        rows.append([
            key,
            row["tasks"],
            len(row["quarantined"]),
            f"{row['overhead'] * 100:.1f}%",
            row.get("samples", "-"),
            row.get("dumps", "-"),
            ("met" if slo["met"] else f"burn {sum(o['budget_burn'] for o in slo['objectives']):.2f}")
            if slo else "-",
            row["digest"][:12],
        ])
    sections.append(
        f"Observability plane ({PROCESSES} processes / {WORKERS} workers, "
        f"sampler every {INTERVAL:.0f} cycles)\n"
        + format_rows(
            ["scenario", "tasks", "quar", "overhead", "samples",
             "dumps", "slo", "digest"],
            rows,
        )
    )
    sections.append(
        "psb_period sweep\n"
        + format_rows(
            ["period", "trace share", "overhead"],
            [[p["psb_period"],
              f"{p['trace_share'] * 100:.0f}%",
              f"{p['overhead'] * 100:.2f}%"]
             for p in results["ablation"]],
        )
    )
    gates = results["gates"]
    sections.append(
        "Gates: " + ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            if isinstance(ok, bool) else f"{name}={ok}"
            for name, ok in gates.items()
        )
    )
    return "\n\n".join(sections)
