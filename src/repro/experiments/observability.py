"""Observability-plane acceptance: transparency, verdicts, exactness.

The plane's contract has three legs, judged by :func:`gates`
(``python -m repro experiments observability`` →
``BENCH_observability.json``) on the fault fleet
:func:`~repro.experiments.fleet_scaling.build_fault_fleet` builds:

- **transparency** — attaching the plane must not perturb the run.
  Each scenario executes twice, uninstrumented (telemetry fully off)
  and with the plane attached; the verdict digests (schedule digest +
  every task's verdict + quarantined pids + cycle totals) must be
  bit-identical.
- **verdicts** — a clean fleet run must meet every stock SLO; a
  fault-injected run with a planted ROP exploit must burn
  ``degradation-free`` error budget and capture at least one
  flight-recorder dump (the VIOLATION auto-dump).
- **exactness** — the plane keeps no count of its own to audit: its
  views are written in the same calls as the stats and the ledger.
  Each run records whether its cycle accounting and degradation ledger
  reconcile; since the plane changes no verdict or cycle total (the
  transparency leg), those books are gated once, on the same fleet
  without the plane, by the resilience experiment.

A quick ``psb_period`` sweep rides along so the run report can chart
the trace-granularity tradeoff.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional

from repro import telemetry
from repro.experiments.ablations import sweep_psb_period
from repro.experiments.common import format_rows
from repro.experiments.fleet_scaling import (
    FAULT_PROCESSES,
    FAULT_RETRY,
    FAULT_WORKERS,
    build_fault_fleet,
)
from repro.fleet.rings import RingPolicy
from repro.loadgen.engine import outcome_digest
from repro.resilience import FaultPlan
from repro.telemetry.plane import ObservabilityPlane, SLOConfig

#: sampler cadence in fleet-clock cycles.
INTERVAL = 5_000.0


def _run_scenario(
    sessions: int,
    faults=None,
    retry=None,
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
        service, attacked_pid = build_fault_fleet(
            sessions, faults=faults, retry=retry,
            policy=(
                RingPolicy.LOSSY if faults is not None
                else RingPolicy.STALL
            ),
            inject_rop=inject_rop,
        )
        result = service.run()
        row: Dict[str, object] = {
            "digest": outcome_digest(result, service),
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
    attack = dict(faults=faults, retry=FAULT_RETRY, inject_rop=True)
    _run_scenario(sessions, **attack)
    faulted_ref = _run_scenario(sessions, **attack)
    faulted = _run_scenario(sessions, plane=True, **attack)
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

    results["gates"] = gates(results)
    return results


def gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    scenarios = results["scenarios"]
    clean = scenarios["clean_plane"]
    faulted = scenarios["faulted_plane"]
    return {
        "clean_bit_identical": (
            scenarios["clean_reference"]["digest"] == clean["digest"]
        ),
        "faulted_bit_identical": (
            scenarios["faulted_reference"]["digest"] == faulted["digest"]
        ),
        "clean_slo_met": bool(clean["slo"]["met"]),
        "faulted_budget_burned": sum(
            o["budget_burn"] for o in faulted["slo"]["objectives"]
        ) > 0.0,
        "faulted_dump_captured": faulted["dumps"] >= 1,
    }


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
        f"Observability plane ({FAULT_PROCESSES} processes / "
        f"{FAULT_WORKERS} workers, "
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
    return "\n\n".join(sections)
