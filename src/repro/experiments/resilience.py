"""Resilience under fault injection: detection, degradation, recovery.

Four deterministic scenarios over the :mod:`repro.resilience` plane,
all judged by :func:`gates` (``python -m repro experiments
resilience`` → ``BENCH_resilience.json``), on the fault fleet
:func:`~repro.experiments.fleet_scaling.build_fault_fleet` builds:

- **baseline** — the fault-free fleet the faulted runs are judged
  against (same workload, same shape, no plan armed).
- **faulted** — the same fleet under the standard fault mix (corrupt /
  truncated drains, dropped and delayed PMIs, crashing and hanging
  checker workers, fast-path decode errors).  Gates: no clean process
  is ever quarantined (graceful degradation, not false positives), the
  fleet finishes (degrades, never wedges), p99 verdict lag stays within
  ``LAG_BOUND``× the fault-free baseline, and every ledger — fleet
  cycle accounting, the degradation ledger's wasted cycles vs the
  dispatcher's ``retry_cycles`` — reconciles exactly.
- **dead letter** — a scheduled fault kills every retry of one check;
  the task must be dead-lettered (never silently dropped) and the
  policy's fail-closed quarantine must isolate the unverifiable
  process while the rest of the fleet completes.
- **detection** — the fleet runs with an injected ROP exploit *and*
  the fault mix armed, across several fault seeds.  Gate: 100% of the
  attacked processes are quarantined (faults never mask an attack —
  the corrupt-segment re-sync never stitches a window across a gap,
  and drain re-reads recover the true bytes), with zero false
  positives on the clean processes.

A solo-monitor scenario rides along: one protected server under the
same mix, whose monitor must report no detections.
"""

from __future__ import annotations

from typing import Dict, List

from repro import telemetry
from repro.experiments.common import format_rows, run_server, server_requests
from repro.experiments.fleet_scaling import (
    FAULT_PROCESSES,
    FAULT_RETRY,
    FAULT_WORKERS,
    build_fault_fleet,
)
from repro.resilience import FaultPlan, FaultSite

#: p99 verdict lag under faults may grow at most this much over the
#: fault-free baseline (the graceful-degradation latency gate).
LAG_BOUND = 3.0


def _row(result) -> dict:
    resilience = result.resilience or {}
    ledger = resilience.get("ledger_reconcile") or {}
    return {
        "processes": len(result.processes),
        "workers": result.config.workers,
        "tasks": result.tasks,
        "quarantined": len(result.quarantines),
        "dead_letters": len(result.dead_letters or []),
        "finished": all(
            p["state"] in ("exited", "killed") for p in result.processes
        ),
        "rounds": result.rounds,
        "makespan": result.makespan,
        "lag_p50": result.lag["p50"],
        "lag_p99": result.lag["p99"],
        "overhead": result.overhead,
        "accounting_exact": result.accounting["exact"],
        "ledger_exact": ledger.get("exact", True),
        "degradations": (resilience.get("degradations") or {}).get(
            "counts", {}
        ),
        "faults_fired": (resilience.get("faults") or {}).get("fired", {}),
    }


def run(quick: bool = False) -> Dict[str, object]:
    sessions = 2 if quick else 3
    seeds = (42, 1337) if quick else (42, 1337, 2024)
    results: Dict[str, object] = {"quick": quick, "sessions": sessions}
    tel = telemetry.get_telemetry()
    enabled_here = not tel.enabled
    if enabled_here:
        tel.enable()
    try:
        # -- baseline: same fleet, no faults ------------------------------
        tel.reset()
        service, _ = build_fault_fleet(sessions)
        results["baseline"] = _row(service.run())

        # -- faulted: standard mix over the identical workload ------------
        tel.reset()
        service, _ = build_fault_fleet(
            sessions, faults=FaultPlan.standard_mix(seed=42),
            retry=FAULT_RETRY,
        )
        faulted = _row(service.run())
        base_p99 = max(results["baseline"]["lag_p99"], 1.0)
        faulted["lag_p99_ratio"] = faulted["lag_p99"] / base_p99
        results["faulted"] = faulted

        # -- dead letter: one check's every retry is killed ---------------
        tel.reset()
        plan = FaultPlan(
            seed=7,
            worker_crash=FaultSite(
                at=tuple(range(FAULT_RETRY.max_attempts))
            ),
        )
        service, _ = build_fault_fleet(
            sessions, faults=plan, retry=FAULT_RETRY,
        )
        dl_result = service.run()
        dl = _row(dl_result)
        dl["quarantine_reasons"] = [
            e.reason for e in dl_result.quarantines
        ]
        results["dead_letter"] = dl

        # -- detection: injected ROP under faults, several seeds ----------
        detection_rows: List[dict] = []
        for seed in seeds:
            tel.reset()
            service, attacked_pid = build_fault_fleet(
                sessions, faults=FaultPlan.standard_mix(seed=seed),
                retry=FAULT_RETRY, inject_rop=True,
            )
            result = service.run()
            row = _row(result)
            row["seed"] = seed
            row["attacked_pid"] = attacked_pid
            row["detected"] = attacked_pid in result.quarantined_pids
            row["false_positives"] = sum(
                1 for e in result.quarantines if e.pid != attacked_pid
            )
            detection_rows.append(row)
        results["detection"] = detection_rows

        # -- solo monitor under the same mix ------------------------------
        tel.reset()
        solo = run_server(
            "exim", server_requests("exim", sessions), protected=True,
            faults=FaultPlan.standard_mix(seed=42),
        )
        assert solo.monitor is not None
        ledger = solo.monitor.degradations
        results["solo"] = {
            "server": "exim",
            "detections": len(solo.monitor.detections),
            "degradations": ledger.counts(),
            "faults_fired": (
                solo.monitor.fault_injector.stats()["fired"]
                if solo.monitor.fault_injector is not None else {}
            ),
            "overhead": solo.overhead,
        }
    finally:
        if enabled_here:
            tel.disable()

    detection = results["detection"]
    results["detection_rate"] = (
        sum(1 for r in detection if r["detected"]) / len(detection)
    )
    results["false_positives"] = (
        sum(r["false_positives"] for r in detection)
        + results["faulted"]["quarantined"]
        + results["solo"]["detections"]
    )
    results["lag_bound"] = LAG_BOUND
    results["gates"] = gates(results)
    return results


def gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    detection = results["detection"]
    dl = results["dead_letter"]
    faulted = results["faulted"]
    return {
        "all_attacks_detected": results["detection_rate"] == 1.0,
        "no_false_positives": results["false_positives"] == 0,
        "dead_letters_quarantined": (
            dl["dead_letters"] > 0
            and dl["quarantined"] == dl["dead_letters"]
            and all(
                "dead-letter" in (r or "")
                for r in dl["quarantine_reasons"]
            )
        ),
        "never_wedged": all(
            results[k]["finished"]
            for k in ("baseline", "faulted", "dead_letter")
        ) and all(r["finished"] for r in detection),
        "lag_within_bound": faulted["lag_p99_ratio"] <= LAG_BOUND,
        "ledgers_exact": all(
            row["accounting_exact"] and row["ledger_exact"]
            for row in [results["baseline"], faulted, dl] + detection
        ),
    }


def format_table(results: Dict[str, object]) -> str:
    sections = []
    headers = ["scenario", "tasks", "quar", "dead", "lag p99",
               "overhead", "ledgers"]
    rows = []
    for key in ("baseline", "faulted", "dead_letter"):
        row = results[key]
        rows.append([
            key,
            row["tasks"],
            row["quarantined"],
            row["dead_letters"],
            row["lag_p99"],
            row["overhead"],
            "exact" if (
                row["accounting_exact"] and row["ledger_exact"]
            ) else "DRIFT",
        ])
    for row in results["detection"]:
        rows.append([
            f"attack(seed={row['seed']})",
            row["tasks"],
            row["quarantined"],
            row["dead_letters"],
            row["lag_p99"],
            row["overhead"],
            "exact" if (
                row["accounting_exact"] and row["ledger_exact"]
            ) else "DRIFT",
        ])
    sections.append(
        "Resilience under fault injection "
        f"({FAULT_PROCESSES} processes / {FAULT_WORKERS} workers, "
        "lossy rings)\n"
        + format_rows(headers, rows)
    )
    faulted = results["faulted"]
    degr = ", ".join(
        f"{k}={v}" for k, v in sorted(faulted["degradations"].items())
    )
    sections.append(f"Faulted-run degradations: {degr or 'none'}")
    sections.append(
        f"detection {results['detection_rate']:.0%}, "
        f"false positives {results['false_positives']}, "
        f"p99 lag ratio {faulted['lag_p99_ratio']:.2f} "
        f"(bound {results['lag_bound']:.1f})"
    )
    return "\n\n".join(sections)
