"""Resilience under fault injection: detection, degradation, recovery.

Four deterministic scenarios over the :mod:`repro.resilience` plane,
all asserted by ``experiments/resilience.py`` (→ ``BENCH_resilience.json``)
and ``tests/test_resilience.py``:

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
from repro.attacks import build_rop_request, run_recon
from repro.experiments.common import (
    format_rows,
    libraries,
    run_server,
    server_pipeline,
    server_requests,
)
from repro.experiments.fleet_scaling import build_fleet
from repro.fleet.rings import RingPolicy
from repro.resilience import FaultPlan, FaultSite, RetryPolicy
from repro.workloads import build_nginx, build_vdso

#: p99 verdict lag under faults may grow at most this much over the
#: fault-free baseline (the graceful-degradation latency gate).
LAG_BOUND = 3.0

#: fleet shape shared by every scenario (lossy rings: the fault mix
#: includes dropped PMIs, which only degrade meaningfully when the
#: ring is allowed to wrap).
PROCESSES = 4
WORKERS = 2
RING_BYTES = 8192

#: retry policy for the probabilistic scenarios: enough attempts that
#: the standard mix never exhausts them (dead-lettering is exercised
#: by its own scheduled scenario, not left to chance).  The watchdog
#: is a small multiple of a typical check cost, and hung attempts are
#: hedged after ``hedge_delay`` cycles rather than waited out — the
#: two knobs that keep the p99 verdict-lag gate bounded.
RETRY = RetryPolicy(
    max_attempts=4,
    task_timeout=2_000.0,
    backoff_base=50.0,
    backoff_cap=400.0,
    hedge_delay=250.0,
)


def _fleet(sessions: int, faults=None, retry=None,
           seed: int = 0, processes: int = PROCESSES):
    return build_fleet(
        processes, WORKERS, sessions,
        policy=RingPolicy.LOSSY, ring_bytes=RING_BYTES,
        seed=seed, faults=faults, retry=retry,
    )


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


def _attack_fleet(sessions: int, faults, retry, seed: int):
    """The detection scenario: one nginx instance gets a mid-stream
    ROP exploit; everyone else serves clean sessions."""
    # processes=0: build_fleet seeds the filesystem but leaves the
    # fleet empty — we add the workloads ourselves to plant the rop
    # payload mid-stream in the first instance.
    service = _fleet(sessions, faults=faults, retry=retry,
                     seed=seed, processes=0)
    recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
    rop = build_rop_request(recon)
    attacked_pid = None
    for index in range(PROCESSES):
        name = ("nginx", "exim")[index % 2]
        requests = list(server_requests(name, sessions))
        if index == 0:
            requests.insert(len(requests) // 2, rop)
        proc = service.add_workload(server_pipeline(name), requests)
        if index == 0:
            attacked_pid = proc.pid
    return service, attacked_pid


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
        service = _fleet(sessions)
        results["baseline"] = _row(service.run())

        # -- faulted: standard mix over the identical workload ------------
        tel.reset()
        service = _fleet(
            sessions, faults=FaultPlan.standard_mix(seed=42), retry=RETRY,
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
                at=tuple(range(RETRY.max_attempts))
            ),
        )
        service = _fleet(sessions, faults=plan, retry=RETRY)
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
            service, attacked_pid = _attack_fleet(
                sessions, FaultPlan.standard_mix(seed=seed), RETRY, seed,
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

    # -- acceptance gates -------------------------------------------------
    detection = results["detection"]
    dl = results["dead_letter"]
    faulted = results["faulted"]
    results["gates"] = {
        "detection_rate": (
            sum(1 for r in detection if r["detected"]) / len(detection)
        ),
        "false_positives": (
            sum(r["false_positives"] for r in detection)
            + faulted["quarantined"]
            + results["solo"]["detections"]
        ),
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
        "lag_p99_ratio": faulted["lag_p99_ratio"],
        "lag_bound": LAG_BOUND,
        "lag_within_bound": faulted["lag_p99_ratio"] <= LAG_BOUND,
        "ledgers_exact": all(
            row["accounting_exact"] and row["ledger_exact"]
            for row in (
                [results["baseline"], faulted, dl] + detection
            )
        ),
    }
    return results


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
        f"({PROCESSES} processes / {WORKERS} workers, lossy rings)\n"
        + format_rows(headers, rows)
    )
    faulted = results["faulted"]
    degr = ", ".join(
        f"{k}={v}" for k, v in sorted(faulted["degradations"].items())
    )
    sections.append(f"Faulted-run degradations: {degr or 'none'}")
    gates = results["gates"]
    sections.append(
        "Gates: "
        f"detection {gates['detection_rate']:.0%}, "
        f"false positives {gates['false_positives']}, "
        f"dead letters quarantined "
        f"{'yes' if gates['dead_letters_quarantined'] else 'NO'}, "
        f"p99 ratio {gates['lag_p99_ratio']:.2f} "
        f"(bound {gates['lag_bound']:.1f}), "
        f"ledgers {'exact' if gates['ledgers_exact'] else 'DRIFT'}, "
        f"wedged {'never' if gates['never_wedged'] else 'YES'}"
    )
    return "\n\n".join(sections)
