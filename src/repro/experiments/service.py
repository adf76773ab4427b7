"""Multi-tenant serving acceptance: isolation, reload, drain, quotas.

The serving front-end's contract has five legs, all gated by
``experiments/service.py`` (→ ``BENCH_service.json``):

- **tenant isolation** — a clean tenant served next to a noisy
  neighbor (the lossy ``faulted-closed`` scenario under a 0.5 quota)
  must produce a verdict digest *bit-identical* to its solo run, with
  identical latency percentiles, and none of the neighbor's
  degradation kinds in its ledger.  Isolation is structural (each
  tenant is a whole fleet stack), so the gate is equality, not a
  tolerance band.
- **hot reload** — a tenant that swaps a freshly built O-CFG/ITC-CFG
  pipeline version in mid-run must drop zero in-flight checks (every
  submitted check keeps its verdict), drain and retire the displaced
  version, and repeat bit-identically.
- **graceful drain** — a drain requested mid-run stops new rounds but
  applies every already-submitted check; streams end with a
  ``drained`` marker and the books still reconcile.
- **exact books under observability** — the full duo run with the
  plane attached must reconcile every tenant's cycle ledger and
  degradation ledger exactly.
- **admission control** — a capped tenant sheds exactly the sessions
  over its budget (one ``shed-load`` ledger event each), throttles
  show up only in the throttled tenant's books, and the loadgen knee
  recorded in ``BENCH_loadgen.json`` by a full sweep stays at or above
  the trajectory floor (serving must not have taxed the single-tenant
  path; a ``--quick`` sweep's knee is reported, not judged).
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Dict, List, Optional

from repro import telemetry
from repro.experiments.common import format_rows
from repro.experiments.trajectory import KNEE_FLOOR
from repro.loadgen import builtin_scenario
from repro.loadgen.engine import warm_pipelines
from repro.service import (
    ServeConfig,
    TenantSpec,
    TraceCheckService,
    builtin_serve_config,
    run_service,
)

#: fault kinds the noisy tenant's lossy scenario can emit — none of
#: which may ever appear in the clean tenant's ledger.
_FAULT_KINDS = (
    "corrupt-drain", "truncate-drain", "worker-crash", "worker-hang",
    "retry", "task-timeout", "hedge", "dead-letter",
)


def _drain_run(config: ServeConfig, after_yields: int):
    """Serve ``config`` with a drain requested after a few loop turns."""
    service = TraceCheckService(config)

    async def drive():
        async def trigger():
            for _ in range(after_yields):
                await asyncio.sleep(0)
            service.request_drain()
        result, _ = await asyncio.gather(
            service.serve(), trigger()
        )
        return result

    return service, asyncio.run(drive())


def run(
    quick: bool = False,
    loadgen_path: str = "BENCH_loadgen.json",
) -> Dict[str, object]:
    results: Dict[str, object] = {"kind": "service-bench", "quick": quick}

    # The shared pipeline cache promotes verified ITC pairs on first
    # use; settle it per scenario so measured runs differ only by what
    # is being measured (same warm-up the loadgen bench uses).
    warm_pipelines(builtin_scenario("smoke"))
    warm_pipelines(builtin_scenario("faulted-closed"))

    # -- isolation: clean tenant solo vs next to a noisy neighbor ---------
    duo_config = builtin_serve_config("duo-isolation")
    clean_spec = duo_config.tenants[0]
    solo = run_service(
        ServeConfig(name="solo-clean", tenants=(clean_spec,))
    )
    duo = run_service(duo_config)
    solo_clean = solo.tenants["clean"]
    duo_clean = duo.tenants["clean"]
    duo_noisy = duo.tenants["noisy"]
    results["isolation"] = {
        "solo_clean": solo_clean,
        "duo_clean": duo_clean,
        "duo_noisy": duo_noisy,
    }

    # -- hot reload: swap mid-run, drop nothing, repeat bit-identically ---
    reload_config = builtin_serve_config("reload")
    baseline_spec = TenantSpec(
        name=reload_config.tenants[0].name,
        scenario=reload_config.tenants[0].scenario,
        connections=reload_config.tenants[0].connections,
    )
    no_reload = run_service(
        ServeConfig(name="no-reload", tenants=(baseline_spec,))
    )
    reload_a = run_service(reload_config)
    reload_b = run_service(reload_config)
    results["reload"] = {
        "baseline": no_reload.tenants["rolling"],
        "run_a": reload_a.tenants["rolling"],
        "run_b": reload_b.tenants["rolling"],
    }

    # -- graceful drain ---------------------------------------------------
    drain_service, drain_result = _drain_run(
        builtin_serve_config("smoke"), after_yields=2
    )
    drain_report = drain_result.tenants["acme"]
    drain_markers = [
        events[-1]["type"] for events in drain_result.events.values()
    ]
    drain_verdicts = [
        sum(1 for e in events if e["type"] == "verdict")
        for events in drain_result.events.values()
    ]
    results["drain"] = {
        "drained": drain_result.drained,
        "markers": drain_markers,
        "verdict_events": drain_verdicts,
        "tenant": drain_report,
    }

    # -- exact books with the observability plane attached ----------------
    tel = telemetry.get_telemetry()
    tel.reset()
    from repro.telemetry.plane import ObservabilityPlane

    plane = ObservabilityPlane(interval=2000.0)
    tel.attach_plane(plane)
    try:
        observed = asyncio.run(
            TraceCheckService(duo_config, plane=plane).serve()
        )
    finally:
        tel.detach_plane()
        tel.disable()
    results["observed"] = {"tenants": observed.to_dict()["tenants"]}

    # -- admission control: shed + throttle accounting --------------------
    shed_config = builtin_serve_config("quota-shed")
    shed = run_service(shed_config)
    capped_spec = shed_config.tenants[1]
    # smoke drives sessions-per-connection sessions on each connection;
    # everything over the cap must be shed, exactly once each.
    offered_uncapped = (
        builtin_scenario(capped_spec.scenario).sessions
        * capped_spec.connections
    )
    results["quota"] = {
        "uncapped": shed.tenants["uncapped"],
        "capped": shed.tenants["capped"],
        "expected_shed": offered_uncapped - capped_spec.max_sessions,
    }

    # -- loadgen knee non-regression --------------------------------------
    results["loadgen_knee"] = loadgen_knee(loadgen_path)

    # -- acceptance gates -------------------------------------------------
    capped = shed.tenants["capped"]
    uncapped = shed.tenants["uncapped"]
    observed_tenants = results["observed"]["tenants"]
    results["gates"] = {
        "isolation_digest_bit_identical": (
            solo_clean["digest"] == duo_clean["digest"]
        ),
        "isolation_latency_unperturbed": (
            solo_clean["latency"] == duo_clean["latency"]
        ),
        "fault_domains_isolated": (
            not any(k in duo_clean["degradations"] for k in _FAULT_KINDS)
            and any(k in duo_noisy["degradations"] for k in _FAULT_KINDS)
            and duo_noisy["quota"]["throttles"] > 0
            and duo_clean["quota"]["throttles"] == 0
        ),
        "reload_zero_dropped": (
            reload_a.tenants["rolling"]["reloads"]["count"] >= 1
            and reload_a.tenants["rolling"]["dropped_checks"] == 0
            and reload_a.tenants["rolling"]["checks"]
            == no_reload.tenants["rolling"]["checks"]
            and reload_a.tenants["rolling"]["completed"]
            == reload_a.tenants["rolling"]["offered"]
        ),
        "reload_old_version_retired": (
            reload_a.tenants["rolling"]["reloads"]["undrained"] == 0
        ),
        "reload_deterministic": (
            reload_a.tenants["rolling"]["digest"]
            == reload_b.tenants["rolling"]["digest"]
        ),
        "drain_graceful": (
            drain_result.drained
            and all(marker == "drained" for marker in drain_markers)
            and drain_verdicts[0] == drain_report["checks"]
            and drain_report["dropped_checks"] == 0
            and drain_report["accounting_exact"]
            and drain_report["ledger_exact"]
        ),
        "ledgers_exact_under_plane": all(
            t["accounting_exact"] and t["ledger_exact"]
            for t in observed_tenants.values()
        ),
        "shed_accounted_exactly": (
            capped["shed"] == results["quota"]["expected_shed"]
            and capped["offered"] == capped_spec.max_sessions
            and capped["completed"] == capped_spec.max_sessions
            and uncapped["shed"] == 0
            and capped["quota"]["throttles"] > 0
            and uncapped["quota"]["throttles"] == 0
        ),
        "loadgen_knee_not_regressed": results["loadgen_knee"]["ok"],
    }
    return results


def loadgen_knee(path: str) -> Dict[str, object]:
    """Judge the knee in ``BENCH_loadgen.json`` against the committed
    floor.  Only a full sweep is judged: a ``--quick`` sweep's knee is
    not comparable to the floor (the rule ``trajectory.py`` applies)."""
    knee: Optional[float] = None
    quick = False
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        knee = float(data["knee"]["throughput"])
        quick = bool(data.get("quick", False))
    return {
        "path": path,
        "throughput": knee,
        "quick": quick,
        "floor": KNEE_FLOOR,
        "ok": knee is None or quick or knee >= KNEE_FLOOR,
    }


def gates_passed(results: Dict[str, object]) -> List[str]:
    """Names of the gates that failed (empty = all green)."""
    return [
        name for name, ok in results["gates"].items()
        if isinstance(ok, bool) and not ok
    ]


def format_table(results: Dict[str, object]) -> str:
    sections = []

    def tenant_rows(tenants: Dict[str, dict]) -> str:
        return format_rows(
            ["tenant", "scenario", "offered", "done", "shed", "p99",
             "throttles", "reloads", "burn", "digest", "exact"],
            [[name, t["scenario"], t["offered"], t["completed"],
              t["shed"], f"{t['latency'].get('p99', 0.0):.0f}",
              t["quota"]["throttles"], t["reloads"]["count"],
              f"{t['error_budget']['burn']:.2f}", t["digest"][:12],
              "yes" if t["accounting_exact"] and t["ledger_exact"]
              else "NO"]
             for name, t in tenants.items()],
        )

    iso = results["isolation"]
    sections.append(
        "Tenant isolation — clean next to a lossy, throttled neighbor\n"
        + tenant_rows({
            "clean(solo)": iso["solo_clean"],
            "clean(duo)": iso["duo_clean"],
            "noisy(duo)": iso["duo_noisy"],
        })
    )
    rel = results["reload"]
    sections.append(
        "Hot reload — fresh pipeline version swapped in mid-run\n"
        + tenant_rows({
            "no-reload": rel["baseline"],
            "reload(a)": rel["run_a"],
            "reload(b)": rel["run_b"],
        })
    )
    drain = results["drain"]
    sections.append(
        f"drain: markers={','.join(drain['markers'])} "
        f"verdict events={drain['verdict_events'][0]} "
        f"of {drain['tenant']['checks']} checks, "
        f"completed {drain['tenant']['completed']}/"
        f"{drain['tenant']['offered']} sessions\n"
        f"quota: capped shed {results['quota']['capped']['shed']} "
        f"(expected {results['quota']['expected_shed']}), "
        f"throttles {results['quota']['capped']['quota']['throttles']}; "
        f"uncapped shed {results['quota']['uncapped']['shed']}"
    )
    knee = results["loadgen_knee"]
    if knee["throughput"] is None:
        knee_line = "not measured (no BENCH_loadgen.json)"
    elif knee["quick"]:
        knee_line = (f"{knee['throughput']:.1f} req/Mcycle, "
                     "not comparable (quick sweep)")
    else:
        knee_line = (f"{knee['throughput']:.1f} req/Mcycle "
                     f"(floor {knee['floor']:.1f})")
    sections.append("loadgen knee: " + knee_line)
    sections.append(
        "Gates: " + ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in results["gates"].items()
        )
    )
    return "\n\n".join(sections)
