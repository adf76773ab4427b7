"""Multi-tenant serving acceptance: isolation, reload, drain, quotas.

``python -m repro experiments service`` (→ ``BENCH_service.json``) runs
the serving front-end's five scenarios and records every tenant report
for the run report:

- **tenant isolation** — a clean tenant served solo and next to a
  noisy neighbor (the lossy ``faulted-closed`` scenario under a 0.5
  quota).  Isolation is structural (each tenant is a whole fleet
  stack), so the digests and latency percentiles must be equal, not
  within a band.
- **hot reload** — a tenant swaps a freshly built O-CFG/ITC-CFG
  pipeline version in mid-run, twice, next to a no-reload baseline.
- **graceful drain** — a drain requested mid-run stops new rounds but
  applies every already-submitted check.
- **books under observability** — the duo run with the plane attached.
- **admission control** — a capped tenant sheds the sessions over its
  budget (one ``shed-load`` ledger event each).

Two gates judge what no other check covers: the reload keeps every
check a no-reload run makes (``reload_zero_dropped``), and the capped
tenant completes exactly its budget while throttles stay in the
throttled tenant's books (``shed_accounted_exactly``).  The tier-1
serving tests assert the isolation, reload-retirement, determinism and
drain properties on the same builtin configs; DESIGN.md's gate
inventory lists where each property is gated.
"""

from __future__ import annotations

from typing import Dict

from repro import telemetry
from repro.experiments.common import format_rows
from repro.loadgen import builtin_scenario
from repro.loadgen.engine import warm_pipelines
from repro.service import (
    ServeConfig,
    TenantSpec,
    TraceCheckService,
    builtin_serve_config,
    run_service,
)


def _drain_run(config: ServeConfig, after_rounds: int):
    """Serve ``config`` with a drain requested after a few rounds."""
    service = TraceCheckService(config)
    for _ in range(after_rounds):
        service.step()
    service.request_drain()
    return service.serve()


def run(quick: bool = False) -> Dict[str, object]:
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
    drain_result = _drain_run(
        builtin_serve_config("smoke"), after_rounds=2
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
        observed = TraceCheckService(duo_config, plane=plane).serve()
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

    results["gates"] = gates(results)
    return results


def gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    reload_a = results["reload"]["run_a"]
    capped = results["quota"]["capped"]
    uncapped = results["quota"]["uncapped"]
    budget = builtin_serve_config("quota-shed").tenants[1].max_sessions
    return {
        "reload_zero_dropped": (
            reload_a["reloads"]["count"] >= 1
            and reload_a["dropped_checks"] == 0
            and reload_a["checks"] == results["reload"]["baseline"]["checks"]
            and reload_a["completed"] == reload_a["offered"]
        ),
        "shed_accounted_exactly": (
            capped["shed"] == results["quota"]["expected_shed"]
            and capped["offered"] == budget
            and capped["completed"] == budget
            and uncapped["shed"] == 0
            and capped["quota"]["throttles"] > 0
            and uncapped["quota"]["throttles"] == 0
        ),
    }


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
    return "\n\n".join(sections)
