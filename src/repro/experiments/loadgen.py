"""Load-generation acceptance: knee shape, SLO search, security under load.

The harness's contract has four legs, all gated by ``python -m repro
experiments loadgen`` (→ ``BENCH_loadgen.json``):

- **throughput shape** — the closed-loop connection sweep must grow
  monotonically (within tolerance) up to its saturation knee: more
  concurrency overlaps ring-stall and checker idle time until the one
  simulated CPU saturates.
- **search** — the max-throughput-under-SLO bisection must converge
  within its ⌈log2(range)⌉+1 probe budget, and two independently
  seeded searches over the same scenario must agree on the best
  connection count (the knee is a property of the system, not of one
  request sample).
- **security under load** — at the saturation point with planted ROP
  exploits, every attacked process must be quarantined with zero
  false quarantines, and two identical runs must produce bit-identical
  outcome digests (schedule + every verdict + the full request
  timeline).  A scenario-exact warm-up run settles the shared
  pipelines' promote state first — the first slow-path excursion
  around an attack feeds verified ITC pairs back into the cached
  pipeline, so run 0 legitimately differs from every run after it.
- **knee floor** — a full sweep's saturation knee must stay at or
  above :data:`~repro.experiments.trajectory.KNEE_FLOOR` req/Mcycle.
  A ``--quick`` sweep's knee is not comparable to the floor and is not
  judged.

A faulted, lossy-ring load point (telemetry on) and every sweep point
record whether their cycle and degradation ledgers reconcile; the
resilience and fleet-scale experiments gate those books on larger
fleets.  The written JSON is the ``kind: "loadgen-bench"`` payload
``repro report`` renders, extended with the extra scenarios and the
gates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro import telemetry
from repro.experiments.common import format_rows
from repro.experiments.trajectory import KNEE_FLOOR
from repro.loadgen import builtin_scenario, run_bench, slo_search
from repro.loadgen.engine import run_load_point, warm_pipelines
from repro.loadgen.search import probe_budget


def run(quick: bool = False) -> Dict[str, object]:
    base = builtin_scenario("nginx-closed")
    if quick:
        base = replace(base, sessions=2, connections_upper_bound=4)

    # -- sweep + knee + SLO search (the `repro bench` payload) ------------
    results: Dict[str, object] = dict(run_bench(base))
    results["quick"] = quick

    # -- search stability: an independently seeded second search ----------
    reseeded = base.with_seed(1)
    warm_pipelines(reseeded)
    results["search_seed1"] = slo_search(reseeded).to_dict()

    # -- saturation + attack: detection and bit-identity under load -------
    attack = replace(
        base,
        name=f"{base.name}+rop",
        attack_kind="rop",
        attack_count=1 if quick else 2,
    )
    saturation_c = attack.connections_upper_bound
    warm_pipelines(attack)
    results["saturation"] = {
        "connections": saturation_c,
        "attacks": attack.attack_count,
        "run_a": run_load_point(attack, saturation_c).to_dict(),
        "run_b": run_load_point(attack, saturation_c).to_dict(),
    }

    # -- faulted lossy-ring point, telemetry on (recorded books) ----------
    faulted = builtin_scenario("faulted-closed")
    faulted_c = 2 if quick else faulted.connections_upper_bound
    tel = telemetry.get_telemetry()
    tel.enable()
    try:
        faulted_point = run_load_point(faulted, faulted_c)
    finally:
        tel.disable()
    results["faulted"] = {
        "connections": faulted_c,
        "point": faulted_point.to_dict(),
    }

    results["gates"] = gates(results)
    return results


def gates(results: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    scenario = results["scenario"]
    search = results["search"]
    seed1 = results["search_seed1"]
    runs = (results["saturation"]["run_a"], results["saturation"]["run_b"])
    budget = probe_budget(
        scenario["connections_lower_bound"],
        scenario["connections_upper_bound"],
    )
    verdicts = {
        "throughput_monotone_to_knee": bool(results["monotone_to_knee"]),
        "search_converged": (
            bool(search["converged"])
            and search["probes"] <= budget
            and bool(seed1["converged"])
        ),
        "search_stable_across_seeds": (
            search["best_connections"] == seed1["best_connections"]
        ),
        "detection_under_load": all(
            r["detection_rate"] == 1.0 and r["false_quarantines"] == 0
            for r in runs
        ),
        "verdicts_bit_identical_under_load": (
            runs[0]["digest"] == runs[1]["digest"]
        ),
    }
    if not results["quick"]:
        verdicts["knee_at_or_above_floor"] = (
            results["knee"]["throughput"] >= KNEE_FLOOR
        )
    return verdicts


def format_table(results: Dict[str, object]) -> str:
    sections = []
    scenario = results["scenario"]
    sections.append(
        f"Load generation — {scenario['name']} ({scenario['mode']} loop, "
        f"SLO p{scenario['slo_percentile']:.0f} <= "
        f"{scenario['slo_latency']:,.0f} cycles)\n"
        + format_rows(
            ["conns", "offered", "done", "req/Mcyc", "p50", "p99",
             "overhead", "exact"],
            [[p["connections"], f"{p['offered_load']:.1f}",
              p["completed"], f"{p['throughput']:.1f}",
              f"{p['latency'].get('p50', 0.0):.0f}",
              f"{p['latency'].get('p99', 0.0):.0f}",
              f"{p['overhead'] * 100:.1f}%",
              "yes" if p["accounting_exact"] and p["ledger_exact"]
              else "NO"]
             for p in results["sweep"]],
        )
    )
    knee = results["knee"]
    search = results["search"]
    seed1 = results["search_seed1"]
    sections.append(
        f"knee: {knee['connections']} connections at "
        f"{knee['throughput']:.1f} req/Mcycle (floor {KNEE_FLOOR}, "
        f"{'not judged on a quick sweep' if results['quick'] else 'judged'})\n"
        f"search (seed {scenario['seed']}): best "
        f"{search['best_connections']} connections in "
        f"{search['probes']} probes; reseeded search (seed 1): best "
        f"{seed1['best_connections']} in {seed1['probes']} probes"
    )
    sat = results["saturation"]
    sections.append(
        f"saturation (+{sat['attacks']} rop @ {sat['connections']} "
        f"conns): detection {sat['run_a']['detection_rate']:.0%}, "
        f"{sat['run_a']['false_quarantines']} false quarantines, "
        f"digests {sat['run_a']['digest'][:12]} / "
        f"{sat['run_b']['digest'][:12]}\n"
        f"faulted ({results['faulted']['connections']} conns, lossy): "
        f"throughput {results['faulted']['point']['throughput']:.1f} "
        f"req/Mcycle, ledger "
        f"{'exact' if results['faulted']['point']['ledger_exact'] else 'DRIFT'}"
    )
    return "\n\n".join(sections)
