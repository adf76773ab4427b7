"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments [names...] [--quick]`` — regenerate paper
  tables/figures and run the gated beyond-paper experiments (default:
  all).  Names: table1, sec2, table4, table5, fig5a, fig5b, fig5c,
  fig5d, micro, hwext, security, ablations, and the gated fleet,
  fleet-scale, resilience, observability, loadgen and service.  A
  gated experiment writes ``BENCH_<name>.json``
  and the command exits 1 naming every gate that is not ``True``;
  ``--quick`` shrinks them for smoke runs.
- ``attack [rop|srop|retlib|flushing]`` — run one
  attack unprotected and under FlowGuard.
- ``serve <server> [-n N] [--seed N] [--unprotected]``
  — drive a protected server with N client sessions and print the
  monitor report; ``--seed`` switches the constant legacy workload to
  the load generator's deterministic ``varied`` request mix.
- ``bench [--scenario REF] [--seed N] [--json] [--out F]`` — the
  closed-loop load-generation harness (see :mod:`repro.loadgen`):
  sweep connection counts, find the saturation knee, then
  binary-search the max throughput whose latency percentile still
  meets the scenario's SLO.  ``REF`` is a builtin scenario name or a
  JSON file; ``--out`` writes the ``repro report``-renderable payload.
- ``fuzz <server> [--budget N]`` — run the miniature AFL campaign and
  report discovered paths.
- ``disasm <server|utility|spec-name>`` — dump a workload's entry
  function as assembly text.
- ``stats <server> [-n N]
  [--faults PLAN] [--fault-seed N] [--plane] [--slo FILE]
  [--plane-out F] [--sample-interval N] [--trace-out F]
  [--spans-out F]`` —
  run a protected server with telemetry enabled and dump the
  versioned :class:`~repro.stats_report.StatsReport` (JSON), exiting
  1 if the degradation ledger drifts.
  ``--plane`` attaches the observability plane: the report gains the
  v3 ``slo`` section and the run exits 1 if the plane's own
  exact-accounting audit drifts; ``--plane-out`` writes the full
  plane dump (a ``repro report`` input).
- ``fleet [--processes N] [--workers M] [--policy stall|lossy]
  [--faults PLAN] [--fault-seed N]`` —
  time-slice N protected server processes against M checker workers,
  optionally injecting a ROP attack into one of them
  (``--inject-rop``); exits non-zero if the cycle ledger drifts or an
  injected attack goes unquarantined.
- ``top [fleet flags] [--scenario REF] [--once] [--refresh K]
  [--sample-interval N] [--slo FILE] [--plane-out F]`` — the live
  fleet view: runs a fleet with the observability plane attached and
  renders a frame (per-pid checker lag, worker utilization, SLO
  budget burn, flight-recorder tail) every K samples — or
  just the final frame with ``--once``.  ``--scenario`` runs a
  loadgen scenario at its upper connection bound instead of the
  fleet-shape flags, adding live offered-load / achieved-throughput /
  SLO-headroom rows to every frame.  Exit codes mirror ``fleet``'s
  gates plus the plane's exact-accounting audit.
- ``report <input.json> [-o F] [--format markdown|html]`` — render a
  self-contained run report from a plane dump (``--plane-out``), a
  ``BENCH_observability.json``, or a StatsReport v3 payload.

Shared option groups (implemented as argparse parent parsers, defined
once): the fault-injection flags (``--faults`` loads a
JSON :class:`~repro.resilience.FaultPlan`; ``--fault-seed`` reseeds it,
or arms the standard mix when no plan file is given), and the trace
exports (``--trace-out`` writes a Chrome ``chrome://tracing``
trace-event file, ``--spans-out`` raw JSON-lines spans).

A config file or builtin name that cannot be loaded (``--faults``,
``--slo``, ``--scenario``, ``--serve-config``, ``--config``) ends the
command with one ``<command>: <error>`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import __version__
from repro.configio import ConfigError


def _export_trace(tracer, args: argparse.Namespace) -> None:
    """Honor --trace-out/--spans-out if the subcommand defines them."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        count = tracer.export_chrome(trace_out)
        print(f"[trace: {count} spans -> {trace_out}]", file=sys.stderr)
    spans_out = getattr(args, "spans_out", None)
    if spans_out:
        count = tracer.export_jsonl(spans_out)
        print(f"[spans: {count} spans -> {spans_out}]", file=sys.stderr)


class _Experiment(NamedTuple):
    """One ``repro experiments`` entry: ``run(quick)`` makes the
    results ``render`` prints.  A gated run's results carry the
    module's ``gates(results)`` under ``"gates"``; the runner writes
    them to ``BENCH_<name>.json`` and judges them."""

    run: Callable[[bool], object]
    render: Callable[[object], str]
    gated: bool = False


def _experiments() -> Dict[str, _Experiment]:
    from repro.experiments import (
        ablations,
        fig5a,
        fig5b,
        fig5c,
        fig5d,
        fleet_scaling,
        hwext_breakdown,
        loadgen,
        micro,
        observability,
        resilience,
        sec2_decode,
        security,
        service,
        table1,
        table4,
        table5,
    )

    def paper(module) -> _Experiment:
        return _Experiment(lambda quick: module.run(), module.format_table)

    def gated(run, render) -> _Experiment:
        return _Experiment(run, render, gated=True)

    return {
        "table1": paper(table1),
        "sec2": paper(sec2_decode),
        "table4": paper(table4),
        "table5": paper(table5),
        "fig5a": paper(fig5a),
        "fig5b": paper(fig5b),
        "fig5c": paper(fig5c),
        "fig5d": paper(fig5d),
        "micro": paper(micro),
        "hwext": paper(hwext_breakdown),
        "security": paper(security),
        "ablations": _Experiment(
            lambda quick: None, lambda _: ablations.format_all()
        ),
        "fleet": gated(fleet_scaling.run, fleet_scaling.format_table),
        "fleet-scale": gated(
            fleet_scaling.run_scale, fleet_scaling.format_scale_table
        ),
        "resilience": gated(resilience.run, resilience.format_table),
        "observability": gated(
            observability.run, observability.format_table
        ),
        "loadgen": gated(loadgen.run, loadgen.format_table),
        "service": gated(service.run, service.format_table),
    }


def _judge(name: str, results: dict) -> List[str]:
    """Write a gated run's ``BENCH_<name>.json``; return the names of
    its gates whose value is not ``True`` (a number or ``None`` fails,
    never passes)."""
    from pathlib import Path

    out = Path(f"BENCH_{name.replace('-', '_')}.json")
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"[wrote {out}]")
    gates = results["gates"]
    print("gates: " + ", ".join(
        f"{gate}={'ok' if value is True else 'FAIL'}"
        for gate, value in gates.items()
    ))
    failed = [gate for gate, value in gates.items() if value is not True]
    for gate in failed:
        print(f"FAIL: {name} gate {gate} = {gates[gate]!r}",
              file=sys.stderr)
    return failed


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro import telemetry

    registry = _experiments()
    names = args.names or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2
    tel = telemetry.get_telemetry()
    enabled_here = bool(args.trace_out or args.spans_out) and not tel.enabled
    if enabled_here:
        tel.enable()
    failed = []
    try:
        for name in names:
            experiment = registry[name]
            # Wall-clock timing flows through the tracer, the same code
            # path the trace exports read.
            with tel.tracer.span("experiment", experiment=name) as span:
                results = experiment.run(args.quick)
                print(f"\n{experiment.render(results)}")
            print(f"[{name}: {span.duration_s:.1f}s]")
            if experiment.gated:
                failed += _judge(name, results)
        _export_trace(tel.tracer, args)
    finally:
        if enabled_here:
            tel.disable()
    return 1 if failed else 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks import (
        build_flushing_request,
        build_retlib_request,
        build_rop_request,
        build_srop_request,
        run_recon,
    )
    from repro.attacks.rop import ATTACK_PATH
    from repro.osmodel import Kernel, Sys
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import (
        build_libsim, build_nginx, build_vdso, nginx_request,
    )

    builders = {
        "rop": build_rop_request,
        "srop": build_srop_request,
        "retlib": build_retlib_request,
        "flushing": build_flushing_request,
    }
    libs = {"libsim.so": build_libsim()}
    recon = run_recon(build_nginx(), libs, vdso=build_vdso())
    request = builders[args.kind](recon)

    kernel = Kernel()
    kernel.register_program("nginx", build_nginx(), libs,
                            vdso=build_vdso())
    proc = kernel.spawn("nginx")
    proc.push_connection(request)
    kernel.run(proc)
    pwned = kernel.fs.exists(ATTACK_PATH.decode())
    print(f"unprotected: {'EXPLOITED' if pwned or proc.stdout else 'no effect'}")

    pipeline = FlowGuardPipeline.offline(
        "nginx", build_nginx(), libs, vdso=build_vdso(),
        corpus=[nginx_request("/index.html")], mode="socket",
    )
    kernel = Kernel()
    monitor, proc = pipeline.deploy(kernel)
    proc.push_connection(request)
    kernel.run(proc)
    if monitor.detections:
        det = monitor.detections[0]
        print(f"FlowGuard:   DETECTED at {Sys(det.syscall_nr).name.lower()} "
              f"({det.path} path): {det.reason}")
        return 0
    print("FlowGuard:   NOT DETECTED")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.experiments.common import (
        run_server, seed_server_fs, server_requests,
    )

    tel = telemetry.get_telemetry()
    enabled_here = bool(args.trace_out or args.spans_out) and not tel.enabled
    if enabled_here:
        tel.enable()
    try:
        run = run_server(
            args.server,
            server_requests(args.server, args.sessions, seed=args.seed),
            protected=not args.unprotected,
        )
        print(f"{args.server}: served with exit code {run.proc.exit_code}, "
              f"{run.proc.executor.insn_count} instructions, "
              f"{run.app_cycles:.0f} app cycles")
        if run.stats is not None:
            stats = run.stats
            print(f"monitor: {stats.checks} checks, "
                  f"{stats.slow_path_runs} slow-path runs, "
                  f"overhead {run.overhead * 100:.2f}% "
                  f"(trace {stats.trace_cycles:.0f} / decode "
                  f"{stats.decode_cycles:.0f} / check "
                  f"{stats.check_cycles:.0f} / other "
                  f"{stats.other_cycles:.0f})")
        _export_trace(tel.tracer, args)
    finally:
        if enabled_here:
            tel.disable()
    return 0


def _faults_from_args(args: argparse.Namespace):
    """The fault plan the shared ``--faults``/``--fault-seed`` flags
    describe: a JSON plan file, optionally reseeded — or the standard
    mix when only a seed is given.  None = fault-free."""
    plan = None
    if getattr(args, "faults", None):
        from repro.api import FaultPlan

        plan = FaultPlan.load(args.faults)
        if args.fault_seed is not None:
            plan = plan.with_seed(args.fault_seed)
    elif getattr(args, "fault_seed", None) is not None:
        from repro.api import FaultPlan

        plan = FaultPlan.standard_mix(seed=args.fault_seed)
    return plan


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a protected server under full telemetry and dump the
    StatsReport."""
    from repro import telemetry
    from repro.api import StatsReport, run_workload

    faults = _faults_from_args(args)
    tel = telemetry.get_telemetry()
    tel.reset()
    plane = _plane_from_args(args)
    if plane is not None:
        tel.attach_plane(plane)
    else:
        tel.enable()
    try:
        run = run_workload(
            args.server,
            sessions=args.sessions,
            protected=True,
            faults=faults,
        )
        assert run.monitor is not None and run.stats is not None
        slo = None
        if plane is not None:
            # Solo runs have no fleet clock: close the sampler on the
            # process's own cycle count.
            plane.finalize(run.proc.executor.cycles)
            slo = plane.slo_report()
            if args.plane_out:
                plane.export(args.plane_out)
                print(f"[plane dump -> {args.plane_out}]", file=sys.stderr)
        payload = StatsReport.from_monitor(
            run.monitor,
            telemetry=tel.snapshot(),
            slo=slo,
            server=args.server,
            sessions=args.sessions,
        ).to_dict()
        _export_trace(tel.tracer, args)
    finally:
        if plane is not None:
            tel.detach_plane()
        tel.disable()
    json.dump(payload, sys.stdout, indent=2, default=str)
    print()
    return 0


def _books_drift(result) -> bool:
    """Print the first of a run's independent audits that drifts.

    A fleet run has two: its cycle accounting (the worker ledger
    against ``MonitorStats``) and its degradation ledger's wasted
    cycles against the dispatcher's ``retry_cycles``.  A service run
    (``ServiceResult``) holds both verdicts per tenant.
    """
    drift = None
    tenants = getattr(result, "tenants", None)
    if tenants is not None:
        inexact = [
            name for name, t in tenants.items()
            if not (t["accounting_exact"] and t["ledger_exact"])
        ]
        if inexact:
            drift = f"tenant ledger(s) do NOT reconcile: {', '.join(inexact)}"
    elif not result.accounting["exact"]:
        drift = "fleet cycle ledger does NOT reconcile with MonitorStats"
    else:
        ledger = (result.resilience or {}).get("ledger_reconcile")
        if ledger is not None and not ledger["exact"]:
            drift = ("degradation ledger does NOT reconcile with the "
                     "dispatcher's retry cycles")
    if drift is not None:
        print(drift, file=sys.stderr)
    return drift is not None


def _build_fleet_service(args: argparse.Namespace):
    """The fleet the shared fleet-shape flags describe, workloads
    loaded; returns ``(service, config, attacked_pid)``.  Shared by
    ``fleet`` and ``top``."""
    import random

    from repro.api import Fleet, FleetConfig, RingPolicy, RunConfig
    from repro.experiments.common import (
        seed_server_fs, server_pipeline, server_requests,
    )

    servers = args.servers or ["nginx", "exim"]
    config = FleetConfig(
        workers=args.workers,
        quantum=args.quantum,
        ring_bytes=args.ring_bytes,
        ring_policy=RingPolicy(args.policy),
        max_queue_depth=args.queue_depth,
        faults=_faults_from_args(args),
    )
    service = Fleet.build(RunConfig(fleet=config))
    seed_server_fs(service.kernel)

    assignment = [servers[i % len(servers)]
                  for i in range(args.processes)]
    random.Random(args.seed).shuffle(assignment)
    attack_index = None
    rop = None
    if args.inject_rop:
        # The ROP payload targets nginx: make sure one instance exists
        # and attack it mid-stream, with clean sessions around it.
        if "nginx" not in assignment:
            assignment[0] = "nginx"
        attack_index = assignment.index("nginx")
        from repro.loadgen import rop_request

        rop = rop_request()

    procs = []
    for index, name in enumerate(assignment):
        requests = list(server_requests(name, args.sessions))
        if index == attack_index:
            requests.insert(len(requests) // 2, rop)
        procs.append(
            service.add_workload(server_pipeline(name), requests)
        )
    attacked_pid = procs[attack_index].pid if attack_index is not None \
        else None
    return service, config, attacked_pid


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a multi-process fleet under one monitor (see repro.fleet)."""
    service, config, attacked_pid = _build_fleet_service(args)
    result = service.run()

    print(f"fleet: {args.processes} processes x {args.workers} workers, "
          f"{config.ring_policy.value} rings of {config.ring_bytes} B, "
          f"quantum {config.quantum:.0f} cycles")
    for row in result.processes:
        status = "QUARANTINED" if row["quarantined"] else row["state"]
        print(f"  pid {row['pid']:>3} {row['name']:<8} {status:<11} "
              f"{row['checks']:>4} checks  {row['pmi_count']:>3} PMIs  "
              f"{row['stalls']:>3} stalls  "
              f"{row['app_cycles']:>10.0f} app cycles")
    for event in result.quarantines:
        lag = event.detected_at - event.enqueued_at
        print(f"  quarantine: pid {event.pid} ({event.name}) after "
              f"{lag:.0f} cycles"
              f"{' [posthumous]' if event.posthumous else ''} — "
              f"{event.reason}")
    print(f"  checks: {result.tasks} dispatched, "
          f"{result.dropped_checks} dropped; lag p50 "
          f"{result.lag['p50']:.0f} / p99 {result.lag['p99']:.0f} cycles")
    print(f"  workers: utilization "
          f"{', '.join(f'{u:.1%}' for u in result.worker_utilization)}")
    print(f"  overhead: {result.overhead:.2%} "
          f"(monitor {result.monitor_cycles:.0f} + stall "
          f"{result.stall_cycles:.0f} over app {result.app_cycles:.0f})")
    resilience = result.resilience or {}
    if resilience.get("faults") is not None:
        fired = resilience["faults"]["fired"]
        active = {k: v for k, v in fired.items() if v}
        counts = resilience["degradations"]["counts"]
        print(f"  faults: "
              f"{', '.join(f'{k}={v}' for k, v in active.items()) or 'none fired'}")
        print(f"  degradations: "
              f"{', '.join(f'{k}={v}' for k, v in sorted(counts.items())) or 'none'}")
        print(f"  dead letters: {resilience['dead_letters']}  "
              f"ledger reconcile: "
              f"{'exact' if resilience['ledger_reconcile']['exact'] else 'DRIFT'}")
    if args.json:
        json.dump(result.to_dict(), sys.stdout, indent=2, default=str)
        print()

    if _books_drift(result):
        return 1
    if attacked_pid is not None and \
            attacked_pid not in result.quarantined_pids:
        print(f"injected attack on pid {attacked_pid} was not "
              "quarantined", file=sys.stderr)
        return 1
    clean = [r for r in result.processes if r["pid"] != attacked_pid]
    if any(r["quarantined"] for r in clean):
        print("a clean process was quarantined (false positive)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Closed-loop load bench: sweep, saturation knee, SLO search."""
    from repro.experiments.common import format_rows
    from repro.loadgen import resolve_scenario, run_bench

    scenario = resolve_scenario(args.scenario)
    payload = run_bench(scenario, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[bench payload -> {args.out}]", file=sys.stderr)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    sc = payload["scenario"]
    print(f"bench {sc['name']}: {sc['mode']} loop over "
          f"{', '.join(sc['servers'])} ({sc['mix']} mix), "
          f"{sc['sessions']} sessions/conn, "
          f"SLO p{sc['slo_percentile']:g} <= "
          f"{sc['slo_latency']:,.0f} cycles")
    print(format_rows(
        ["conns", "offered", "done", "req/Mcyc", "p50", "p99",
         "overhead", "exact"],
        [
            [p["connections"], f"{p['offered_load']:.1f}",
             p["completed"], f"{p['throughput']:.1f}",
             f"{p['latency'].get('p50', 0.0):.0f}",
             f"{p['latency'].get('p99', 0.0):.0f}",
             f"{p['overhead']:.2%}",
             "yes" if p["accounting_exact"] and p["ledger_exact"]
             else "NO"]
            for p in payload["sweep"]
        ],
    ))
    knee = payload["knee"]
    print(f"knee: {knee['connections']} connections at "
          f"{knee['throughput']:.1f} req/Mcycle"
          f"{'' if payload['monotone_to_knee'] else '  [NOT monotone]'}")
    search = payload["search"]
    if search["best_connections"] is None:
        print("slo search: even the lower bound misses the SLO")
    else:
        print(f"slo search: best {search['best_connections']} "
              f"connections at {search['max_throughput']:.1f} "
              f"req/Mcycle ({search['probes']} probes, "
              f"{'converged' if search['converged'] else 'NOT converged'})")
    for row in search["trace"]:
        print(f"  probe {row['probe']}: c={row['connections']} "
              f"p{sc['slo_percentile']:g}={row['latency']:,.0f} -> "
              f"{'met' if row['met'] else 'miss'} "
              f"[{row['lower']}, {row['upper']}]")
    return 0


def _plane_from_args(args: argparse.Namespace):
    """The ObservabilityPlane the shared plane flags describe, or None
    when the subcommand has the flags but none were given (``top``
    always attaches one: it has no ``--plane`` opt-in)."""
    from repro.telemetry.plane import ObservabilityPlane, SLOConfig

    wants = getattr(args, "plane", False) or args.slo or args.plane_out
    if not wants:
        return None
    slo = SLOConfig.load(args.slo) if args.slo else None
    return ObservabilityPlane(interval=args.sample_interval, slo=slo)


def _format_top_frame(service, plane, sample: dict) -> str:
    """One ``repro top`` frame: the fleet's live state at a sample."""
    now = sample["t"]
    lines = [
        f"repro top — t={now:,.0f} cycles   sample #{sample['seq']}   "
        f"interval {plane.sampler.interval:,.0f}"
    ]
    # Per-process rows: checker traffic grouped from the dispatcher's
    # task journal (read-only; nothing here charges cycles).
    by_pid: Dict[int, dict] = {}
    for task in service.dispatcher.tasks:
        row = by_pid.setdefault(
            task.pid, {"checks": 0, "lag_sum": 0.0, "lag_max": 0.0}
        )
        row["checks"] += 1
        row["lag_sum"] += task.lag
        row["lag_max"] = max(row["lag_max"], task.lag)
    lines.append(
        f"  {'pid':>4} {'name':<8} {'state':<11} {'quanta':>6} "
        f"{'app cycles':>11} {'checks':>6} {'lag mean':>9} {'lag max':>9}"
    )
    for entry in service.scheduler.entries:
        proc = entry.proc
        row = by_pid.get(proc.pid)
        checks = row["checks"] if row else 0
        mean = row["lag_sum"] / checks if checks else 0.0
        state = "QUARANTINED" if entry.quarantined else (
            "done" if entry.done else proc.state.value
        )
        lines.append(
            f"  {proc.pid:>4} {proc.name:<8} {state:<11} "
            f"{entry.quanta:>6} {proc.executor.cycles:>11,.0f} "
            f"{checks:>6} {mean:>9,.0f} "
            f"{row['lag_max'] if row else 0.0:>9,.0f}"
        )
    # Workers, SLO burn, flight tail.
    pool = service.pool
    lines.append("  workers: " + "  ".join(
        f"w{i} {busy / now if now > 0 else 0.0:.0%} ({n} tasks)"
        for i, (busy, n) in enumerate(zip(pool.busy_cycles, pool.tasks_run))
    ))
    # Live load-generation rows, present whenever a bench scenario is
    # driving the fleet (the tracker publishes ``loadgen.*`` series).
    counters = sample.get("counters", {})
    gauges = sample.get("gauges", {})
    if any(series.startswith("loadgen.")
           for series in list(counters) + list(gauges)):
        def total(name: str) -> float:
            return sum(
                value for series, value in counters.items()
                if series == name or series.startswith(name + "{")
            )

        completed = total("loadgen.completed")
        achieved = completed / now * 1e6 if now > 0 else 0.0
        bits = [f"offered {total('loadgen.offered'):.0f} req"]
        offered_load = gauges.get("loadgen.offered_load")
        if offered_load is not None:
            bits.append(f"load {offered_load:.1f}")
        bits += [
            f"done {completed:.0f}",
            f"inflight {gauges.get('loadgen.inflight', 0.0):.0f}",
            f"achieved {achieved:.1f} req/Mcycle",
        ]
        lines.append("  loadgen: " + "  ".join(bits))
        lat_bits = []
        p99s = [
            cell["p99"]
            for series, cell in sample.get("histograms", {}).items()
            if series.startswith("loadgen.latency")
        ]
        if p99s:
            lat_bits.append(f"p99 {max(p99s):,.0f} cycles")
        headroom = gauges.get("loadgen.slo_headroom")
        if headroom is not None:
            lat_bits.append(
                f"SLO headroom {headroom:+,.0f} cycles"
                + ("" if headroom >= 0 else " [MISS]")
            )
        if lat_bits:
            lines.append("  latency: " + "  ".join(lat_bits))
    lines.extend(_slo_flight_lines(plane))
    return "\n".join(lines)


def _tenant_lines(sample: dict, tenants: List[str]) -> List[str]:
    """Per-tenant serving rows: the multi-tenant front-end labels
    everything it emits with the tenant's fault-domain tag."""
    from repro.telemetry.metrics import series_base

    counters = sample.get("counters", {})

    def total(name: str, tenant: str, kind: str = "") -> float:
        tag = f'tenant="{tenant}"'
        return sum(
            value for series, value in counters.items()
            if series_base(series) == name
            and (f"{{{tag}" in series or f",{tag}" in series)
            and (not kind or f'{{kind="{kind}",' in series)
        )

    lines = [
        f"  {'tenant':<10} {'offered':>7} {'done':>6} {'shed':>5} "
        f"{'rounds':>6} {'throttle cyc':>12} {'degraded':>8}"
    ]
    for tenant in tenants:
        lines.append(
            f"  {tenant:<10} "
            f"{total('loadgen.offered', tenant):>7.0f} "
            f"{total('loadgen.completed', tenant):>6.0f} "
            f"{total('resilience.events', tenant, 'shed-load'):>5.0f} "
            f"{total('service.rounds', tenant):>6.0f} "
            f"{total('service.throttle_cycles', tenant):>12,.0f} "
            f"{total('resilience.events', tenant):>8.0f}"
        )
    return lines


def _slo_flight_lines(plane) -> List[str]:
    """The SLO-burn and flight-tail frame footer ``top`` renders."""
    slo = plane.engine.evaluate(plane.sampler.samples)
    lines = ["  slo:     " + "  ".join(
        f"{o['name']}={'ok' if o['met'] else 'MISS'}"
        f"[burn {o['budget_burn']:.2f}]"
        for o in slo["objectives"]
    )]
    for event in list(plane.flight.events)[-3:]:
        lines.append(
            f"  flight:  #{event['seq']} t={event['t']:,.0f} "
            f"{event['kind']} pid={event['pid']} {event['detail']}"
        )
    return lines


def _format_service_frame(service, plane, sample: dict) -> str:
    """One ``repro top --serve-config`` frame: every tenant's live
    state — clock, rounds, checks, quarantines, quota — plus the
    tenant counter rows and the usual SLO/flight footer."""
    now = sample["t"]
    lines = [
        f"repro top — service {service.config.name}   "
        f"t={now:,.0f} cycles   sample #{sample['seq']}"
    ]
    lines.append(
        f"  {'tenant':<10} {'clock':>12} {'rounds':>6} {'checks':>6} "
        f"{'quar':>4} {'shed':>5} {'throttles':>9} {'reloads':>7}"
    )
    for rt in service.runtimes:
        ledger = rt.fleet.monitor.degradations
        lines.append(
            f"  {rt.name:<10} {rt.clock.now:>12,.0f} "
            f"{rt.fleet.scheduler.rounds:>6} "
            f"{len(rt.fleet.dispatcher.tasks):>6} "
            f"{len(rt.fleet.dispatcher.quarantines):>4} "
            f"{ledger.count('shed-load'):>5} "
            f"{rt.bucket.throttles:>9} "
            f"{len(rt.registry.versions):>7}"
        )
    lines.extend(_tenant_lines(sample, [rt.name for rt in service.runtimes]))
    lines.extend(_slo_flight_lines(plane))
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live fleet view: a plane-attached fleet run rendered per sample."""
    from repro import telemetry
    from repro.telemetry.plane import ObservabilityPlane, SLOConfig

    tel = telemetry.get_telemetry()
    tel.reset()
    slo = SLOConfig.load(args.slo) if args.slo else None
    plane = ObservabilityPlane(interval=args.sample_interval, slo=slo)
    tel.attach_plane(plane)
    if args.serve_config:
        return _top_service(args, tel, plane)
    try:
        if args.scenario:
            from repro.loadgen import build_load_service, resolve_scenario

            scenario = resolve_scenario(args.scenario)
            # The tracker stays referenced by the kernel's syscall
            # wrappers; keep it alive for the run's duration.
            service, tracker, attacked_pids = build_load_service(
                scenario, scenario.connections_upper_bound,
            )
        else:
            service, config, attacked_pid = _build_fleet_service(args)
            attacked_pids = [attacked_pid] if attacked_pid is not None \
                else []
        live = not args.once
        if live:
            clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

            def render(sample: dict, _every=max(1, args.refresh)) -> None:
                if sample["seq"] % _every == 0:
                    print(clear + _format_top_frame(service, plane, sample))
                    if not clear:
                        print()

            plane.sampler.on_sample.append(render)
        result = service.run()
        # The final frame renders after finalize (inside the run's SLO
        # report) so it carries the closing sample — ``--once`` prints
        # only this.
        print(_format_top_frame(service, plane, plane.sampler.samples[-1]))
        if args.plane_out:
            plane.export(args.plane_out)
            print(f"[plane dump -> {args.plane_out}]", file=sys.stderr)
    finally:
        tel.detach_plane()
        tel.disable()

    if _books_drift(result):
        return 1
    missed = [pid for pid in attacked_pids
              if pid not in result.quarantined_pids]
    if missed:
        print(f"injected attack on pid(s) "
              f"{', '.join(map(str, missed))} was not quarantined",
              file=sys.stderr)
        return 1
    return 0


def _top_service(args: argparse.Namespace, tel, plane) -> int:
    """``repro top --serve-config``: the live multi-tenant view."""
    from repro.service import TraceCheckService, resolve_serve_config

    config = resolve_serve_config(args.serve_config)
    try:
        service = TraceCheckService(config, plane=plane)
        if not args.once:
            clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

            def render(sample: dict, _every=max(1, args.refresh)) -> None:
                if sample["seq"] % _every == 0:
                    print(clear
                          + _format_service_frame(service, plane, sample))
                    if not clear:
                        print()

            plane.sampler.on_sample.append(render)
        result = service.serve()
        plane.finalize(service.now)
        print(_format_service_frame(
            service, plane, plane.sampler.samples[-1]
        ))
        if args.plane_out:
            plane.export(args.plane_out)
            print(f"[plane dump -> {args.plane_out}]", file=sys.stderr)
    finally:
        tel.detach_plane()
        tel.disable()
    return 1 if _books_drift(result) else 0


def _cmd_service(args: argparse.Namespace) -> int:
    """Multi-tenant serving front-end: per-tenant fault domains,
    quotas, hot reload, and streamed verdicts."""
    from repro import telemetry
    from repro.experiments.common import format_rows
    from repro.service import resolve_serve_config

    config = resolve_serve_config(args.config)
    tel = telemetry.get_telemetry()
    plane = None
    wants_plane = args.plane or args.slo or args.plane_out
    tel.reset()
    if wants_plane:
        from repro.telemetry.plane import ObservabilityPlane, SLOConfig

        slo = SLOConfig.load(args.slo) if args.slo else None
        plane = ObservabilityPlane(
            interval=args.sample_interval, slo=slo
        )
        tel.attach_plane(plane)
    elif args.telemetry:
        tel.enable()

    on_event = None
    if args.stream:
        def on_event(event: dict) -> None:
            kind = event["type"]
            if kind == "verdict":
                print(f"event {event['tenant']}: task {event['task_id']} "
                      f"pid={event['pid']} {event['kind']} -> "
                      f"{event['verdict']} @ {event['at']:,.0f}")
            else:
                print(f"event {event['tenant']}: {kind} "
                      f"@ {event['at']:,.0f}")

    try:
        from repro.service import TraceCheckService

        service = TraceCheckService(config, plane=plane)
        result = service.serve(on_event=on_event)
        if plane is not None:
            plane.finalize(service.now)
            if args.plane_out:
                plane.export(args.plane_out)
                print(f"[plane dump -> {args.plane_out}]",
                      file=sys.stderr)
    finally:
        if plane is not None:
            tel.detach_plane()
        tel.disable()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[service payload -> {args.out}]", file=sys.stderr)
    if args.json:
        json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"service {config.name}: {len(config.tenants)} tenant(s), "
              f"makespan {result.makespan:,.0f} cycles"
              f"{'  [drained]' if result.drained else ''}")
        print(format_rows(
            ["tenant", "scenario", "offered", "done", "shed", "quar",
             "p99", "throttles", "reloads", "burn", "exact"],
            [
                [name, t["scenario"], t["offered"], t["completed"],
                 t["shed"], t["quarantines"],
                 f"{t['latency'].get('p99', 0.0):.0f}",
                 t["quota"]["throttles"], t["reloads"]["count"],
                 f"{t['error_budget']['burn']:.2f}",
                 "yes" if t["accounting_exact"] and t["ledger_exact"]
                 else "NO"]
                for name, t in result.tenants.items()
            ],
        ))

    return 1 if _books_drift(result) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a self-contained markdown/HTML report from a run JSON."""
    from repro.telemetry.report import render_report

    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        text = render_report(payload, fmt=args.format, title=args.title)
    except ValueError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[report -> {args.output}]", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        libraries, seed_server_fs, training_corpus,
    )
    from repro.fuzz import Fuzzer, TargetRunner
    from repro.workloads import SERVER_BUILDERS, build_vdso

    exe = SERVER_BUILDERS[args.server]()
    runner = TargetRunner(
        args.server, exe, libraries(), vdso=build_vdso(),
        mode="socket", max_steps=200_000,
        kernel_setup=lambda k: seed_server_fs(k),
    )
    seeds = [bytes(c) if isinstance(c, (bytes, bytearray)) else c[0]
             for c in training_corpus(args.server)[:2]]
    fuzzer = Fuzzer(runner, seeds)
    queue = fuzzer.run(max_executions=args.budget)
    print(f"{fuzzer.stats.executions} executions, "
          f"{len(queue)} path-finding inputs, "
          f"{fuzzer.stats.crashes} crashes, "
          f"{fuzzer.coverage.edge_count} coverage points")
    for index, entry in enumerate(queue.entries()):
        print(f"  [{index}] depth={entry.depth} "
              f"{entry.data[:40]!r}{'...' if len(entry.data) > 40 else ''}")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.disassembler import disassemble_range, format_insn
    from repro.workloads import SERVER_BUILDERS, UTILITY_BUILDERS
    from repro.workloads.spec import SPEC_NAMES, build_spec_program

    if args.name in SERVER_BUILDERS:
        module = SERVER_BUILDERS[args.name]()
    elif args.name in UTILITY_BUILDERS:
        module = UTILITY_BUILDERS[args.name]()
    elif args.name in SPEC_NAMES:
        module = build_spec_program(args.name, 1)
    else:
        print(f"unknown workload {args.name!r}", file=sys.stderr)
        return 2
    function = args.function or (
        "main" if "main" in module.function_ranges else module.entry
    )
    if function not in module.function_ranges:
        print(f"{args.name} has no function {function!r}; "
              f"available: {', '.join(sorted(module.function_ranges))}",
              file=sys.stderr)
        return 2
    start, end = module.function_ranges[function]
    print(f"{args.name}:{function} ({end - start} bytes)")
    for offset, insn, _ in disassemble_range(module.code, start, end):
        print(f"  {offset:6x}:  {format_insn(insn, ip=offset)}")
    return 0


def _trace_parent() -> argparse.ArgumentParser:
    """Shared ``--trace-out``/``--spans-out`` flags (parent parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of this run",
    )
    parent.add_argument(
        "--spans-out", default=None, metavar="FILE",
        help="write the raw spans as JSON-lines",
    )
    return parent


def _plane_parent() -> argparse.ArgumentParser:
    """Shared observability-plane flags (parent parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--slo", default=None, metavar="FILE",
        help="load a JSON SLOConfig (default: the stock objectives)",
    )
    parent.add_argument(
        "--plane-out", default=None, metavar="FILE",
        help="write the full plane dump (a `repro report` input)",
    )
    parent.add_argument(
        "--sample-interval", type=float, default=2000.0, metavar="N",
        help="sampler cadence in simulated cycles",
    )
    return parent


def _add_fleet_shape_args(parser: argparse.ArgumentParser) -> None:
    """The fleet-shape flags ``fleet`` and ``top`` share."""
    parser.add_argument("-p", "--processes", type=int, default=8)
    parser.add_argument("-w", "--workers", type=int, default=4)
    parser.add_argument("--policy", choices=["stall", "lossy"],
                        default="stall",
                        help="ToPA buffer-full degradation policy")
    parser.add_argument("--quantum", type=float, default=2000.0,
                        help="round-robin slice in simulated cycles")
    parser.add_argument("--ring-bytes", type=int, default=8192,
                        help="per-process trace ring capacity")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="in-flight checks before backpressure")
    parser.add_argument("-n", "--sessions", type=int, default=2,
                        help="client sessions per process")
    parser.add_argument("--servers", nargs="*", default=None,
                        choices=["nginx", "vsftpd", "openssh", "exim"],
                        help="server mix (default: nginx exim)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inject-rop", action="store_true",
                        help="inject a ROP exploit into one nginx process")


def _fault_parent() -> argparse.ArgumentParser:
    """Shared fault-injection flags (parent parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="arm a deterministic FaultPlan loaded from a JSON file",
    )
    parent.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="reseed the fault plan (alone: arm the standard mix)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowGuard reproduction (HPCA 2017) command line",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    trace = _trace_parent()
    faults = _fault_parent()
    plane = _plane_parent()

    experiments = sub.add_parser(
        "experiments",
        help="regenerate paper tables/figures and run the gated "
             "experiments",
        parents=[trace],
    )
    experiments.add_argument("names", nargs="*",
                             help="subset of experiments (default all)")
    experiments.add_argument("--quick", action="store_true",
                             help="smaller gated experiments for smoke "
                                  "runs (same gates, same JSON shape)")
    experiments.set_defaults(func=_cmd_experiments)

    attack = sub.add_parser("attack", help="run one attack demo")
    attack.add_argument("kind",
                        choices=["rop", "srop", "retlib", "flushing"])
    attack.set_defaults(func=_cmd_attack)

    serve = sub.add_parser("serve", help="drive a protected server",
                           parents=[trace])
    serve.add_argument("server",
                       choices=["nginx", "vsftpd", "openssh", "exim"])
    serve.add_argument("-n", "--sessions", type=int, default=8)
    serve.add_argument("--seed", type=int, default=None,
                       help="deterministic varied request mix "
                            "(default: the legacy constant workload)")
    serve.add_argument("--unprotected", action="store_true")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench",
        help="closed-loop load bench: sweep + max throughput under SLO",
    )
    bench.add_argument("--scenario", default="nginx-closed",
                       metavar="REF",
                       help="builtin scenario name or JSON file "
                            "(default: nginx-closed)")
    bench.add_argument("--seed", type=int, default=None,
                       help="reseed the scenario end to end")
    bench.add_argument("--json", action="store_true",
                       help="dump the full payload as JSON to stdout")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="also write the payload JSON here "
                            "(a `repro report` input)")
    bench.set_defaults(func=_cmd_bench)

    stats = sub.add_parser(
        "stats",
        help="run a protected server under telemetry, dump the report",
        parents=[faults, plane, trace],
    )
    stats.add_argument("server",
                       choices=["nginx", "vsftpd", "openssh", "exim"])
    stats.add_argument("-n", "--sessions", type=int, default=4)
    stats.add_argument("--plane", action="store_true",
                       help="attach the observability plane (implied by "
                            "--slo / --plane-out)")
    stats.set_defaults(func=_cmd_stats)

    fleet = sub.add_parser(
        "fleet",
        help="time-slice N protected processes over M checker workers",
        parents=[faults],
    )
    _add_fleet_shape_args(fleet)
    fleet.add_argument("--json", action="store_true",
                       help="also dump the full result as JSON")
    fleet.set_defaults(func=_cmd_fleet)

    top = sub.add_parser(
        "top",
        help="live fleet view via the observability plane",
        parents=[faults, plane],
    )
    _add_fleet_shape_args(top)
    top.add_argument("--scenario", default=None, metavar="REF",
                     help="run a loadgen scenario (builtin name or "
                          "JSON file) at its upper connection bound "
                          "instead of the fleet-shape flags")
    top.add_argument("--once", action="store_true",
                     help="print only the final frame (CI-friendly)")
    top.add_argument("--refresh", type=int, default=5, metavar="K",
                     help="render a frame every K samples (live mode)")
    top.add_argument("--serve-config", default=None, metavar="REF",
                     help="drive a multi-tenant serve config (builtin "
                          "name or JSON file) and render per-tenant "
                          "rows instead of the fleet-shape flags")
    top.set_defaults(func=_cmd_top)

    service = sub.add_parser(
        "service",
        help="multi-tenant serving front-end with per-tenant fault "
             "domains, quotas, and hot reload",
        parents=[plane],
    )
    service.add_argument("--config", default="duo-isolation",
                         metavar="REF",
                         help="builtin serve config name or JSON file "
                              "(default: duo-isolation)")
    service.add_argument("--plane", action="store_true",
                         help="attach the observability plane (implied "
                              "by --slo / --plane-out)")
    service.add_argument("--telemetry", action="store_true",
                         help="enable the metrics registry without "
                              "the full plane")
    service.add_argument("--stream", action="store_true",
                         help="print every tenant's verdict stream")
    service.add_argument("--json", action="store_true",
                         help="dump the full result as JSON to stdout")
    service.add_argument("--out", default=None, metavar="FILE",
                         help="also write the result JSON here")
    service.set_defaults(func=_cmd_service)

    report = sub.add_parser(
        "report",
        help="render a markdown/HTML report from a run JSON",
    )
    report.add_argument("input",
                        help="plane dump, BENCH_observability.json, or "
                             "StatsReport JSON")
    report.add_argument("-o", "--output", default=None,
                        help="write here instead of stdout")
    report.add_argument("--format", choices=["markdown", "html"],
                        default="markdown")
    report.add_argument("--title", default=None)
    report.set_defaults(func=_cmd_report)

    fuzz = sub.add_parser("fuzz", help="run the miniature AFL campaign")
    fuzz.add_argument("server",
                      choices=["nginx", "vsftpd", "openssh", "exim"])
    fuzz.add_argument("--budget", type=int, default=200)
    fuzz.set_defaults(func=_cmd_fuzz)

    disasm = sub.add_parser("disasm", help="disassemble a workload")
    disasm.add_argument("name")
    disasm.add_argument("-f", "--function", default=None)
    disasm.set_defaults(func=_cmd_disasm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
