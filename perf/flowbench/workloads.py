"""The four benchmark workloads.

Every workload is closed loop: a client issues its next request only
when the previous one completed, like callers that wait for a verdict.
(The loadgen's open loop is not used: a blocking ``accept`` spins the
one shared simulated CPU, so below saturation its latency measures the
spin, not the server.)  Load comes from this one Python process and
thread; simulated connections are simulated processes.

A workload is a fixed set of *units*, the same on every commit and for
every run seed.  Unit ``i`` is generated from seed ``i + 1`` (the
set-up's warm-up from seed 0), and no unit sees state another unit
left behind, so the run seed only picks the order the units run in.
The charged metrics pool over every unit, so they are a function of
the code alone.

- ``nginx-knee`` — the Fig. 5a server shape at the loadgen knee:
  ``nginx-closed``'s fleet (2 checker workers, 2 KiB stall rings) at 3
  connections.  Every check passes the fast path, so the simulator and
  the IPT encoder dominate the time.
- ``mixed-faulted`` — nginx, exim, vsftpd and openssh round-robin over
  8 connections with lossy rings, drain/PMI/worker faults, retries and
  two planted ROP exploits: fleet queueing and the recovery paths.
- ``nginx-undertrained`` — a solo monitor with synchronous verdicts on
  a pipeline trained on two inputs, negative caching off: about 30% of
  checks replay on the slow path.
- ``check-replay`` — the monitor without the simulator: fast-path
  checks over the ToPA snapshots captured from all four trained servers
  (one ROP exploit included).  A unit replays one server's capture on
  a freshly deployed checker.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.attacks import build_rop_request, run_recon
from repro.experiments.common import (
    libraries,
    run_server,
    seed_server_fs,
    server_pipeline,
    training_corpus,
)
from repro.loadgen import (
    LoadScenario,
    LoadTracker,
    build_load_service,
    builtin_scenario,
    mix_requests,
    resolve_scenario,
    summarize_load_point,
)
from repro.monitor.fastpath import FastPathChecker, Verdict
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import ProcessState
from repro.pipeline import FlowGuardPipeline
from repro.resilience import FaultPlan, FaultSite
from repro.workloads import SERVER_BUILDERS, build_nginx, build_vdso

SERVERS = ("nginx", "exim", "vsftpd", "openssh")

#: generation seed of the set-up's warm-up (unit ``i`` uses ``i + 1``).
WARMUP_SEED = 0


@dataclass
class UnitResult:
    """One unit's outcome: time, work, correctness, charged cycles."""

    index: int
    #: the unit's time on :attr:`Workload.clock`.
    time_s: float
    #: benign operations attempted (requests, or checks for replay).
    attempted: int
    #: operations completed (throughput counts these).
    completed: int
    failed: int
    errors: List[str]
    digest: str
    #: charged latency samples (cycles): per request, per check on replay.
    latencies: List[float]
    #: charged cycles the completed operations took (throughput base).
    charged_cycles: float
    monitor_cycles: float
    app_cycles: float
    #: per-layer observables, read off the stack after the unit.
    layers: Dict[str, float] = field(default_factory=dict)
    #: fleet check lags (cycles from submission to verdict).
    lags: List[float] = field(default_factory=list)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _digest(blob) -> str:
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()


def _ledger_layers(ledger) -> Dict[str, float]:
    rereads = sum(
        1 for event in ledger.events_of("retry")
        if event.detail == "drain-reread"
    )
    return {
        "resilience.retries": ledger.count("retry") - rereads,
        "resilience.drain_rereads": rereads,
        "resilience.corrupt_segments": ledger.count("corrupt-segment"),
        "resilience.pmi_drops": ledger.count("pmi-drop"),
        "resilience.slowpath_fallbacks": ledger.count("slowpath-fallback"),
    }


def _charged_split(stats_list, app_cycles: float) -> Dict[str, float]:
    """The Fig. 5a split: each monitor phase as a share of app cycles."""
    app = max(app_cycles, 1e-9)
    return {
        "monitor.charged.trace_pct":
            100 * sum(s.trace_cycles for s in stats_list) / app,
        "monitor.charged.decode_pct":
            100 * sum(s.decode_cycles for s in stats_list) / app,
        "monitor.charged.check_pct":
            100 * sum(s.check_cycles for s in stats_list) / app,
        "monitor.charged.other_pct":
            100 * sum(s.other_cycles for s in stats_list) / app,
    }


class Workload:
    """Common shape: ``setup`` builds everything from scratch and
    ``run_unit`` runs one timed unit."""

    name = ""
    units = 1
    #: the clock units are timed with: wall time, or the CPU time of
    #: :meth:`flowbench.hostspeed.HostClock.work_time`.
    clock = staticmethod(time.perf_counter)

    def setup(self) -> List[str]:
        """Build the workload; returns set-up correctness errors."""
        raise NotImplementedError

    def run_unit(self, index: int, tracer=None) -> UnitResult:
        raise NotImplementedError


class FleetWorkload(Workload):
    """One closed-loop load point per unit, built by the loadgen."""

    connections = 1

    def scenario(self) -> LoadScenario:
        """The load point: fleet shape, servers, sessions per
        connection, attack and fault plan."""
        raise NotImplementedError

    def setup(self) -> List[str]:
        server_pipeline.cache_clear()
        self._scenario = self.scenario()
        warmup = replace(self._scenario, sessions=1).with_seed(WARMUP_SEED)
        return [f"warm-up: {e}" for e in self._run(-1, warmup, None).errors]

    def run_unit(self, index: int, tracer=None) -> UnitResult:
        return self._run(index, self._scenario.with_seed(index + 1), tracer)

    def _run(self, index: int, scenario: LoadScenario,
             tracer) -> UnitResult:
        start = self.clock()
        with _span(tracer, "fleet.build"):
            service, tracker, attacked = build_load_service(
                scenario, self.connections,
            )
        if tracer is not None:
            tracer.wrap_syscalls(service.kernel)
        with _span(tracer, "fleet.run"):
            result = service.run()
        with _span(tracer, "loadgen.summarize"):
            point = summarize_load_point(
                scenario, self.connections, service, tracker, attacked,
                result,
            )
        took = self.clock() - start

        attacked_set = set(attacked)
        scheduled = (self.connections - len(attacked_set)) * scenario.sessions
        benign_done = sum(
            1 for rec in tracker.records
            if rec.completed and rec.pid not in attacked_set
        )
        errors = []
        if benign_done != scheduled:
            errors.append(
                f"{scheduled - benign_done} of {scheduled} benign "
                f"requests did not complete"
            )
        if point.detection_rate != 1.0:
            errors.append(f"detection rate {point.detection_rate}")
        if point.false_quarantines:
            errors.append(f"{point.false_quarantines} false quarantines")
        if not attacked_set and result.detections:
            errors.append(f"{result.detections} detections, no attacks")
        if not point.accounting_exact:
            errors.append("fleet cycle accounting drifted")
        if not point.ledger_exact:
            errors.append("degradation ledger drifted")

        entries = service.scheduler.entries
        layers = {
            "cpu.insns": sum(e.proc.executor.insn_count for e in entries),
            "ipt.encoder.trace_bytes":
                sum(e.pp.topa.total_bytes_written for e in entries),
            "fleet.worker_utilization":
                sum(result.worker_utilization)
                / max(len(result.worker_utilization), 1),
            "fleet.stall_kcycles": result.stall_cycles / 1e3,
            "fleet.dropped_checks": result.dropped_checks,
            **_ledger_layers(service.monitor.degradations),
            **_charged_split(service.monitor.all_stats(), result.app_cycles),
        }
        return UnitResult(
            index=index,
            time_s=took,
            attempted=scheduled,
            completed=point.completed,
            failed=scheduled - benign_done,
            errors=errors,
            digest=point.digest,
            latencies=[r.latency for r in tracker.records if r.completed],
            charged_cycles=point.makespan,
            monitor_cycles=point.monitor_cycles + point.stall_cycles,
            app_cycles=point.app_cycles - point.idle_cycles,
            layers=layers,
            lags=[task.lag for task in service.dispatcher.tasks],
        )


class NginxKnee(FleetWorkload):
    name = "nginx-knee"
    connections = 3

    def __init__(self, quick: bool) -> None:
        # 3 units x 3 connections x 39 sessions: 351 requests.
        self.units = 2 if quick else 3
        self.sessions = 9 if quick else 39

    def scenario(self) -> LoadScenario:
        return replace(resolve_scenario("nginx-closed"),
                       sessions=self.sessions)


class MixedFaulted(FleetWorkload):
    name = "mixed-faulted"
    connections = 8

    def __init__(self, quick: bool) -> None:
        # 3 units x 8 connections x 8 sessions; the two attacked
        # connections stop at their exploit, leaving 144 requests.
        self.units = 2 if quick else 3
        self.sessions = 3 if quick else 8

    def scenario(self) -> LoadScenario:
        return LoadScenario(
            name="mixed-faulted",
            servers=SERVERS,
            sessions=self.sessions,
            workers=2,
            # 2 KiB lossy rings let a planted exploit escape: the drain
            # leaves the endpoint check too few TIPs to judge, which
            # passes unverified.  4 KiB keeps every exploit detected.
            ring_bytes=4096,
            ring_policy="lossy",
            # The standard mix minus fast-path decode errors: each one
            # forces a slow-path replay of whatever window it hits, so a
            # handful of them set the charged cycles of the whole run.
            # The slow path is measured on nginx-undertrained.
            faults=replace(FaultPlan.standard_mix(),
                           fastpath_error=FaultSite(probability=0.0)),
            retry=builtin_scenario("faulted-closed").retry,
            attack_kind="rop",
            attack_count=2,
        )


class _SoloClock:
    """A solo process's charged clock: its own cycles plus the monitor
    cycles its synchronous checks cost it."""

    def __init__(self, monitor, proc) -> None:
        self._monitor = monitor
        self._proc = proc

    @property
    def now(self) -> float:
        return (
            self._proc.executor.cycles
            + self._monitor.stats_for(self._proc).total_cycles
        )


class NginxUndertrained(Workload):
    name = "nginx-undertrained"

    def __init__(self, quick: bool) -> None:
        self.units = 2 if quick else 5
        self.sessions = 25 if quick else 50
        # Fig. 5d's protocol: slow-path verdicts are not cached, so the
        # slow-path rate stays put instead of decaying over the run.
        self.policy = FlowGuardPolicy(cache_slow_path_negatives=False)

    def setup(self) -> List[str]:
        self.pipeline = FlowGuardPipeline.offline(
            "nginx",
            SERVER_BUILDERS["nginx"](),
            libraries(),
            vdso=build_vdso(),
            corpus=training_corpus("nginx")[:2],
            mode="socket",
            kernel_setup=seed_server_fs,
        )
        return self._serve(-1, WARMUP_SEED, 2, None).errors

    def run_unit(self, index: int, tracer=None) -> UnitResult:
        return self._serve(index, index + 1, self.sessions, tracer)

    def _serve(self, index: int, seed: int, sessions: int,
               tracer) -> UnitResult:
        requests = mix_requests("nginx", sessions, seed=seed, mix="varied")
        start = self.clock()
        kernel = Kernel()
        seed_server_fs(kernel)
        with _span(tracer, "monitor.deploy"):
            monitor, proc = self.pipeline.deploy(kernel, policy=self.policy)
        tracker = LoadTracker(_SoloClock(monitor, proc))
        tracker.track_closed(proc, [False] * len(requests))
        for request in requests:
            proc.push_connection(request)
        tracker.install(kernel)
        if tracer is not None:
            tracer.wrap_syscalls(kernel)
        kernel.run(proc)
        took = self.clock() - start

        stats = monitor.stats_for(proc)
        app = proc.executor.cycles
        errors = []
        if monitor.detections:
            errors.append(
                f"{len(monitor.detections)} detections on benign traffic"
            )
        if tracker.completed != sessions:
            errors.append(
                f"{sessions - tracker.completed} of {sessions} sessions "
                f"did not complete"
            )
        if proc.state is not ProcessState.EXITED:
            errors.append(f"server ended {proc.state.value}")
        pp = monitor.protected_for(proc)
        return UnitResult(
            index=index,
            time_s=took,
            attempted=sessions,
            completed=tracker.completed,
            failed=sessions - tracker.completed + len(monitor.detections),
            errors=errors,
            digest=_digest([
                tracker.timeline_digest(),
                [stats.trace_cycles, stats.decode_cycles,
                 stats.check_cycles, stats.other_cycles,
                 stats.checks, stats.slow_path_runs],
                len(monitor.detections),
            ]),
            latencies=[r.latency for r in tracker.records if r.completed],
            charged_cycles=app + stats.total_cycles,
            monitor_cycles=stats.total_cycles,
            app_cycles=app,
            layers={
                "cpu.insns": proc.executor.insn_count,
                "ipt.encoder.trace_bytes": pp.topa.total_bytes_written,
                **_ledger_layers(monitor.degradations),
                **_charged_split([stats], app),
            },
        )


@dataclass
class _Capture:
    server: str
    snapshots: List[bytes]
    verdicts: List[Verdict]
    app_cycles: float


class CheckReplay(Workload):
    name = "check-replay"

    def __init__(self, quick: bool) -> None:
        # 8 sessions per server capture 265 snapshots; 100 passes
        # replay them in about 7 s.
        self.sessions = 3 if quick else 8
        passes = 2 if quick else 100
        self.units = passes * len(SERVERS)

    def setup(self) -> List[str]:
        server_pipeline.cache_clear()
        self.pipelines = {s: server_pipeline(s) for s in SERVERS}
        # The capture does not cache slow-path verdicts, so every
        # captured verdict is what a freshly deployed checker returns.
        policy = FlowGuardPolicy(cache_slow_path_negatives=False)
        rop = build_rop_request(
            run_recon(build_nginx(), libraries(), vdso=build_vdso())
        )
        self.captures = []
        errors = []
        for conn, server in enumerate(SERVERS):
            requests = mix_requests(server, self.sessions, seed=conn + 1,
                                    mix="varied")
            if server == "nginx":
                requests.append(rop)
            seen: List[tuple] = []
            original = FastPathChecker.__dict__["check"]

            def capture(checker, data, _original=original, _seen=seen):
                result = _original(checker, data)
                _seen.append((bytes(data), result.verdict))
                return result

            FastPathChecker.check = capture
            try:
                run = run_server(server, requests, protected=True,
                                 policy=policy)
            finally:
                FastPathChecker.check = original
            expected = 1 if server == "nginx" else 0
            if len(run.monitor.detections) != expected:
                errors.append(
                    f"{server} capture: {len(run.monitor.detections)} "
                    f"detections, expected {expected}"
                )
            self.captures.append(_Capture(
                server=server,
                snapshots=[data for data, _ in seen],
                verdicts=[verdict for _, verdict in seen],
                app_cycles=run.app_cycles,
            ))
        return errors

    def run_unit(self, index: int, tracer=None) -> UnitResult:
        cap = self.captures[index % len(self.captures)]
        charged: List[float] = []
        verdicts: List[str] = []
        mismatches = 0
        start = self.clock()
        with _span(tracer, "monitor.deploy"):
            monitor, proc = self.pipelines[cap.server].deploy(Kernel())
        checker = monitor.protected_for(proc).checker
        for data, expected in zip(cap.snapshots, cap.verdicts):
            result = checker.check(data)
            charged.append(result.decode_cycles + result.search_cycles)
            verdicts.append(result.verdict.value)
            if result.verdict is not expected:
                mismatches += 1
        took = self.clock() - start
        checks = len(verdicts)
        errors = []
        if mismatches:
            errors.append(
                f"{mismatches} of {checks} replayed {cap.server} verdicts "
                f"differ from the capture"
            )
        violations = verdicts.count(Verdict.VIOLATION.value)
        expected = 1 if cap.server == "nginx" else 0
        if violations != expected:
            errors.append(
                f"{violations} violations replayed on {cap.server}, "
                f"expected {expected}"
            )
        return UnitResult(
            index=index,
            time_s=took,
            attempted=checks,
            completed=checks,
            failed=mismatches,
            errors=errors,
            digest=_digest([cap.server, verdicts, charged]),
            latencies=charged,
            charged_cycles=sum(charged),
            monitor_cycles=sum(charged),
            app_cycles=cap.app_cycles,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (NginxKnee, MixedFaulted, NginxUndertrained, CheckReplay)
}
