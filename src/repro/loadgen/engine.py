"""One load point: build the fleet for C connections, run, measure.

A *load point* is the unit both the sweep and the SLO search probe:
``connections`` concurrent client sessions (one protected server
process per connection, time-sliced on the one simulated CPU) against
``workers`` checker workers, with the scenario's request mix, attack
mix, and fault plan applied.  The result carries the wrk-style
numbers — requests per megacycle, exact latency percentiles, monitor
overhead with open-loop idle time excluded — plus the security-side
observables (detection rate and latency for injected attacks, false
quarantines, ledger exactness) and a digest of the whole outcome for
bit-identity gates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro import configio
from repro.experiments.common import seed_server_fs, server_pipeline
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.loadgen.clients import LoadTracker
from repro.loadgen.mixes import mix_requests
from repro.loadgen.scenario import LoadScenario
from repro.telemetry import get_telemetry


@lru_cache(maxsize=None)
def rop_request() -> bytes:
    """The planted nginx ROP exploit, built once per process (recon is a
    one-time effort).  The recon is the attacker's own nginx run, not
    traffic: it runs with telemetry off and the observability plane
    detached, and both are restored afterwards."""
    from repro.attacks import build_rop_request, run_recon
    from repro.experiments.common import libraries
    from repro.workloads import build_nginx, build_vdso

    tel = get_telemetry()
    enabled = tel.enabled
    plane = tel.detach_plane()
    tel.disable()
    try:
        recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
    finally:
        tel.plane = plane
        if enabled:
            tel.enable()
    return build_rop_request(recon)


@dataclass
class LoadPointResult:
    """Everything measured at one (connections, workers) point."""

    connections: int
    workers: int
    mode: str
    #: offered load: concurrent connections (closed loop) or arrivals
    #: per megacycle across the fleet (open loop).
    offered_load: float
    offered: int
    completed: int
    makespan: float
    #: completed sessions per megacycle of fleet-clock time.
    throughput: float
    latency: Dict[str, float]
    #: (monitor + stall cycles) / busy app cycles (idle excluded).
    overhead: float
    app_cycles: float
    idle_cycles: float
    monitor_cycles: float
    stall_cycles: float
    attacked_pids: List[int] = field(default_factory=list)
    quarantined_pids: List[int] = field(default_factory=list)
    detection_rate: float = 1.0
    detection_latency: Optional[Dict[str, float]] = None
    false_quarantines: int = 0
    accounting_exact: bool = True
    ledger_exact: bool = True
    digest: str = ""
    lag_p99: float = 0.0

    @property
    def slo_value(self) -> float:
        """The latency number the SLO judges (set by the caller's
        percentile via ``latency['slo']``)."""
        return self.latency.get("slo", self.latency.get("p99", 0.0))

    def to_dict(self) -> dict:
        return configio.to_dict(self)


def _connection_seed(seed: int, index: int) -> int:
    # Distinct deterministic stream per connection slot.
    return seed * 100_003 + index


def build_load_service(
    scenario: LoadScenario,
    connections: int,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    tenant: Optional[str] = None,
    max_sessions: int = 0,
) -> Tuple[FleetService, LoadTracker, List[int]]:
    """A fleet shaped for one load point, with the tracker installed.

    Returns ``(service, tracker, attacked_pids)``; the caller runs
    ``service.run()`` (or hands the service to ``repro top``).

    ``tenant`` labels the fleet as one serving fault domain (its
    degradation ledger and loadgen metrics carry the tenant tag).
    ``max_sessions`` is the serving admission cap: sessions beyond it
    (counted across connections, in connection order) are *shed* at
    admission — each shed session records a ``shed-load`` ledger event
    (counted in the ledger's ``resilience.events`` series) — rather
    than queued.  0 admits
    everything, leaving the build byte-identical to the pre-serving
    behavior.
    """
    scenario.validate()
    if connections < 1:
        raise ValueError("connections must be >= 1")
    seed_val = scenario.seed if seed is None else seed
    config = FleetConfig(
        workers=workers if workers is not None else scenario.workers,
        quantum=scenario.quantum,
        ring_bytes=scenario.ring_bytes,
        ring_policy=RingPolicy(scenario.ring_policy),
        max_queue_depth=scenario.max_queue_depth,
        faults=scenario.faults,
        retry=scenario.retry,
        tenant=tenant,
    )
    service = FleetService(config)
    seed_server_fs(service.kernel)
    tracker = LoadTracker(
        service.clock,
        slo_latency=scenario.slo_latency,
        slo_percentile=scenario.slo_percentile,
        tenant=tenant,
    )
    tel = get_telemetry()
    attacked: List[int] = []
    remaining_attacks = scenario.attack_count
    session_budget = max_sessions if max_sessions > 0 else None
    for index in range(connections):
        server = scenario.servers[index % len(scenario.servers)]
        payloads = mix_requests(
            server,
            scenario.sessions,
            seed=_connection_seed(seed_val, index),
            mix=scenario.mix,
        )
        if session_budget is not None:
            admitted = min(len(payloads), session_budget)
            for k in range(admitted, len(payloads)):
                service.monitor.degradations.record(
                    "shed-load",
                    detail=f"connection {index} session {k}",
                )
            payloads = payloads[:admitted]
            session_budget -= admitted
        inject = (
            remaining_attacks > 0
            and scenario.attack_kind == "rop"
            and server == "nginx"
        )
        mid = len(payloads) // 2
        if scenario.mode == "closed":
            flags = [False] * len(payloads)
            if inject:
                payloads = list(payloads)
                payloads.insert(mid, rop_request())
                flags.insert(mid, True)
            proc = service.add_workload(server_pipeline(server), payloads)
            tracker.track_closed(proc, flags)
        else:
            # Staggered deterministic arrival schedule: connection i's
            # k-th request lands at (k//burst + 1)·interarrival·burst
            # + i's phase — bursts of ``burst`` back-to-back arrivals
            # at the same average rate; burst=1 is the classic
            # evenly-spaced (k+1)·interarrival schedule.
            burst = scenario.burst
            phase = index * scenario.interarrival / max(connections, 1)
            schedule = [
                (
                    (k // burst + 1) * scenario.interarrival * burst
                    + phase,
                    payload,
                    False,
                )
                for k, payload in enumerate(payloads)
            ]
            if inject:
                schedule.insert(
                    mid, (schedule[mid][0], rop_request(), True)
                )
            proc = service.add_workload(server_pipeline(server), [])
            tracker.track_open(proc, schedule)
        if inject:
            attacked.append(proc.pid)
            remaining_attacks -= 1
    if tel.enabled:
        tel.metrics.gauge("loadgen.offered_load").set(
            _offered_load(scenario, connections)
        )
    tracker.install(service.kernel)
    return service, tracker, attacked


def _offered_load(scenario: LoadScenario, connections: int) -> float:
    if scenario.mode == "open":
        return connections * 1e6 / scenario.interarrival
    return float(connections)


def outcome_digest(
    result, service, tracker: Optional[LoadTracker] = None
) -> str:
    """A fleet run's outcome — schedule, every verdict, quarantines and
    cycle totals, and with ``tracker`` the full request timeline —
    hashed."""
    outcome = {
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
    }
    if tracker is not None:
        outcome["timeline"] = tracker.timeline_digest()
    blob = json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_load_point(
    scenario: LoadScenario, connections: int
) -> LoadPointResult:
    """Build, run, and summarize one load point."""
    tel = get_telemetry()
    if tel.enabled and tel.plane is None:
        # Fresh counters per point: each point's series (the
        # resilience.events view of its ledger included) cover that
        # run alone.
        tel.reset()
    service, tracker, attacked = build_load_service(scenario, connections)
    result = service.run()
    return summarize_load_point(
        scenario, connections, service, tracker, attacked, result
    )


def summarize_load_point(
    scenario: LoadScenario,
    connections: int,
    service: FleetService,
    tracker: LoadTracker,
    attacked: List[int],
    result,
) -> LoadPointResult:
    """Distill one completed run into a :class:`LoadPointResult`.

    Shared by :func:`run_load_point` (which calls ``service.run()``)
    and the serving front-end (which drives the scheduler round-by-
    round itself and builds the result when its tenant drains).
    """
    makespan = result.makespan
    idle = tracker.total_idle_cycles
    busy_app = max(result.app_cycles - idle, 1e-9)
    throughput = (
        tracker.completed / makespan * 1e6 if makespan > 0 else 0.0
    )
    latency = tracker.latency_summary()
    latency["slo"] = tracker.latency_percentile(scenario.slo_percentile)

    quarantined = sorted(result.quarantined_pids)
    attacked_set = set(attacked)
    caught = [pid for pid in attacked if pid in set(quarantined)]
    detection_latency = None
    if attacked:
        waits = sorted(
            event.detected_at - event.enqueued_at
            for event in result.quarantines
            if event.pid in attacked_set
        )
        if waits:
            detection_latency = {
                "mean": sum(waits) / len(waits),
                "max": waits[-1],
            }
    ledger = (result.resilience or {}).get("ledger_reconcile") or {}
    return LoadPointResult(
        connections=connections,
        workers=service.config.workers,
        mode=scenario.mode,
        offered_load=_offered_load(scenario, connections),
        offered=tracker.offered,
        completed=tracker.completed,
        makespan=makespan,
        throughput=throughput,
        latency=latency,
        overhead=(result.monitor_cycles + result.stall_cycles) / busy_app,
        app_cycles=result.app_cycles,
        idle_cycles=idle,
        monitor_cycles=result.monitor_cycles,
        stall_cycles=result.stall_cycles,
        attacked_pids=list(attacked),
        quarantined_pids=quarantined,
        detection_rate=(
            len(caught) / len(attacked) if attacked else 1.0
        ),
        detection_latency=detection_latency,
        false_quarantines=len(
            [pid for pid in quarantined if pid not in attacked_set]
        ),
        accounting_exact=bool(result.accounting["exact"]),
        ledger_exact=bool(ledger.get("exact", True)),
        digest=outcome_digest(result, service, tracker),
        lag_p99=result.lag["p99"],
    )


def warm_pipelines(scenario: LoadScenario) -> None:
    """One throwaway run at full width, settling shared pipeline state.

    The cached server pipelines are shared across runs and the first
    slow-path excursion *promotes* verified ITC pairs back into them,
    so measured runs after this warm-up differ only by what is being
    measured (the same trick the observability experiment uses).
    """
    run_load_point(scenario, scenario.connections_upper_bound)
