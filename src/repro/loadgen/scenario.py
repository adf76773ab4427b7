"""Declarative load scenarios: one JSON document per benchmark shape.

A :class:`LoadScenario` describes everything a bench run needs —
server mix, request mix, loop mode, attack and fault plans, the
latency SLO, and the sweep/search bounds.  Its JSON form is the one
:mod:`repro.configio` gives every run config (unknown keys rejected,
the nested fault plan and retry policy included).

Builtin scenarios live in :data:`BUILTIN_SCENARIOS`; the bundled
copies under ``examples/scenarios/`` are their JSON forms (a test
keeps them byte-identical).  ``resolve_scenario`` accepts either a
builtin name or a JSON file path — the ``repro bench --scenario``
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro import configio
from repro.fleet.rings import RingPolicy
from repro.loadgen.mixes import MIX_NAMES
from repro.resilience import FaultPlan, RetryPolicy

_MODES = ("closed", "open")
_SERVERS = ("nginx", "vsftpd", "openssh", "exim")
_ATTACKS = ("rop",)


@dataclass
class LoadScenario(configio.JsonConfig):
    """Everything one bench run needs, as data."""

    name: str = "nginx-closed"
    #: ``closed`` — each connection issues its next request at the
    #: previous completion; ``open`` — requests arrive on a fixed
    #: schedule regardless of completions (overload is measurable).
    mode: str = "closed"
    #: server programs assigned round-robin across connections.
    servers: Tuple[str, ...] = ("nginx",)
    #: request mix name (see :mod:`repro.loadgen.mixes`).
    mix: str = "varied"
    #: requests per connection (closed loop) / arrivals per
    #: connection (open loop).
    sessions: int = 3
    #: open loop only: cycles between consecutive arrivals on one
    #: connection's schedule.
    interarrival: float = 60_000.0
    #: open loop only: arrivals land in back-to-back clusters of this
    #: size, ``burst * interarrival`` apart — the same average offered
    #: load as ``burst=1``, but clumped (queueing pressure at the same
    #: rate).  1 = the classic evenly-spaced schedule.
    burst: int = 1
    #: attack injection: kind (``rop`` or None) and how many
    #: connections get one mid-stream exploit request each.
    attack_kind: Optional[str] = None
    attack_count: int = 0
    #: deterministic fault plan + retry policy (None = clean run).
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    #: the latency SLO: ``percentile`` of per-request latency must stay
    #: at or under ``slo_latency`` fleet-clock cycles.
    slo_latency: float = 60_000.0
    slo_percentile: float = 99.0
    #: sweep/search bounds over concurrent connections (the ampere
    #: ``connections_lower_bound``/``upper_bound`` idiom).
    connections_lower_bound: int = 1
    connections_upper_bound: int = 8
    sweep_step: int = 1
    #: fleet shape per load point.
    workers: int = 2
    quantum: float = 2000.0
    ring_bytes: int = 2048
    ring_policy: str = "stall"
    max_queue_depth: int = 64
    seed: int = 0

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.servers:
            raise ValueError("scenario needs at least one server")
        for server in self.servers:
            if server not in _SERVERS:
                raise ValueError(f"unknown server {server!r}")
        if self.mix not in MIX_NAMES:
            raise ValueError(f"unknown mix {self.mix!r}")
        if self.attack_kind is not None and self.attack_kind not in _ATTACKS:
            raise ValueError(f"unknown attack kind {self.attack_kind!r}")
        if self.attack_count > 0 and self.attack_kind is None:
            raise ValueError("attack_count set without attack_kind")
        if self.attack_count > 0 and "nginx" not in self.servers:
            raise ValueError("rop attack injection needs nginx in servers")
        if self.connections_lower_bound < 1:
            raise ValueError("connections_lower_bound must be >= 1")
        if self.connections_upper_bound < self.connections_lower_bound:
            raise ValueError("connections_upper_bound < lower bound")
        if self.sweep_step < 1:
            raise ValueError("sweep_step must be >= 1")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.interarrival <= 0:
            raise ValueError("interarrival must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.slo_latency <= 0:
            raise ValueError("slo_latency must be positive")
        if not 0 < self.slo_percentile <= 100:
            raise ValueError("slo_percentile must be in (0, 100]")
        RingPolicy(self.ring_policy)  # raises on unknown value

    def with_seed(self, seed: int) -> "LoadScenario":
        """A copy reseeded end to end (mixes + fleet + fault streams)."""
        out = replace(self, seed=seed)
        if out.faults is not None:
            out = replace(out, faults=out.faults.with_seed(seed))
        return out


# -- builtin registry --------------------------------------------------------


def _nginx_closed() -> LoadScenario:
    """The ab/wrk analogue: one nginx farm, closed-loop clients."""
    return LoadScenario(name="nginx-closed")


def _mixed_open() -> LoadScenario:
    """Open-loop arrivals against a mixed nginx+exim fleet — offered
    load keeps coming whether or not the servers keep up."""
    return LoadScenario(
        name="mixed-open",
        mode="open",
        servers=("nginx", "exim"),
        sessions=3,
        interarrival=60_000.0,
        connections_upper_bound=6,
        slo_latency=200_000.0,
    )


def _faulted_closed() -> LoadScenario:
    """The resilience scenario: closed loop under the standard fault
    mix, lossy rings, retries armed — throughput degrades but the
    ledgers must still reconcile exactly."""
    return LoadScenario(
        name="faulted-closed",
        servers=("nginx", "exim"),
        ring_policy="lossy",
        connections_upper_bound=4,
        faults=FaultPlan.standard_mix(seed=42),
        retry=RetryPolicy(
            max_attempts=4,
            task_timeout=2_000.0,
            backoff_base=50.0,
            backoff_cap=400.0,
            hedge_delay=250.0,
        ),
    )


def _bursty_open() -> LoadScenario:
    """Bursty open-loop arrivals against a vsftpd+openssh mix: requests
    land in back-to-back clusters of three, same average rate as the
    evenly-spaced schedule — measures how the fleet absorbs clumped
    offered load without dropping the SLO."""
    return LoadScenario(
        name="bursty-open",
        mode="open",
        servers=("vsftpd", "openssh"),
        sessions=3,
        interarrival=60_000.0,
        burst=3,
        connections_upper_bound=6,
        slo_latency=200_000.0,
    )


def _smoke() -> LoadScenario:
    """Tiny CI scenario: seconds, not minutes."""
    return LoadScenario(
        name="smoke",
        sessions=2,
        connections_upper_bound=2,
        workers=1,
    )


BUILTIN_SCENARIOS: Dict[str, Callable[[], LoadScenario]] = {
    "nginx-closed": _nginx_closed,
    "mixed-open": _mixed_open,
    "bursty-open": _bursty_open,
    "faulted-closed": _faulted_closed,
    "smoke": _smoke,
}


def builtin_scenario(name: str) -> LoadScenario:
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin scenario {name!r} "
            f"(have: {', '.join(sorted(BUILTIN_SCENARIOS))})"
        ) from None
    scenario = factory()
    scenario.validate()
    return scenario


def resolve_scenario(ref: str) -> LoadScenario:
    """A scenario from a builtin name or a JSON file path."""
    return configio.resolve(ref, BUILTIN_SCENARIOS, LoadScenario, "scenario")
