"""Deterministic, seedable fault injection.

A :class:`FaultPlan` names the sites faults can fire at and how often;
a :class:`FaultInjector` executes the plan.  Determinism is the core
contract: every site owns an independent ``random.Random`` stream
seeded from ``(plan seed, site name)``, and every consultation of a
site advances only that site's stream.  Two runs of the same plan over
the same workload therefore inject byte-identical faults — the
property ``tests/test_resilience.py`` asserts — and changing how one
site is exercised never perturbs another site's draws.

Corruption is *loud by construction*: the injector stamps a run of
``0xFF`` bytes longer than the longest legal packet, so the fast
decoder is guaranteed to raise :class:`~repro.ipt.packets.PacketError`
at the stamp instead of silently reinterpreting garbage as control
flow (which would turn an injected integrity fault into a spurious CFI
violation).  The monitor's recovery path — bypass the segment cache,
re-sync at the next PSB, fall back to the slow path — is what the
injection exists to exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.configio import JsonConfig, to_dict

#: every site a FaultPlan can arm, with the subsystem it targets.
FAULT_SITES: Tuple[str, ...] = (
    "corrupt_drain",   # ToPA drain: stamp undecodable bytes
    "truncate_drain",  # ToPA drain: cut the snapshot tail
    "drop_pmi",        # swallow a buffer-full interrupt entirely
    "delay_pmi",       # deliver a buffer-full interrupt one quantum late
    "worker_crash",    # a checker worker dies mid-attempt
    "worker_hang",     # a checker worker wedges until the task timeout
    "fastpath_error",  # decode exception inside the fast path
    "slowpath_error",  # decode exception inside the slow path
)

#: longer than the longest legal packet (2-byte header + 8-byte IP), so
#: a stamp can never hide entirely inside one packet's payload.
_CORRUPT_STAMP_LEN = 16
_CORRUPT_BYTE = 0xFF


class InjectedFault(Exception):
    """An injected component failure (distinct from real decode errors
    so tests can tell the two apart; handled identically)."""


@dataclass(frozen=True)
class FaultSite(JsonConfig):
    """When one site fires.

    ``probability`` arms the site's RNG stream; ``at`` instead names
    the exact consultation indices (0-based) that fire — a schedule,
    for tests that need a fault at a known point.  ``limit`` caps the
    total number of firings either way.
    """

    probability: float = 0.0
    at: Optional[Tuple[int, ...]] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.at is not None and not isinstance(self.at, tuple):
            object.__setattr__(self, "at", tuple(self.at))

    @property
    def armed(self) -> bool:
        return self.probability > 0.0 or bool(self.at)

    def to_dict(self) -> dict:
        # A site names only what is set.
        return {key: value for key, value in to_dict(self).items()
                if value is not None}


def _site_field() -> FaultSite:
    return FaultSite()


@dataclass(frozen=True)
class FaultPlan(JsonConfig):
    """A complete, serialisable fault-injection configuration."""

    seed: int = 0
    corrupt_drain: FaultSite = field(default_factory=_site_field)
    truncate_drain: FaultSite = field(default_factory=_site_field)
    drop_pmi: FaultSite = field(default_factory=_site_field)
    delay_pmi: FaultSite = field(default_factory=_site_field)
    worker_crash: FaultSite = field(default_factory=_site_field)
    worker_hang: FaultSite = field(default_factory=_site_field)
    fastpath_error: FaultSite = field(default_factory=_site_field)
    slowpath_error: FaultSite = field(default_factory=_site_field)
    #: fraction of a task's cost a crashing attempt burns before dying.
    crash_fraction: float = 0.5
    #: cycles a hung attempt wedges for when no task timeout cancels it.
    hang_cycles: float = 250_000.0

    def site(self, name: str) -> FaultSite:
        if name not in FAULT_SITES:
            raise KeyError(f"unknown fault site {name!r}")
        return getattr(self, name)

    @property
    def active(self) -> bool:
        return any(self.site(name).armed for name in FAULT_SITES)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        # A plan names only its armed sites, after its scalars.
        out = {key: value for key, value in to_dict(self).items()
               if key not in FAULT_SITES}
        for name in FAULT_SITES:
            if self.site(name).armed:
                out[name] = self.site(name).to_dict()
        return out

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # -- canned mixes --------------------------------------------------------

    @classmethod
    def standard_mix(cls, seed: int = 0) -> "FaultPlan":
        """The BENCH_resilience fault mix: every subsystem under
        simultaneous low-rate failure, the regime the acceptance gates
        (100% detection, bounded p99 degradation) are checked in.
        Fast-path decode errors are kept an order of magnitude rarer
        than the transport faults: each one forces a full slow-path
        re-verification, the single most expensive recovery."""
        return cls(
            seed=seed,
            corrupt_drain=FaultSite(probability=0.04),
            truncate_drain=FaultSite(probability=0.03),
            drop_pmi=FaultSite(probability=0.05),
            delay_pmi=FaultSite(probability=0.05),
            worker_crash=FaultSite(probability=0.04),
            worker_hang=FaultSite(probability=0.02),
            fastpath_error=FaultSite(probability=0.004),
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` with per-site RNG streams."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rngs: Dict[str, random.Random] = {
            name: random.Random(f"{plan.seed}:{name}")
            for name in FAULT_SITES
        }
        #: consultations per site (advances on every ``fire``).
        self.consulted: Dict[str, int] = {name: 0 for name in FAULT_SITES}
        #: firings per site.
        self.fired: Dict[str, int] = {name: 0 for name in FAULT_SITES}

    # -- core draw -----------------------------------------------------------

    def fire(self, site_name: str) -> bool:
        """Consult one site; True when its fault fires this time.

        Every consultation advances the site's sequence number and (for
        probabilistic sites) its RNG — even when capped by ``limit`` —
        so firing patterns are a pure function of (plan, consultation
        index).
        """
        site = self.plan.site(site_name)
        index = self.consulted[site_name]
        self.consulted[site_name] = index + 1
        if site.at is not None:
            hit = index in site.at
        else:
            if site.probability <= 0.0:
                return False
            hit = self._rngs[site_name].random() < site.probability
        if hit and site.limit is not None \
                and self.fired[site_name] >= site.limit:
            return False
        if hit:
            self.fired[site_name] += 1
        return hit

    # -- drain mangling ------------------------------------------------------

    def mangle(self, data: bytes) -> Tuple[bytes, List[str]]:
        """Apply drain-byte faults to one ToPA snapshot.

        Returns the (possibly) mangled bytes plus the list of fault
        kinds applied, in application order: truncation first (cut the
        tail), then corruption (stamp undecodable bytes), mirroring a
        short DMA followed by a scribble.
        """
        events: List[str] = []
        if not data:
            return data, events
        if self.fire("truncate_drain") and len(data) > 1:
            rng = self._rngs["truncate_drain"]
            cut = rng.randrange(1, max(2, len(data) // 2))
            data = data[:-cut] if cut < len(data) else data[:1]
            events.append("truncate-drain")
        if self.fire("corrupt_drain") and data:
            rng = self._rngs["corrupt_drain"]
            # The stamp must land whole: a tail fragment of 8 bytes or
            # fewer could hide inside a single IP payload and decode as
            # a garbage (but quiet) control transfer.
            span = max(1, len(data) - _CORRUPT_STAMP_LEN + 1)
            pos = rng.randrange(span)
            stamp = bytes([_CORRUPT_BYTE]) * _CORRUPT_STAMP_LEN
            data = data[:pos] + stamp[: len(data) - pos] \
                + data[pos + _CORRUPT_STAMP_LEN:]
            events.append("corrupt-drain")
        return data, events

    # -- worker faults -------------------------------------------------------

    def worker_fault(self) -> Optional[str]:
        """One checker-worker attempt: 'crash', 'hang', or None."""
        if self.fire("worker_crash"):
            return "crash"
        if self.fire("worker_hang"):
            return "hang"
        return None

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "seed": self.plan.seed,
            "consulted": dict(self.consulted),
            "fired": dict(self.fired),
        }
