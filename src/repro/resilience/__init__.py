"""repro.resilience — deterministic fault injection and recovery.

The paper's monitor must stay correct under hostile runtime conditions:
ToPA stalls and lossy PMIs are *environmental* pressure the fleet
already simulates, but a production monitor also survives failures of
its own components — corrupted trace bytes, crashed checker workers,
decode timeouts.  This package provides:

- :class:`FaultPlan` / :class:`FaultInjector` — a seedable,
  bit-reproducible fault plane.  Every site (drain corruption, PMI
  drop/delay, worker crash/hang, fast/slow-path decode errors) draws
  from its own deterministic RNG stream, so the same plan and seed
  produce the same fault sequence regardless of how sites interleave.
- :class:`RetryPolicy` / :class:`DeadLetter` — bounded retry with an
  exact exponential-backoff schedule, per-task timeouts, and a
  dead-letter queue for checks that can never be verified (fail-closed:
  the owning process is quarantined rather than left unverified).
- :class:`DegradationLedger` — the one record of every downgrade the
  monitor takes (cache bypass, PSB re-sync, fast→slow fallback, retry,
  dead-letter, drop, quarantine); its wasted cycles balance exactly
  against the dispatcher's retry cycles, and so the fleet cycle ledger.

See DESIGN.md ("Resilience") for the fault taxonomy and the
degradation state machine.
"""

from repro.resilience.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSite,
    InjectedFault,
)
from repro.resilience.ledger import DegradationEvent, DegradationLedger
from repro.resilience.retry import DeadLetter, RetryPolicy

__all__ = [
    "FAULT_SITES",
    "DeadLetter",
    "DegradationEvent",
    "DegradationLedger",
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "InjectedFault",
    "RetryPolicy",
]
