"""Bounded retry with an exact exponential-backoff schedule.

The fleet dispatcher re-attempts a check whose worker crashed, hung, or
timed out; :class:`RetryPolicy` defines exactly when.  The schedule is
closed-form — ``delay(n) = min(cap, base * factor**(n-1))`` simulated
cycles after the *n*-th failed attempt — so tests can assert it to the
cycle rather than sampling it.  A check that exhausts its attempts
becomes a :class:`DeadLetter`: it is never silently dropped, and under
the default fail-closed policy the owning process is quarantined,
because an unverifiable trace window is indistinguishable from a
successful attack on the monitor itself (the availability-vs-security
trade-off Burow et al. make explicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import configio
from repro.configio import JsonConfig


@dataclass(frozen=True)
class RetryPolicy(JsonConfig):
    """When and how the dispatcher re-attempts a failed check."""

    #: total attempts including the first (1 = no retries).
    max_attempts: int = 3
    #: backoff after the first failure, in simulated cycles.
    backoff_base: float = 500.0
    #: multiplier per subsequent failure.
    backoff_factor: float = 2.0
    #: ceiling on any single delay.
    backoff_cap: float = 60_000.0
    #: cancel an attempt still running after this many cycles
    #: (0 = no timeout; hung workers then burn ``hang_cycles``).
    task_timeout: float = 0.0
    #: hedge hung attempts: re-issue the check this many cycles after
    #: dispatch instead of waiting out the timeout (0 = off; the task
    #: then waits for the watchdog).  The wedged attempt still burns
    #: its timeout in the background — hedging trades spare worker
    #: capacity for tail latency, it never hides the waste.
    hedge_delay: float = 0.0
    #: dead-lettered checks quarantine their process (fail closed)
    #: rather than leaving the window unverified (fail open).
    dead_letter_quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.task_timeout < 0:
            raise ValueError("task_timeout must be non-negative")
        if self.hedge_delay < 0:
            raise ValueError("hedge_delay must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th failed attempt (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )

    def schedule(self, n: int = None) -> List[float]:
        """The full delay schedule: one entry per possible retry."""
        if n is None:
            n = self.max_attempts - 1
        return [self.delay(i) for i in range(1, n + 1)]


@dataclass(frozen=True)
class DeadLetter:
    """A check the dispatcher gave up on after exhausting retries."""

    task_id: int
    pid: int
    #: the final failure kind ('crash', 'hang', 'timeout').
    kind: str
    attempts: int
    #: fault history across attempts, oldest first.
    last_fault: str = ""
    #: fleet-clock time the check was abandoned.
    at: float = 0.0

    def to_dict(self) -> dict:
        return configio.to_dict(self)
