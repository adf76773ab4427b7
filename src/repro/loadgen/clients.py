"""Closed/open-loop client generators over the virtual clock.

The simulator has no real clients — connections are queued onto a
process and the server's accept loop drains them.  The
:class:`LoadTracker` turns that into a measured load generator by
wrapping the ``accept``/``close`` syscall-table entries (the same
kernel-module mechanism the monitor uses) and timestamping each
request's lifecycle against the fleet clock:

- **closed loop** — all requests are queued up front; a connection's
  request *k* is considered issued the instant request *k−1*
  completed (zero think time), so per-request latency is the service
  time the client actually experiences, including scheduling,
  monitor interception, and ring stalls.
- **open loop** — requests arrive on a fixed schedule.  Due arrivals
  are moved into the process's pending queue when it calls
  ``accept``; if the queue is empty and the next arrival is in the
  future, the accept *blocks*: the process's cycle counter jumps to
  the arrival time (charged separately as ``idle_cycles``, excluded
  from overhead denominators).  Latency is measured from the
  scheduled arrival, so an overloaded server shows unbounded queueing
  delay — exactly what closed loops cannot show.

Everything is deterministic: the wrappers read the pinned fleet clock
(exact cycle resolution mid-quantum) and touch no RNG.  Telemetry
emission is guarded by ``tel.enabled`` so an uninstrumented bench run
stays bit-identical to an instrumented one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import configio
from repro.isa.registers import R1
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import FDKind, Process
from repro.osmodel.syscalls import Sys
from repro.telemetry import get_telemetry
from repro.telemetry.metrics import nearest_rank


@dataclass
class RequestRecord:
    """One request's measured lifecycle on the fleet clock."""

    pid: int
    server: str
    index: int  # per-connection sequence number
    attack: bool
    issued_at: float
    accepted_at: float = -1.0
    completed_at: float = -1.0

    @property
    def completed(self) -> bool:
        return self.completed_at >= 0.0

    @property
    def latency(self) -> float:
        """Issue-to-completion latency (0 until completed)."""
        if not self.completed:
            return 0.0
        return self.completed_at - self.issued_at

    def to_dict(self) -> dict:
        return {**configio.to_dict(self), "latency": self.latency}


@dataclass
class _Arrival:
    at: float
    payload: bytes
    attack: bool = False


@dataclass
class _PidState:
    server: str
    mode: str  # "closed" | "open"
    #: open loop: arrivals not yet delivered, ascending by ``at``.
    schedule: List[_Arrival] = field(default_factory=list)
    #: open loop: issue metadata for delivered-but-unaccepted arrivals,
    #: in delivery (= accept) order.
    delivered: List[_Arrival] = field(default_factory=list)
    #: closed loop: attack flag per request index (push order).
    attack_flags: List[bool] = field(default_factory=list)
    accept_seq: int = 0
    last_completion: Optional[float] = None
    #: id(connection) -> in-flight record.
    inflight: Dict[int, RequestRecord] = field(default_factory=dict)
    idle_cycles: float = 0.0


class LoadTracker:
    """Per-request timing + loadgen telemetry for one fleet run."""

    def __init__(
        self,
        clock,
        slo_latency: Optional[float] = None,
        slo_percentile: float = 99.0,
        tenant: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.slo_latency = slo_latency
        self.slo_percentile = slo_percentile
        self.tenant = tenant
        #: extra labels on every loadgen metric (service mode tags the
        #: tenant so per-tenant series fan out of the shared registry).
        self._labels: Dict[str, str] = (
            {} if tenant is None else {"tenant": tenant}
        )
        self.records: List[RequestRecord] = []
        self.offered = 0
        self.completed = 0
        self._pids: Dict[int, _PidState] = {}
        self._latencies: List[float] = []  # kept sorted (bisect.insort)
        self._installed = False

    # -- registration --------------------------------------------------------

    def track_closed(
        self, proc: Process, attack_flags: Sequence[bool]
    ) -> None:
        """Track a process whose requests are already queued (closed
        loop); ``attack_flags[k]`` marks request *k* as an exploit."""
        self._pids[proc.pid] = _PidState(
            server=proc.name, mode="closed",
            attack_flags=list(attack_flags),
        )

    def track_open(
        self, proc: Process, schedule: Sequence[Tuple[float, bytes, bool]]
    ) -> None:
        """Track a process fed by an arrival schedule (open loop):
        ``(arrival_cycle, payload, is_attack)`` tuples, ascending."""
        arrivals = [_Arrival(at, payload, attack)
                    for at, payload, attack in schedule]
        arrivals.sort(key=lambda a: a.at)
        self._pids[proc.pid] = _PidState(
            server=proc.name, mode="open", schedule=arrivals,
        )

    # -- kernel instrumentation ----------------------------------------------

    def install(self, kernel: Kernel) -> None:
        """Wrap accept/close *outermost* (after the monitor installs),
        chaining to whatever handler is already in the table."""
        if self._installed:
            return
        orig_accept = kernel.install_handler(
            Sys.ACCEPT,
            lambda k, p: self._on_accept(k, p),
        )
        orig_close = kernel.install_handler(
            Sys.CLOSE,
            lambda k, p: self._on_close(k, p),
        )
        self._orig_accept = orig_accept
        self._orig_close = orig_close
        self._installed = True

    def _feed_due(self, proc: Process, st: _PidState, now: float) -> None:
        while st.schedule and st.schedule[0].at <= now:
            arrival = st.schedule.pop(0)
            proc.push_connection(arrival.payload)
            st.delivered.append(arrival)
            self._on_issue(st)

    def _on_accept(self, kernel: Kernel, proc: Process) -> int:
        st = self._pids.get(proc.pid)
        if st is None:
            return self._orig_accept(kernel, proc)
        if st.mode == "open" and st.schedule:
            now = self.clock.now
            self._feed_due(proc, st, now)
            if not proc.pending_connections and st.schedule:
                # Blocking accept: sleep (spin, on this one-CPU fleet)
                # until the next scheduled arrival.
                gap = st.schedule[0].at - now
                st.idle_cycles += gap
                proc.executor.cycles += gap
                tel = get_telemetry()
                if tel.enabled:
                    tel.metrics.counter("loadgen.idle_cycles").inc(
                        gap, server=st.server, **self._labels
                    )
                self._feed_due(proc, st, self.clock.now)
        rc = self._orig_accept(kernel, proc)
        if rc >= 0:
            fd = proc.fds.get(rc)
            if fd is not None and fd.conn is not None:
                self._record_accept(proc, st, fd.conn)
        return rc

    def _on_close(self, kernel: Kernel, proc: Process) -> int:
        rec = None
        st = self._pids.get(proc.pid)
        if st is not None:
            fd = proc.fds.get(proc.machine.reg(R1))
            if (
                fd is not None
                and fd.kind is FDKind.CONN
                and fd.conn is not None
            ):
                rec = st.inflight.pop(id(fd.conn), None)
        rc = self._orig_close(kernel, proc)
        if rec is not None and rc == 0:
            self._record_completion(st, rec)
        return rc

    # -- lifecycle events ----------------------------------------------------

    def _on_issue(self, st: _PidState) -> None:
        self.offered += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("loadgen.offered").inc(
                server=st.server, **self._labels
            )
            tel.metrics.gauge("loadgen.inflight").set(
                self.offered - self.completed, **self._labels
            )

    def _record_accept(self, proc, st: _PidState, conn) -> None:
        now = self.clock.now
        index = st.accept_seq
        st.accept_seq += 1
        if st.mode == "open":
            if not st.delivered:  # a connection we did not schedule
                return
            arrival = st.delivered.pop(0)
            issued, attack = arrival.at, arrival.attack
        else:
            # Zero-think-time client: the next request is issued the
            # instant the previous one completed.  The first request is
            # issued at its own accept, so latency excludes startup.
            issued = (
                st.last_completion
                if st.last_completion is not None
                else now
            )
            attack = (
                st.attack_flags[index]
                if index < len(st.attack_flags)
                else False
            )
            self._on_issue(st)
        rec = RequestRecord(
            pid=proc.pid, server=st.server, index=index,
            attack=attack, issued_at=issued, accepted_at=now,
        )
        st.inflight[id(conn)] = rec
        self.records.append(rec)

    def _record_completion(self, st: _PidState, rec: RequestRecord) -> None:
        now = self.clock.now
        rec.completed_at = now
        st.last_completion = now
        self.completed += 1
        bisect.insort(self._latencies, rec.latency)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("loadgen.completed").inc(
                server=st.server, **self._labels
            )
            tel.metrics.histogram("loadgen.latency").observe(
                rec.latency, server=st.server, **self._labels
            )
            tel.metrics.gauge("loadgen.inflight").set(
                self.offered - self.completed, **self._labels
            )
            if self.slo_latency is not None:
                tel.metrics.gauge("loadgen.slo_headroom").set(
                    self.slo_latency
                    - self.latency_percentile(self.slo_percentile),
                    **self._labels,
                )

    # -- results -------------------------------------------------------------

    @property
    def total_idle_cycles(self) -> float:
        return sum(st.idle_cycles for st in self._pids.values())

    def latency_percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over completed requests."""
        return nearest_rank(self._latencies, q)

    def latency_summary(self) -> Dict[str, float]:
        lats = self._latencies
        return {
            "count": float(len(lats)),
            "mean": sum(lats) / len(lats) if lats else 0.0,
            "p50": nearest_rank(lats, 50),
            "p95": nearest_rank(lats, 95),
            "p99": nearest_rank(lats, 99),
            "max": lats[-1] if lats else 0.0,
        }

    def timeline_digest(self) -> str:
        """The full request timeline, hashed — the witness that two
        runs served identical load identically."""
        blob = json.dumps(
            [
                (
                    r.pid, r.server, r.index, r.attack,
                    round(r.issued_at, 6),
                    round(r.accepted_at, 6),
                    round(r.completed_at, 6),
                )
                for r in self.records
            ],
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()
