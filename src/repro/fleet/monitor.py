"""Asynchronous endpoint interception for the fleet.

``FleetMonitor`` keeps the whole FlowGuard checking stack —
``_run_check``, the fast/slow dispatch, ``MonitorStats``, telemetry —
and changes only *when things happen*:

- endpoint syscalls hand the check to the dispatcher instead of
  blocking on it; the syscall proceeds immediately and a violation
  verdict takes effect when the checker worker finishes (the paper's
  asynchronous detection window),
- PMIs route to the process's :class:`~repro.fleet.rings.ProcessRing`,
  which applies the configured buffer-full policy (stall or lossy)
  rather than checking inline.

Every protected process gets its own CR3-filtered IPT unit *and* its
own fleet ring through the overridden :meth:`protect`.  Only
top-level processes the service registered are ever stalled (their
ring has an executor attached).
"""

from __future__ import annotations

from typing import Dict

from repro.monitor.flowguard import FlowGuardMonitor, ProtectedProcess
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process

from repro.fleet.dispatcher import FleetDispatcher
from repro.fleet.rings import ProcessRing, RingPolicy, make_ring_topa


class FleetMonitor(FlowGuardMonitor):
    """FlowGuard with deferred verdicts and per-process fleet rings."""

    def __init__(
        self,
        kernel: Kernel,
        dispatcher: FleetDispatcher,
        clock,
        ring_policy: RingPolicy = RingPolicy.STALL,
        ring_bytes: int = 16384,
        policy=None,
        faults=None,
    ) -> None:
        super().__init__(kernel, policy=policy, faults=faults)
        self.dispatcher = dispatcher
        self.clock = clock
        self.ring_policy = ring_policy
        self.ring_bytes = ring_bytes
        self.rings: Dict[int, ProcessRing] = {}  # by pid
        self.topa_factory = (
            lambda pmi_callback: make_ring_topa(self.ring_bytes, pmi_callback)
        )

    # -- protection ----------------------------------------------------------

    def protect(
        self, process: Process, labeled, ocfg, path_index=None
    ) -> ProtectedProcess:
        pp = super().protect(process, labeled, ocfg, path_index=path_index)
        self.rings[process.pid] = ProcessRing(
            topa=pp.topa, policy=self.ring_policy
        )
        return pp

    def attach_executor(self, process: Process) -> ProcessRing:
        """Mark a process as fleet-scheduled: its ring may now assert
        the executor's interrupt line (stall policy).  Inline children
        are never attached, so they can't deadlock a parent's wait()."""
        ring = self.rings[process.pid]
        ring.executor = process.executor
        return ring

    # -- event routing -------------------------------------------------------

    def _on_pmi(self, pp: ProtectedProcess) -> None:
        ring = self.rings.get(pp.process.pid)
        inj = self.fault_injector
        if inj is not None:
            if inj.fire("drop_pmi"):
                # Swallowed interrupt: the ring keeps filling and wraps
                # (drop-oldest); the next drain detects the loss and
                # forces a PSB re-sync — the designed degradation.
                self.degradations.record("pmi-drop", pid=pp.process.pid)
                return
            if ring is not None and inj.fire("delay_pmi"):
                # Interrupt skid beyond the usual: delivery is deferred
                # to the process's next scheduling quantum.
                self.degradations.record("pmi-delay", pid=pp.process.pid)
                ring.delayed_pmi = True
                return
        self.count_pmi(pp)
        if ring is not None:
            ring.on_pmi()

    def _make_wrapper(self, nr: int):
        def wrapper(kernel: Kernel, proc: Process):
            pp = self._protected.get(proc.cr3)
            if pp is None or pp.process.pid != proc.pid:
                return self._originals[nr](kernel, proc)
            self.dispatcher.submit(pp, nr, "endpoint", self.clock.now)
            ring = self.rings.get(proc.pid)
            if (
                ring is not None
                and ring.executor is not None
                and self.dispatcher.policy is RingPolicy.STALL
                and self.dispatcher.congested(self.clock.now)
            ):
                # Backpressure: let this syscall complete, then hold the
                # process off-CPU until the check queue eases.
                ring.executor.stop_requested = True
            # Unlike solo mode the syscall always proceeds: enforcement
            # happens when the verdict lands (kill + quarantine).
            return self._originals[nr](kernel, proc)

        return wrapper
