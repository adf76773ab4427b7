"""The FlowGuard kernel module (§5): per-process protection state,
syscall-table interception, fast/slow-path dispatch, enforcement.

Protection lifecycle::

    kernel = Kernel()
    monitor = FlowGuardMonitor(kernel)
    monitor.install()                       # swap endpoint handlers
    proc = kernel.spawn("nginx")
    monitor.protect(proc, labeled_itc, ocfg)  # configure IPT + CFGs
    kernel.run(proc)
    monitor.detections                      # CFI verdicts

On a violation the process is SIGKILLed and the detection reported —
the paper's enforcement action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.analysis.cfg import ControlFlowGraph
from repro.ipt.encoder import ENCODER_KINDS, IPTEncoder
from repro.ipt.msr import IPTConfig
from repro.ipt.topa import ToPA
from repro.itccfg.credits import CreditLabeledITC
from repro.itccfg.searchindex import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker, FastPathResult, Verdict
from repro.monitor.policy import FlowGuardPolicy
from repro.monitor.slowpath import SlowPathEngine
from repro.resilience.faults import FaultInjector, FaultPlan, InjectedFault
from repro.resilience.ledger import DegradationLedger
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.osmodel.syscalls import SIGKILL


@dataclass
class Detection:
    """One reported CFI violation."""

    pid: int
    syscall_nr: int
    path: str  # "fast" or "slow"
    reason: str
    edge: Optional[tuple] = None


@dataclass
class MonitorStats:
    """Cycle breakdown per protected process (Figure 5 phases).

    :meth:`charge` is the one writer of the decode/check/other
    accumulators: each charge lands in a ``(component, phase)`` cell
    and in the accumulator its phase folds into, so the cells are the
    fine-grained view (the cycle profiler sums them) and the
    accumulators the Figure 5 view, with nothing to reconcile between
    them.  ``trace_cycles`` is the encoder's cumulative count, copied
    in by :meth:`FlowGuardMonitor.stats_for`.
    """

    #: Which Figure 5 phases fold into which accumulator.
    PHASE_MAP: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "trace_cycles": ("trace",),
        "decode_cycles": ("decode",),
        "check_cycles": ("search", "shadow-stack"),
        "other_cycles": ("upcall", "intercept"),
    }

    trace_cycles: float = 0.0
    decode_cycles: float = 0.0
    check_cycles: float = 0.0
    other_cycles: float = 0.0
    checks: int = 0
    fast_passes: int = 0
    slow_path_runs: int = 0
    pmi_count: int = 0
    edges_checked: int = 0
    low_credit_edges: int = 0
    #: charged cycles by ``(component, phase)``.
    cells: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def charge(self, component: str, phase: str, cycles: float) -> None:
        """Charge ``cycles`` of ``phase`` work done by ``component``."""
        key = (component, phase)
        self.cells[key] = self.cells.get(key, 0.0) + cycles
        attr = _CHARGED_ACCUMULATOR[phase]
        setattr(self, attr, getattr(self, attr) + cycles)

    @property
    def total_cycles(self) -> float:
        return (
            self.trace_cycles
            + self.decode_cycles
            + self.check_cycles
            + self.other_cycles
        )

    @property
    def slow_path_rate(self) -> float:
        return self.slow_path_runs / self.checks if self.checks else 0.0

    @property
    def high_credit_edge_ratio(self) -> float:
        """Fraction of checked ITC edges that held a high credit —
        the Figure 5d cred-ratio metric."""
        if not self.edges_checked:
            return 0.0
        return 1.0 - self.low_credit_edges / self.edges_checked


#: phase -> the accumulator :meth:`MonitorStats.charge` adds it to
#: (``trace`` is absent: it is never charged per check).
_CHARGED_ACCUMULATOR = {
    phase: attr
    for attr, phases in MonitorStats.PHASE_MAP.items()
    if attr != "trace_cycles"
    for phase in phases
}


@dataclass
class ProtectedProcess:
    """Per-process protection state."""

    process: Process
    config: IPTConfig
    topa: ToPA
    encoder: IPTEncoder
    labeled: CreditLabeledITC
    index: FlowSearchIndex
    checker: FastPathChecker
    slow: SlowPathEngine
    stats: MonitorStats = field(default_factory=MonitorStats)


class FlowGuardMonitor:
    """The kernel module: owns interception and per-process state."""

    #: snapshot re-reads per check before giving up on a drain whose
    #: mangled bytes left no judgeable window (the ring still holds the
    #: real data; the fault model corrupts the DMA copy, not the ring).
    DRAIN_ATTEMPTS = 3

    def __init__(
        self,
        kernel: Kernel,
        policy: Optional[FlowGuardPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.kernel = kernel
        self.policy = policy if policy is not None else FlowGuardPolicy()
        self._telemetry = get_telemetry()
        #: deterministic fault plane (None = fault-free, bit-identical
        #: to a monitor built without the resilience layer).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(faults)
            if faults is not None and faults.active
            else None
        )
        #: audit trail of every degradation/recovery action taken.
        self.degradations = DegradationLedger()
        self.detections: List[Detection] = []
        self._protected: Dict[int, ProtectedProcess] = {}  # by CR3
        self._originals: Dict[int, object] = {}
        self._installed = False
        #: Optional ToPA constructor ``f(pmi_callback) -> ToPA``;
        #: subclasses (the fleet's per-process rings) override the
        #: paper's two-region 16 KiB default.
        self.topa_factory: Optional[Callable[[Callable[[], None]], ToPA]] = None
        kernel.spawn_hooks.append(self._on_exec)

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> None:
        """Swap the endpoint syscall-table entries (§5.2)."""
        if self._installed:
            return
        for nr in self.policy.endpoints:
            original = self.kernel.install_handler(
                nr, self._make_wrapper(nr)
            )
            self._originals[nr] = original
        self._installed = True

    def uninstall(self) -> None:
        """Restore the original syscall table."""
        for nr, original in self._originals.items():
            self.kernel.install_handler(nr, original)
        self._originals.clear()
        self._installed = False

    def protect(
        self,
        process: Process,
        labeled: CreditLabeledITC,
        ocfg: ControlFlowGraph,
        path_index=None,
    ) -> ProtectedProcess:
        """Start tracing and checking a process.

        Configures the RTIT MSRs with the paper's §5.1 settings (CR3
        filter on the target, user-only, ToPA output with two regions)
        and subscribes the packetizer to the CPU's CoFI bus.
        """
        config = IPTConfig.flowguard_defaults(process.cr3)
        if self.policy.psb_period:
            config.psb_period = self.policy.psb_period
        pp_holder: List[ProtectedProcess] = []

        def on_pmi() -> None:
            if pp_holder:
                self._on_pmi(pp_holder[0])

        if self.topa_factory is not None:
            topa = self.topa_factory(on_pmi)
        else:
            topa = ToPA.flowguard_default(pmi_callback=on_pmi)
        encoder = IPTEncoder(
            config, output=topa,
            current_cr3=lambda p=process: p.cr3,
        )
        index, checker, slow = self._checking_stack(
            process, labeled, ocfg, path_index
        )
        pp = ProtectedProcess(
            process=process,
            config=config,
            topa=topa,
            encoder=encoder,
            labeled=labeled,
            index=index,
            checker=checker,
            slow=slow,
        )
        pp_holder.append(pp)
        process.executor.add_listener(encoder.on_branch, ENCODER_KINDS)
        self._protected[process.cr3] = pp
        if self._telemetry.enabled:
            self._telemetry.profiler.register(pp, self.degradations.tenant)
        return pp

    def rebind(
        self,
        pp: "ProtectedProcess",
        labeled: CreditLabeledITC,
        ocfg: ControlFlowGraph,
        path_index=None,
    ) -> None:
        """Atomically swap a protected process onto a new CFG version.

        The serving front-end's hot O-CFG/ITC-CFG reload: a freshly
        trained pipeline's artifacts replace the live checking stack —
        labeled ITC, search index, fast-path checker, slow-path engine
        — without touching the trace plumbing (IPT unit, ToPA ring,
        encoder) or the process itself.  Verdicts are computed eagerly
        at submit time, so calling this between scheduler rounds can
        never change (or drop) a check already in flight; it only
        redirects checks submitted afterwards.
        """
        pp.index, pp.checker, pp.slow = self._checking_stack(
            pp.process, labeled, ocfg, path_index
        )
        pp.labeled = labeled

    def _checking_stack(
        self,
        process: Process,
        labeled: CreditLabeledITC,
        ocfg: ControlFlowGraph,
        path_index,
    ) -> Tuple[FlowSearchIndex, FastPathChecker, SlowPathEngine]:
        """The policy's checking stack over one CFG version: the search
        index, the fast-path checker over it and the slow-path engine
        (what :meth:`protect` builds and :meth:`rebind` swaps)."""
        policy = self.policy
        index = FlowSearchIndex(labeled)
        checker = FastPathChecker(
            index,
            process.image,
            pkt_count=policy.pkt_count,
            cred_ratio=policy.cred_ratio,
            require_cross_module=policy.require_cross_module,
            require_executable=policy.require_executable,
            path_index=path_index if policy.path_sensitive else None,
            ledger=self.degradations,
            owner_pid=process.pid,
        )
        slow = SlowPathEngine(process.machine.memory, ocfg)
        return index, checker, slow

    def auto_protect(
        self,
        program: str,
        labeled: CreditLabeledITC,
        ocfg: ControlFlowGraph,
        path_index=None,
    ) -> None:
        """Protect every current and future instance of ``program``.

        Hooks process creation (spawn, fork, execve) so forked workers
        and exec'd children are traced from their first instruction —
        the multi-process scenario §6's multi-CR3 suggestion targets.
        Each instance gets its own IPT unit and ToPA (as on real
        hardware, one per core), all checked against the shared trained
        CFG.
        """

        def hook(proc: Process) -> None:
            if proc.name == program and self.protected_for(proc) is None:
                self.protect(proc, labeled, ocfg, path_index=path_index)

        self.kernel.spawn_hooks.append(hook)
        self.kernel.exec_stop_hooks.append(hook)
        for proc in self.kernel.processes.values():
            hook(proc)

    def _detach(self, cr3: int) -> None:
        pp = self._protected.pop(cr3, None)
        if pp is not None:
            try:
                pp.process.executor.remove_listener(pp.encoder.on_branch)
            except ValueError:  # pragma: no cover - already detached
                pass

    def _on_exec(self, proc: Process) -> None:
        """Spawn hook: an execve gave ``proc`` a fresh CR3, so whatever
        FlowGuard protected under its old CR3 — the old image's encoder
        and checking stack — is stale.  ``auto_protect``'s hook, which
        runs after this one, re-protects the new image if it matches."""
        stale = [
            cr3 for cr3, pp in self._protected.items()
            if pp.process is proc and cr3 != proc.cr3
        ]
        for cr3 in stale:
            self._detach(cr3)

    def protected_for(self, process: Process) -> Optional[ProtectedProcess]:
        return self._protected.get(process.cr3)

    # -- interception -----------------------------------------------------------

    def _make_wrapper(self, nr: int):
        def wrapper(kernel: Kernel, proc: Process):
            # The installed handler first checks whether the syscall was
            # issued by a protected process (CR3 / pid), §5.2.
            pp = self._protected.get(proc.cr3)
            if pp is None or pp.process.pid != proc.pid:
                return self._originals[nr](kernel, proc)
            verdict = self._run_check(pp, nr)
            if verdict is Verdict.VIOLATION:
                kernel.kill_process(proc, SIGKILL)
                return -1
            return self._originals[nr](kernel, proc)

        return wrapper

    # -- checking -----------------------------------------------------------------

    def _run_check(
        self, pp: ProtectedProcess, nr: int, data: Optional[bytes] = None
    ) -> Verdict:
        """One endpoint check, observed: the observability plane (when
        attached) journals every verdict into the flight recorder and
        auto-dumps on VIOLATION.  The plane only reads state — verdicts
        and charged cycles are bit-identical with it detached.

        ``data`` is a ToPA snapshot the caller already took after
        flushing the encoder (the fleet's submit, drain and exit paths);
        None flushes and snapshots here."""
        verdict = self._run_check_inner(pp, nr, data)
        plane = self._telemetry.plane
        if plane is not None:
            plane.on_check(pp, nr, verdict)
        return verdict

    def _run_check_inner(
        self, pp: ProtectedProcess, nr: int, data: Optional[bytes]
    ) -> Verdict:
        tel = self._telemetry
        stats = pp.stats
        stats.checks += 1
        stats.charge("monitor.intercept", "intercept",
                     costs.MONITOR_INTERCEPT_CYCLES)
        if data is None:
            pp.encoder.flush()
            data = pp.topa.snapshot()
        result = self._fastpath_with_recovery(pp, data)
        stats.charge("monitor.fastpath", "decode", result.decode_cycles)
        stats.charge("monitor.fastpath", "search", result.search_cycles)
        stats.edges_checked += result.checked_pairs
        stats.low_credit_edges += len(result.low_credit_pairs)
        if tel.enabled:
            m = tel.metrics
            m.counter("monitor.checks").inc(
                path="slow" if result.verdict is Verdict.SUSPICIOUS
                else "fast"
            )
            m.counter("monitor.verdicts").inc(verdict=result.verdict.value)
            m.counter("monitor.edges_checked").inc(result.checked_pairs)
            m.counter("monitor.low_credit_edges").inc(
                len(result.low_credit_pairs)
            )

        if result.verdict is Verdict.VIOLATION:
            self.detections.append(
                Detection(
                    pid=pp.process.pid,
                    syscall_nr=nr,
                    path="fast",
                    reason="flow outside ITC-CFG: " + " -> ".join(
                        # None: an IP-suppressed TIP (fails closed).
                        "suppressed" if ip is None else f"{ip:#x}"
                        for ip in result.violation_edge
                    ),
                    edge=result.violation_edge,
                )
            )
            if tel.enabled:
                tel.metrics.counter("monitor.detections").inc(path="fast")
            return Verdict.VIOLATION

        if result.verdict in (Verdict.PASS, Verdict.INSUFFICIENT):
            stats.fast_passes += 1
            return Verdict.PASS

        # Suspicious: upcall into the slow path with the same window.
        return self._run_slow(pp, nr, result)

    def _fastpath_with_recovery(
        self, pp: ProtectedProcess, data: bytes
    ) -> FastPathResult:
        """Run the fast path over the ToPA snapshot ``data``, surviving
        the fault plane.  Fault-free (no injector) this is exactly one
        check — bit-identical to the pre-resilience monitor.

        Under faults, the drain bytes are mangled per the plan; an
        injected fast-path decode error downgrades the check to
        SUSPICIOUS over a raw tail decode (the slow path then delivers
        the verdict); and a drain whose corruption left no judgeable
        window is re-read from the ring up to ``DRAIN_ATTEMPTS`` times —
        the ring still holds the true bytes, only the DMA copy was
        mangled.  Every attempt's decode cost is charged.
        """
        inj = self.fault_injector
        if inj is None:
            return pp.checker.check(data)
        stats = pp.stats
        pid = pp.process.pid
        result: FastPathResult
        for attempt in range(1, self.DRAIN_ATTEMPTS + 1):
            mangled, drain_events = inj.mangle(data)
            for kind in drain_events:
                self.degradations.record(kind, pid=pid)
            try:
                if inj.fire("fastpath_error"):
                    raise InjectedFault("injected fast-path decode error")
                result = pp.checker.check(mangled)
            except InjectedFault:
                self.degradations.record(
                    "slowpath-fallback", pid=pid, detail="fastpath-error"
                )
                result = self._fastpath_surrogate(pp, mangled)
            blinded = (
                result.verdict is Verdict.INSUFFICIENT
                and result.corrupt_segments > 0
            )
            if blinded and attempt < self.DRAIN_ATTEMPTS:
                # Charge the wasted decode, audit, re-read the drain.
                self.degradations.record("retry", pid=pid,
                                         detail="drain-reread")
                stats.charge("monitor.fastpath", "decode",
                             result.decode_cycles)
                stats.charge("monitor.fastpath", "search",
                             result.search_cycles)
                continue
            break
        return result

    def _fastpath_surrogate(
        self, pp: ProtectedProcess, data: bytes
    ) -> FastPathResult:
        """The fast path crashed mid-check: decode the tail directly
        and mark the whole window SUSPICIOUS so the slow path (which
        shares no state with the fast checker) delivers the verdict."""
        checker = pp.checker
        tail = checker.decode_tail_columnar(data)
        result = checker.window_result(tail)
        if tail.count >= 2:
            result.verdict = Verdict.SUSPICIOUS
        return result

    def _run_slow(
        self, pp: ProtectedProcess, nr: int, result: FastPathResult
    ) -> Verdict:
        tel = self._telemetry
        stats = pp.stats
        stats.slow_path_runs += 1
        inj = self.fault_injector
        try:
            if inj is not None and inj.fire("slowpath_error"):
                raise InjectedFault("injected slow-path decode error")
            slow_result = pp.slow.check(
                result.slow_path_source(), result.window_ips,
                result.window_sigs,
            )
        except InjectedFault:
            # The engine died after the upcall: charge the upcall, audit
            # the downgrade, and fail open for this window — violations
            # are fast-path verdicts, so availability wins here.
            self.degradations.record(
                "slowpath-error", pid=pp.process.pid, detail=f"syscall={nr}"
            )
            stats.charge("monitor.slowpath", "upcall",
                         costs.SLOWPATH_UPCALL_CYCLES)
            return Verdict.PASS
        slow_decode = (
            slow_result.insns_decoded * costs.FULL_DECODE_CYCLES_PER_INSN
        )
        slow_check = max(
            0.0,
            slow_result.cycles - costs.SLOWPATH_UPCALL_CYCLES - slow_decode,
        )
        # The shadow-stack share is clamped into the check slice; every
        # check term is a multiple of 0.5, so the two charges sum to
        # ``slow_check`` exactly.
        shadow = min(slow_result.shadow_cycles, slow_check)
        stats.charge("monitor.slowpath", "decode", slow_decode)
        stats.charge("monitor.slowpath", "shadow-stack", shadow)
        stats.charge("monitor.slowpath", "search", slow_check - shadow)
        stats.charge("monitor.slowpath", "upcall",
                     costs.SLOWPATH_UPCALL_CYCLES)
        if tel.enabled:
            tel.metrics.counter("monitor.slow_path_insns").inc(
                slow_result.insns_decoded
            )
        if not slow_result.ok:
            self.detections.append(
                Detection(
                    pid=pp.process.pid,
                    syscall_nr=nr,
                    path="slow",
                    reason=slow_result.reason or "slow-path violation",
                )
            )
            if tel.enabled:
                tel.metrics.counter("monitor.detections").inc(path="slow")
            return Verdict.VIOLATION
        if self.policy.cache_slow_path_negatives:
            for src, dst, sig in slow_result.confirmed_pairs:
                pp.labeled.promote(src, dst, sig)
                pp.index.promote(src, dst, sig)
            if tel.enabled:
                tel.metrics.counter("monitor.promotions").inc(
                    len(slow_result.confirmed_pairs)
                )
        return Verdict.PASS

    def _on_pmi(self, pp: ProtectedProcess) -> None:
        inj = self.fault_injector
        if inj is not None and inj.fire("drop_pmi"):
            # The interrupt never reached the handler; the ring keeps
            # filling and the next endpoint check covers the window.
            self.degradations.record("pmi-drop", pid=pp.process.pid)
            return
        self.count_pmi(pp)
        if self.policy.check_on_pmi:
            verdict = self._run_check(pp, -1)
            if verdict is Verdict.VIOLATION:
                self.kernel.kill_process(pp.process, SIGKILL)

    def count_pmi(self, pp: ProtectedProcess) -> None:
        """Count one PMI that reached the handler (the one writer of
        ``pmi_count`` and the ``monitor.pmi`` counter)."""
        pp.stats.pmi_count += 1
        if self._telemetry.enabled:
            self._telemetry.metrics.counter("monitor.pmi").inc()

    # -- reporting -----------------------------------------------------------------

    def stats_for(self, process: Process) -> MonitorStats:
        pp = self._protected.get(process.cr3)
        if pp is None:
            raise KeyError(f"process {process.pid} is not protected")
        stats = pp.stats
        stats.trace_cycles = pp.encoder.cycles
        return stats

    def all_stats(self) -> List[MonitorStats]:
        """Refreshed stats for every protected process."""
        return [
            self.stats_for(pp.process) for pp in self._protected.values()
        ]

    def report(self) -> dict:
        """A JSON-compatible operational report across all protected
        processes: per-process cycle breakdowns, check counts, and
        every detection — what an administrator would ship to their
        logging pipeline (§5.2: "reports the detection ... to the
        administrators or users")."""
        return {
            "policy": {
                "pkt_count": self.policy.pkt_count,
                "cred_ratio": self.policy.cred_ratio,
                "endpoints": sorted(self.policy.endpoints),
                "check_on_pmi": self.policy.check_on_pmi,
                "path_sensitive": self.policy.path_sensitive,
            },
            "processes": [
                {
                    "pid": pp.process.pid,
                    "name": pp.process.name,
                    "cr3": pp.process.cr3,
                    "checks": pp.stats.checks,
                    "fast_passes": pp.stats.fast_passes,
                    "slow_path_runs": pp.stats.slow_path_runs,
                    "pmi_count": pp.stats.pmi_count,
                    "trace_cycles": pp.encoder.cycles,
                    "decode_cycles": pp.stats.decode_cycles,
                    "check_cycles": pp.stats.check_cycles,
                    "other_cycles": pp.stats.other_cycles,
                    "high_credit_edge_ratio":
                        pp.stats.high_credit_edge_ratio,
                }
                for pp in self._protected.values()
            ],
            "detections": [
                {
                    "pid": det.pid,
                    "syscall": int(det.syscall_nr),
                    "path": det.path,
                    "reason": det.reason,
                }
                for det in self.detections
            ],
        }

    def overhead_for(self, process: Process) -> float:
        """Monitoring overhead relative to the process's own cycles."""
        stats = self.stats_for(process)
        app_cycles = process.executor.cycles
        return stats.total_cycles / app_cycles if app_cycles else 0.0
