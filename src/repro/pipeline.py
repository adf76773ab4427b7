"""High-level FlowGuard pipeline: the library's front door.

Wraps the full offline → runtime workflow of Figure 1:

1. static analysis of the executable and its libraries into the
   conservative O-CFG (step 1),
2. ITC-CFG reconstruction + fuzzing-corpus credit training (step 2),
3. kernel-module installation, per-process IPT configuration (step 3),
4. endpoint interception (step 4) and hybrid flow checking (step 5).

Example::

    pipeline = FlowGuardPipeline.offline(
        "nginx", build_nginx(), {"libsim.so": build_libsim()},
        vdso=build_vdso(), corpus=[nginx_request("/a")], mode="socket",
    )
    kernel = Kernel()
    monitor, proc = pipeline.deploy(kernel)
    proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    assert not monitor.detections
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.telemetry import get_telemetry
from repro.analysis.build import build_ocfg
from repro.analysis.cfg import ControlFlowGraph
from repro.binary.loader import Loader
from repro.binary.module import Module
from repro.fuzz.training import TrainingReport, train_credits
from repro.itccfg.construct import ITCCFG, build_itccfg
from repro.itccfg.credits import CreditLabeledITC
from repro.itccfg.paths import PathIndex
from repro.monitor.flowguard import FlowGuardMonitor
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process


@dataclass
class FlowGuardPipeline:
    """Offline artifacts for one protected program."""

    program: str
    exe: Module
    libraries: Dict[str, Module]
    vdso: Optional[Module]
    ocfg: ControlFlowGraph
    itc: ITCCFG
    labeled: CreditLabeledITC
    training: Optional[TrainingReport] = None
    mode: str = "socket"
    #: trained k-gram paths for the path-sensitive fast-path extension.
    path_index: Optional[PathIndex] = None

    @classmethod
    def offline(
        cls,
        program: str,
        exe: Module,
        libraries: Optional[Dict[str, Module]] = None,
        vdso: Optional[Module] = None,
        corpus: Iterable[bytes] = (),
        mode: str = "socket",
        kernel_setup=None,
    ) -> "FlowGuardPipeline":
        """Run the whole offline phase (Figure 2).

        Module bases are deterministic (no ASLR, §3.3), so the CFG built
        from a reference load is valid for every process instance.
        """
        tel = get_telemetry()
        libraries = dict(libraries or {})
        with tel.tracer.span("offline.pipeline", program=program):
            with tel.tracer.span("offline.load", program=program):
                image = Loader(libraries, vdso=vdso).load(exe)
            with tel.tracer.span("offline.ocfg", program=program):
                ocfg = build_ocfg(image)
            with tel.tracer.span("offline.itccfg", program=program):
                itc = build_itccfg(ocfg)
            labeled = CreditLabeledITC(itc=itc)
            pipeline = cls(
                program=program,
                exe=exe,
                libraries=libraries,
                vdso=vdso,
                ocfg=ocfg,
                itc=itc,
                labeled=labeled,
                mode=mode,
            )
            corpus = list(corpus)
            if corpus:
                pipeline.path_index = PathIndex()
                with tel.tracer.span(
                    "offline.training", program=program,
                    inputs=len(corpus),
                ):
                    pipeline.training = train_credits(
                        labeled,
                        program,
                        exe,
                        corpus,
                        libraries=libraries,
                        vdso=vdso,
                        mode=mode,
                        kernel_setup=kernel_setup,
                        path_index=pipeline.path_index,
                    )
        if tel.enabled:
            g = tel.metrics.gauge
            cfg_stats = ocfg.stats()
            g("offline.ocfg.blocks").set(cfg_stats["blocks"], program=program)
            g("offline.ocfg.edges").set(cfg_stats["edges"], program=program)
            g("offline.itccfg.nodes").set(len(itc.nodes), program=program)
            g("offline.itccfg.edges").set(itc.edge_count, program=program)
            g("offline.trained_ratio").set(
                labeled.trained_ratio(), program=program
            )
        return pipeline

    # -- runtime ------------------------------------------------------------

    def make_monitor(
        self,
        kernel: Kernel,
        policy: Optional[FlowGuardPolicy] = None,
        faults=None,
    ) -> FlowGuardMonitor:
        """Register the program, build and install the kernel module.

        ``faults`` optionally arms a :class:`~repro.resilience.FaultPlan`
        on the monitor's recovery plane.
        """
        if self.program not in kernel.programs:
            kernel.register_program(
                self.program, self.exe, self.libraries, vdso=self.vdso
            )
        monitor = FlowGuardMonitor(kernel, policy=policy, faults=faults)
        monitor.install()
        return monitor

    def deploy(
        self,
        kernel: Kernel,
        policy: Optional[FlowGuardPolicy] = None,
        monitor: Optional[FlowGuardMonitor] = None,
        faults=None,
    ) -> Tuple[FlowGuardMonitor, Process]:
        """Spawn one protected process under a (new) monitor."""
        if monitor is None:
            monitor = self.make_monitor(kernel, policy=policy,
                                        faults=faults)
        elif self.program not in kernel.programs:
            kernel.register_program(
                self.program, self.exe, self.libraries, vdso=self.vdso
            )
        proc = kernel.spawn(self.program)
        monitor.protect(proc, self.labeled, self.ocfg,
                        path_index=self.path_index)
        return monitor, proc

    def auto_deploy(self, kernel: Kernel) -> FlowGuardMonitor:
        """Install a monitor that auto-protects every instance of the
        program — including forked workers and execve'd children."""
        monitor = self.make_monitor(kernel)
        monitor.auto_protect(
            self.program, self.labeled, self.ocfg,
            path_index=self.path_index,
        )
        return monitor

    def spawn_unprotected(self, kernel: Kernel) -> Process:
        """Baseline: the same program with no monitor attached."""
        if self.program not in kernel.programs:
            kernel.register_program(
                self.program, self.exe, self.libraries, vdso=self.vdso
            )
        return kernel.spawn(self.program)
