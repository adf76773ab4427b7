"""Training step 3: replay the corpus under IPT and label edge credits.

Each corpus input is replayed on the "real hardware" — the CPU with the
IPT packetizer attached — the trace is fast-decoded, and every observed
consecutive-TIP pair labels its ITC edge with a high credit plus the
TNT sequence seen between the two TIPs (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.telemetry import get_telemetry
from repro.binary.module import Module
from repro.ipt.encoder import ENCODER_KINDS, IPTEncoder
from repro.ipt.columnar import columnar_scan
from repro.ipt.msr import IPTConfig
from repro.ipt.topa import ToPA, ToPARegion
from repro.itccfg.credits import CreditLabeledITC
from repro.itccfg.paths import PathIndex
from repro.osmodel.kernel import Kernel

#: instruction budget of one training replay.
REPLAY_MAX_STEPS = 400_000


@dataclass
class TrainingReport:
    """Outcome of a training pass."""

    inputs_replayed: int = 0
    edges_observed: int = 0
    #: trained-ratio after each replayed input (Figure 5d's curve).
    ratio_history: List[float] = field(default_factory=list)


def train_credits(
    labeled: CreditLabeledITC,
    program: str,
    exe: Module,
    corpus: Iterable[bytes],
    libraries: Optional[Dict[str, Module]] = None,
    vdso: Optional[Module] = None,
    mode: str = "stdin",
    kernel_setup: Optional[Callable[[Kernel], None]] = None,
    path_index: Optional[PathIndex] = None,
) -> TrainingReport:
    """Replay ``corpus`` with IPT tracing and label ``labeled`` in place.

    ``kernel_setup`` seeds each training kernel (filesystem inputs etc.)
    so training exercises the same paths deployment will.

    Training runs are trusted (pre-deployment), so unknown edges are
    ignored rather than flagged — the conservative ITC-CFG should make
    them impossible, but a crashed run can truncate mid-trace.
    """
    tel = get_telemetry()
    report = TrainingReport()
    for index, data in enumerate(corpus):
        with tel.tracer.span(
            "training.replay", program=program, input=index,
        ):
            kernel = Kernel()
            kernel.register_program(program, exe, libraries, vdso=vdso)
            if kernel_setup is not None:
                kernel_setup(kernel)
            proc = kernel.spawn(program)
            # A corpus entry may be a single payload or a sequence of
            # payloads served by one process — multi-connection sessions
            # train the inter-request flow (accept-loop wrap-around)
            # that single-shot runs never exercise.
            payloads = (
                list(data) if isinstance(data, (list, tuple)) else [data]
            )
            if mode == "socket":
                for payload in payloads:
                    proc.push_connection(payload)
            else:
                for payload in payloads:
                    proc.feed_stdin(payload)
            config = IPTConfig.flowguard_defaults(proc.cr3)
            encoder = IPTEncoder(
                config,
                output=ToPA([ToPARegion(1 << 22)]),
                current_cr3=lambda p=proc: p.cr3,
            )
            proc.executor.add_listener(encoder.on_branch, ENCODER_KINDS)
            kernel.run(proc, max_steps=REPLAY_MAX_STEPS)
            # The dead kernel is cyclic garbage that waits for a
            # collection; detached, the encoder and its 4 MiB ToPA are
            # freed as soon as this replay is done.
            proc.executor.remove_listener(encoder.on_branch)
            encoder.flush()
            scan = columnar_scan(
                encoder.output.snapshot(), sync=encoder.output.wrapped
            )
            ips = scan.ip_column()
            edges = labeled.observe_trace(
                zip(ips, scan.sig_column()), strict=False
            )
            report.edges_observed += edges
            if path_index is not None:
                path_index.observe_sequence(ips)
            report.inputs_replayed += 1
            report.ratio_history.append(labeled.trained_ratio())
        if tel.enabled:
            m = tel.metrics
            m.counter("training.inputs").inc(program=program)
            m.counter("training.edges_observed").inc(edges, program=program)
            m.gauge("training.trained_ratio").set(
                labeled.trained_ratio(), program=program
            )
    return report
