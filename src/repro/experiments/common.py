"""Shared experiment plumbing: pipelines, drivers, client generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.monitor.flowguard import FlowGuardMonitor, MonitorStats
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    SERVER_BUILDERS,
    build_libsim,
    build_vdso,
    exim_session,
    nginx_request,
    openssh_session,
    vsftpd_session,
)

SERVER_NAMES = ("nginx", "vsftpd", "openssh", "exim")

#: instruction budget of one server or SPEC-like program run.
MAX_STEPS = 40_000_000


class OverheadRows:
    """A result whose ``rows`` each carry an ``overhead``."""

    @property
    def geomean_overhead(self) -> float:
        return geomean([row.overhead for row in self.rows])


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, tolerant of zeros (clamped to a tiny epsilon)."""
    if not values:
        return 0.0
    return math.exp(
        sum(math.log(max(v, 1e-9)) for v in values) / len(values)
    )


def libraries() -> Dict[str, object]:
    return {"libsim.so": build_libsim()}


# -- per-server client workloads (the ab / pyftpbench / script drivers) --


def server_requests(
    name: str, count: int, seed: Optional[int] = None
) -> List[bytes]:
    """The §7.2.1 client workloads, scaled down to ``count`` sessions.

    ``seed=None`` is the load generator's constant ``steady`` mix (every
    historical digest depends on it).  A seed switches to its
    deterministic ``varied`` mix — the same seed always replays the same
    byte-exact request list (``repro serve --seed``).
    """
    # Imported here: the load generator builds on this module.
    from repro.loadgen.mixes import mix_requests

    if seed is not None:
        return mix_requests(name, count, seed=seed, mix="varied")
    return mix_requests(name, count, mix="steady")


def training_corpus(name: str) -> List[bytes]:
    """Offline training inputs per server (fuzzing-derived stand-ins)."""
    if name == "nginx":
        return [
            nginx_request("/index.html"),
            nginx_request("/other.txt"),
            nginx_request("/missing"),
            nginx_request("/p", "POST", b"form-data"),
            nginx_request("/index.html", "HEAD"),
            b"junk request\n",
        ]
    if name == "vsftpd":
        return [
            vsftpd_session(files=("/srv/file.bin",)),
            vsftpd_session(files=("/srv/missing",)),
            vsftpd_session(files=("/srv/file.bin",), store=True),
            b"NOPE\nQUIT\n",
        ]
    if name == "openssh":
        return [
            openssh_session(("whoami",)),
            openssh_session(("uptime",)),
            openssh_session(()),
            b"baduser\nbadpass\n",
        ]
    if name == "exim":
        return [
            exim_session(rcpts=1),
            exim_session(rcpts=3),
            b"HELO x\nQUIT\n",
            b"RCPT early\nQUIT\n",
        ]
    raise KeyError(name)


def seed_server_fs(kernel: Kernel) -> None:
    kernel.fs.create("/index.html", b"<html>benchmark page</html>" * 70)
    kernel.fs.create("/other.txt", b"other" * 100)
    kernel.fs.create("/srv/file.bin", bytes(range(256)) * 16)


@lru_cache(maxsize=None)
def server_pipeline(name: str) -> FlowGuardPipeline:
    """Offline phase for one server (cached — it is a one-time effort).

    Training kernels are seeded with the same filesystem the runtime
    drivers use, so trained TNT patterns match deployment (a deployment
    would train against production-like content for the same reason).
    """
    return FlowGuardPipeline.offline(
        name,
        SERVER_BUILDERS[name](),
        libraries(),
        vdso=build_vdso(),
        corpus=training_corpus(name),
        mode="socket",
        kernel_setup=seed_server_fs,
    )


# -- run drivers -------------------------------------------------------------


@dataclass
class ServerRun:
    """Outcome of one server run (protected or baseline)."""

    proc: Process
    app_cycles: float
    monitor: Optional[FlowGuardMonitor] = None
    stats: Optional[MonitorStats] = None
    #: telemetry snapshot taken right after the run (None when disabled).
    telemetry: Optional[dict] = None

    @property
    def overhead(self) -> float:
        if self.stats is None or self.app_cycles <= 0:
            return 0.0
        return self.stats.total_cycles / self.app_cycles


def telemetry_snapshot() -> Optional[dict]:
    """The process-wide telemetry snapshot, or None while disabled.

    Experiments attach this to their results so every table/figure
    carries the metrics that produced it.
    """
    tel = telemetry.get_telemetry()
    return tel.snapshot() if tel.enabled else None


def run_server(
    name: str,
    requests: Sequence[bytes],
    protected: bool,
    policy: Optional[FlowGuardPolicy] = None,
    faults=None,
) -> ServerRun:
    """Run one server over a batch of connections.

    ``faults`` optionally arms a :class:`~repro.resilience.FaultPlan`
    on the protecting monitor (ignored for unprotected runs).
    """
    tel = telemetry.get_telemetry()
    pipeline = server_pipeline(name)
    kernel = Kernel()
    seed_server_fs(kernel)
    if protected:
        monitor, proc = pipeline.deploy(kernel, policy=policy,
                                        faults=faults)
    else:
        monitor, proc = None, pipeline.spawn_unprotected(kernel)
    for request in requests:
        proc.push_connection(request)
    with tel.tracer.span(
        "server.run", server=name, protected=protected,
        sessions=len(requests),
    ):
        kernel.run(proc, max_steps=MAX_STEPS)
    stats = monitor.stats_for(proc) if monitor is not None else None
    return ServerRun(
        proc=proc,
        app_cycles=proc.executor.cycles,
        monitor=monitor,
        stats=stats,
        telemetry=telemetry_snapshot(),
    )


def run_server_overhead(
    name: str, sessions: int = 10
) -> Tuple[float, MonitorStats, float]:
    """(relative overhead, monitor stats, baseline cycles)."""
    requests = server_requests(name, sessions)
    protected = run_server(name, requests, protected=True)
    assert protected.monitor is not None
    assert not protected.monitor.detections, (
        f"false positive on {name}: {protected.monitor.detections}"
    )
    return protected.overhead, protected.stats, protected.app_cycles


def run_spec_program(
    name: str,
    scale: int = 1,
    listeners: Sequence[Callable] = (),
) -> Process:
    """Run one SPEC-like program to completion, with optional tracers
    subscribed to its CoFI bus."""
    from repro.workloads.spec import build_spec_program

    kernel = Kernel()
    kernel.register_program(name, build_spec_program(name, scale),
                            libraries())
    proc = kernel.spawn(name)
    for listener in listeners:
        proc.executor.add_listener(listener)
    tel = telemetry.get_telemetry()
    with tel.tracer.span("spec.run", program=name, protected=False):
        kernel.run(proc, max_steps=MAX_STEPS)
    return proc


def run_spec_protected(
    name: str, scale: int = 1
) -> Tuple[Process, FlowGuardMonitor]:
    """Run one SPEC-like program under FlowGuard protection."""
    pipeline = spec_pipeline(name, scale)
    kernel = Kernel()
    monitor, proc = pipeline.deploy(kernel)
    tel = telemetry.get_telemetry()
    with tel.tracer.span("spec.run", program=name, protected=True):
        kernel.run(proc, max_steps=MAX_STEPS)
    return proc, monitor


@lru_cache(maxsize=None)
def spec_pipeline(name: str, scale: int = 1) -> FlowGuardPipeline:
    from repro.workloads.spec import build_spec_program

    return FlowGuardPipeline.offline(
        name,
        build_spec_program(name, scale),
        libraries(),
        corpus=[b""],  # CPU-bound: one training run covers the hot loop
        mode="stdin",
    )


def format_rows(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table rendering shared by all experiments."""
    table = [list(map(str, headers))] + [
        [f"{c:.2f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(row[i]) for row in table) for i in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
