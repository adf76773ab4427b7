"""Figure 5b — Linux-utility overhead through the fork/ptrace harness.

Each utility is launched the paper's way: a parent forks, the child
calls ``ptrace(PTRACE_TRACEME)`` and ``execve``s the utility; at the
exec stop the monitor reads the child's fresh CR3 and attaches
CR3-filtered IPT before the utility runs.

Paper shape: negligible overheads (geomean 0.82%), with dd lowest —
few branch instructions and few syscalls per byte moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from repro.experiments.common import OverheadRows, format_rows, libraries
from repro.osmodel.kernel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import UTILITY_BUILDERS, build_launcher
from repro.workloads.utilities import seed_utility_inputs

UTILITY_NAMES = ("tar", "make", "scp", "dd")


@lru_cache(maxsize=None)
def utility_pipeline(name: str) -> FlowGuardPipeline:
    return FlowGuardPipeline.offline(
        name,
        UTILITY_BUILDERS[name](),
        libraries(),
        corpus=[b""],
        mode="stdin",
        kernel_setup=lambda kernel: seed_utility_inputs(kernel.fs),
    )


@dataclass
class UtilityRow:
    utility: str
    overhead: float
    checks: int
    app_cycles: float


@dataclass
class Fig5bResult(OverheadRows):
    rows: List[UtilityRow]


def run_utility_protected(name: str):
    """Launch one utility under protection; returns (child, monitor)."""
    pipeline = utility_pipeline(name)
    kernel = Kernel()
    seed_utility_inputs(kernel.fs)
    kernel.register_program(name, pipeline.exe, pipeline.libraries)
    kernel.register_program(
        f"launch-{name}", build_launcher(name), libraries()
    )
    monitor = pipeline.make_monitor(kernel)

    protected = []

    def on_exec_stop(child):
        # The parent's ptrace observation point: the child has a fresh
        # CR3 for the utility image — configure the filter now.
        if child.name == name:
            monitor.protect(child, pipeline.labeled, pipeline.ocfg)
            protected.append(child)

    kernel.exec_stop_hooks.append(on_exec_stop)
    launcher = kernel.spawn(f"launch-{name}")
    kernel.run(launcher)
    if not protected:
        raise RuntimeError(f"{name}: child never reached its exec stop")
    return protected[0], monitor, launcher


def run(utilities: Sequence[str] = UTILITY_NAMES) -> Fig5bResult:
    rows: List[UtilityRow] = []
    for name in utilities:
        child, monitor, launcher = run_utility_protected(name)
        assert not monitor.detections, (
            f"false positive on {name}: {monitor.detections}"
        )
        stats = monitor.stats_for(child)
        app = child.executor.cycles
        rows.append(
            UtilityRow(
                utility=name,
                overhead=stats.total_cycles / app if app else 0.0,
                checks=stats.checks,
                app_cycles=app,
            )
        )
    return Fig5bResult(rows=rows)


def format_table(result: Fig5bResult) -> str:
    header = ["Utility", "Overhead", "checks", "app cycles"]
    rows = [
        [r.utility, f"{r.overhead * 100:.2f}%", r.checks,
         f"{r.app_cycles:.0f}"]
        for r in result.rows
    ]
    rows.append(["geomean", f"{result.geomean_overhead * 100:.2f}%",
                 "", ""])
    return "Figure 5b — Linux utility overhead\n" + format_rows(
        header, rows
    )
