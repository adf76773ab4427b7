"""Figure 5c — SPEC-like suite under FlowGuard.

CPU-bound programs syscall rarely, so the overhead is dominated by
tracing bandwidth.  Paper shape: geomean 3.79%, most below 10%, with
h264ref the outlier — its indirect-call-dense core loop generates far
more trace than the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import (
    OverheadRows,
    format_rows,
    run_spec_protected,
)
from repro.experiments.table1 import DEFAULT_SUITE


@dataclass
class SpecRow:
    benchmark: str
    overhead: float
    trace_share: float  # tracing's share of the monitoring cost
    trace_bytes_per_kinsn: float


@dataclass
class Fig5cResult(OverheadRows):
    rows: List[SpecRow]

    def row(self, name: str) -> SpecRow:
        return next(r for r in self.rows if r.benchmark == name)


def run(suite: Sequence[str] = DEFAULT_SUITE, scale: int = 1
        ) -> Fig5cResult:
    rows: List[SpecRow] = []
    for name in suite:
        proc, monitor = run_spec_protected(name, scale)
        assert not monitor.detections, (
            f"false positive on {name}: {monitor.detections}"
        )
        stats = monitor.stats_for(proc)
        app = proc.executor.cycles
        pp = monitor.protected_for(proc)
        trace_bytes = pp.encoder.output.total_bytes_written
        rows.append(
            SpecRow(
                benchmark=name,
                overhead=stats.total_cycles / app if app else 0.0,
                trace_share=(
                    stats.trace_cycles / stats.total_cycles
                    if stats.total_cycles
                    else 0.0
                ),
                trace_bytes_per_kinsn=(
                    1000.0 * trace_bytes / proc.executor.insn_count
                    if proc.executor.insn_count
                    else 0.0
                ),
            )
        )
    return Fig5cResult(rows=rows)


def format_table(result: Fig5cResult) -> str:
    header = ["Benchmark", "Overhead", "trace share",
              "trace bytes/kinsn"]
    rows = [
        [
            r.benchmark,
            f"{r.overhead * 100:.2f}%",
            f"{r.trace_share * 100:.0f}%",
            f"{r.trace_bytes_per_kinsn:.0f}",
        ]
        for r in result.rows
    ]
    rows.append(["geomean", f"{result.geomean_overhead * 100:.2f}%",
                 "", ""])
    return "Figure 5c — SPEC-like overhead\n" + format_rows(header, rows)
