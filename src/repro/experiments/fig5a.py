"""Figure 5a — server macro-benchmark: overhead with phase breakdown.

For each server, drive a batch of client sessions against a protected
instance and report the monitoring overhead relative to the application
cycles, broken into the paper's four phases (trace / decode / check /
other).  Paper shape: small single-digit geomean (4.37%), decode the
largest monitor slice, slow path <1% of checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import (
    SERVER_NAMES,
    OverheadRows,
    format_rows,
    run_server_overhead,
)


@dataclass
class ServerOverheadRow:
    server: str
    overhead: float
    trace: float
    decode: float
    check: float
    other: float
    checks: int
    slow_path_rate: float


@dataclass
class Fig5aResult(OverheadRows):
    rows: List[ServerOverheadRow]


def run(servers: Sequence[str] = SERVER_NAMES, sessions: int = 10
        ) -> Fig5aResult:
    rows: List[ServerOverheadRow] = []
    for name in servers:
        overhead, stats, app_cycles = run_server_overhead(name, sessions)
        rows.append(
            ServerOverheadRow(
                server=name,
                overhead=overhead,
                trace=stats.trace_cycles / app_cycles,
                decode=stats.decode_cycles / app_cycles,
                check=stats.check_cycles / app_cycles,
                other=stats.other_cycles / app_cycles,
                checks=stats.checks,
                slow_path_rate=stats.slow_path_rate,
            )
        )
    return Fig5aResult(rows=rows)


def format_table(result: Fig5aResult) -> str:
    header = ["Server", "Overhead", "trace", "decode", "check", "other",
              "checks", "slow-path"]
    rows = [
        [
            r.server,
            f"{r.overhead * 100:.2f}%",
            f"{r.trace * 100:.2f}%",
            f"{r.decode * 100:.2f}%",
            f"{r.check * 100:.2f}%",
            f"{r.other * 100:.2f}%",
            r.checks,
            f"{r.slow_path_rate * 100:.1f}%",
        ]
        for r in result.rows
    ]
    rows.append(
        ["geomean", f"{result.geomean_overhead * 100:.2f}%",
         "", "", "", "", "", ""]
    )
    return "Figure 5a — server overhead breakdown\n" + format_rows(
        header, rows
    )
