"""Table 5 — memory usage and CFG generation time.

Memory: the resident size of the trained ITC-CFG plus the runtime
search index, and the per-core ToPA buffers (16 KiB per core in the
paper's configuration).  Time: wall-clock for the full offline phase
(disassembly, O-CFG, ITC reconstruction), split so the paper's
observation that >90% of the time goes to the shared libraries can be
verified — the motivation for caching per-library CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.telemetry import get_telemetry
from repro.analysis.build import build_ocfg
from repro.binary.loader import Loader
from repro.experiments.common import (
    SERVER_NAMES,
    format_rows,
    libraries,
    server_pipeline,
)
from repro.itccfg.construct import build_itccfg
from repro.itccfg.searchindex import FlowSearchIndex
from repro.itccfg.credits import itccfg_memory_bytes
from repro.workloads import SERVER_BUILDERS, build_vdso


@dataclass
class Table5Row:
    application: str
    memory_kib: float
    generation_seconds: float
    library_fraction: float  # share of blocks contributed by libraries


@dataclass
class Table5Result:
    rows: List[Table5Row]
    topa_kib_per_core: float = 16.0


def run(servers: Sequence[str] = SERVER_NAMES) -> Table5Result:
    tracer = get_telemetry().tracer
    rows: List[Table5Row] = []
    for name in servers:
        # Wall-clock flows through the telemetry span — the same code
        # path that feeds trace exports when telemetry is enabled.
        with tracer.span("table5.offline_build", app=name) as span:
            image = Loader(libraries(), vdso=build_vdso()).load(
                SERVER_BUILDERS[name]()
            )
            ocfg = build_ocfg(image)
            itc = build_itccfg(ocfg)
        elapsed = span.duration_s

        pipeline = server_pipeline(name)  # trained labels for memory
        index = FlowSearchIndex(pipeline.labeled)
        memory = itccfg_memory_bytes(pipeline.labeled) + index.memory_bytes()
        stats = ocfg.stats()
        lib_fraction = (
            stats["lib_blocks"] / stats["blocks"] if stats["blocks"] else 0.0
        )
        rows.append(
            Table5Row(
                application=name,
                memory_kib=memory / 1024.0,
                generation_seconds=elapsed,
                library_fraction=lib_fraction,
            )
        )
    return Table5Result(rows=rows)


def format_table(result: Table5Result) -> str:
    header = ["App", "ITC-CFG memory (KiB)", "CFG generation (s)",
              "library share"]
    rows = [
        [
            r.application,
            f"{r.memory_kib:.1f}",
            f"{r.generation_seconds:.2f}",
            f"{r.library_fraction * 100:.0f}%",
        ]
        for r in result.rows
    ]
    return (
        "Table 5 — memory usage and CFG generation time "
        f"(+{result.topa_kib_per_core:.0f} KiB ToPA per core)\n"
        + format_rows(header, rows)
    )
