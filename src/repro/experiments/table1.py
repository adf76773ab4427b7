"""Table 1 — comparison of hardware control-flow tracing mechanisms.

Measures, on the SPEC-like suite:

- tracing overhead per mechanism (BTS per-record stalls, LBR register
  rotation, IPT compressed packet stores),
- decoding overhead (BTS/LBR need none; IPT's full decode is charged at
  the instruction-flow layer),

and reports the qualitative columns (precision, filtering) from the
mechanism models.  Paper's shape: BTS ~50x trace / no decode; LBR <1% /
no decode; IPT ~3% trace / high decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import format_rows, geomean, run_spec_program
from repro.hardware.bts import BTSTracer
from repro.hardware.lbr import LBRStack
from repro.ipt.columnar import columnar_scan
from repro.ipt.encoder import IPTEncoder
from repro.ipt.full_decoder import FullDecoder
from repro.ipt.msr import IPTConfig, RTIT_CTL
from repro.ipt.topa import ToPA, ToPARegion

DEFAULT_SUITE = (
    "perlbench", "bzip2", "gcc", "mcf", "milc", "gobmk",
    "hmmer", "sjeng", "libquantum", "h264ref", "lbm", "sphinx3",
)


@dataclass
class MechanismRow:
    name: str
    precise: str
    trace_overhead: float  # relative (1.0 == 100%)
    decode_overhead: float
    filtering: str


@dataclass
class Table1Result:
    rows: List[MechanismRow]
    per_benchmark: Dict[str, Dict[str, float]]


def _plain_ipt_config() -> IPTConfig:
    config = IPTConfig()
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    return config


def run(suite: Sequence[str] = DEFAULT_SUITE, scale: int = 1
        ) -> Table1Result:
    per_benchmark: Dict[str, Dict[str, float]] = {}
    bts_trace, lbr_trace, ipt_trace, ipt_decode = [], [], [], []

    for name in suite:
        bts = BTSTracer()
        lbr = LBRStack(depth=16)
        encoder = IPTEncoder(
            _plain_ipt_config(), output=ToPA([ToPARegion(1 << 22)])
        )
        proc = run_spec_program(
            name, scale, listeners=[bts.on_branch, lbr.on_branch,
                                    encoder.on_branch]
        )
        encoder.flush()
        app = proc.executor.cycles
        # IPT decode: the §2 pause-and-full-decode protocol.
        trace = columnar_scan(encoder.output.snapshot())
        full = FullDecoder(proc.machine.memory).decode([(trace, 0)])
        row = {
            "bts_trace": bts.cycles / app,
            "lbr_trace": lbr.cycles / app,
            "ipt_trace": encoder.cycles / app,
            "ipt_decode": full.cycles / app,
        }
        per_benchmark[name] = row
        bts_trace.append(row["bts_trace"])
        lbr_trace.append(row["lbr_trace"])
        ipt_trace.append(row["ipt_trace"])
        ipt_decode.append(row["ipt_decode"])

    rows = [
        MechanismRow("BTS", "Full", geomean(bts_trace), 0.0, "None"),
        MechanismRow("LBR", "16/32 branches", geomean(lbr_trace), 0.0,
                     "CPL, CoFI type"),
        MechanismRow("IPT", "Full", geomean(ipt_trace),
                     geomean(ipt_decode), "CPL, CR3, IP"),
    ]
    return Table1Result(rows=rows, per_benchmark=per_benchmark)


def format_table(result: Table1Result) -> str:
    header = ["Mechanism", "Precise", "Trace overhead",
              "Decode overhead", "Filtering"]
    rows = [
        [
            row.name,
            row.precise,
            f"{row.trace_overhead * 100:.2f}%"
            if row.trace_overhead < 5
            else f"{row.trace_overhead:.1f}x",
            "None" if row.decode_overhead == 0
            else f"{row.decode_overhead:.0f}x",
            row.filtering,
        ]
        for row in result.rows
    ]
    return "Table 1 — hardware tracing mechanisms\n" + format_rows(
        header, rows
    )
