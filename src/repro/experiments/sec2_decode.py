"""§2 decode-slowdown measurement.

The paper's protocol: trace SPECCPU with IPT, pause whenever the buffer
fills, fully decode the packets with the instruction-flow layer; report
decode time relative to execution time.  Paper numbers: geometric mean
~230x, 8 of 12 benchmarks above 500x.  The reproduced shape: decoding
is two orders of magnitude above execution and vastly above the ~3%
tracing cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import format_rows, geomean, run_spec_program
from repro.experiments.table1 import DEFAULT_SUITE, _plain_ipt_config
from repro.ipt.columnar import columnar_scan
from repro.ipt.encoder import IPTEncoder
from repro.ipt.full_decoder import FullDecoder
from repro.ipt.topa import ToPA, ToPARegion


@dataclass
class DecodeOverheadResult:
    #: benchmark -> decode_cycles / app_cycles
    per_benchmark: Dict[str, float]
    geomean_x: float
    above_100x: int
    trace_geomean: float


def run(suite: Sequence[str] = DEFAULT_SUITE, scale: int = 1
        ) -> DecodeOverheadResult:
    per_benchmark: Dict[str, float] = {}
    traces: List[float] = []
    for name in suite:
        encoder = IPTEncoder(
            _plain_ipt_config(), output=ToPA([ToPARegion(1 << 22)])
        )
        proc = run_spec_program(name, scale, listeners=[encoder.on_branch])
        encoder.flush()
        trace = columnar_scan(encoder.output.snapshot())
        full = FullDecoder(
            proc.machine.memory, max_insns=50_000_000
        ).decode([(trace, 0)])
        app = proc.executor.cycles
        per_benchmark[name] = full.cycles / app
        traces.append(encoder.cycles / app)
    ratios = list(per_benchmark.values())
    return DecodeOverheadResult(
        per_benchmark=per_benchmark,
        geomean_x=geomean(ratios),
        above_100x=sum(1 for r in ratios if r > 100),
        trace_geomean=geomean(traces),
    )


def format_table(result: DecodeOverheadResult) -> str:
    rows = [
        [name, f"{ratio:.0f}x"]
        for name, ratio in sorted(result.per_benchmark.items())
    ]
    rows.append(["geomean", f"{result.geomean_x:.0f}x"])
    return (
        "§2 — IPT full-decode overhead vs execution "
        f"(tracing geomean {result.trace_geomean * 100:.2f}%)\n"
        + format_rows(["Benchmark", "Decode overhead"], rows)
    )
