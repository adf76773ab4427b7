"""§7.2.2 micro-benchmarks: fast-path vs slow-path checking time.

Measures, over windows containing 100 TIP packets from a real nginx
trace, the fast path's cost (packet scan + ITC search) against the slow
path's (upcall + instruction-flow decode + forward edges + shadow
stack).  Paper: slow ≈ 0.23 ms ≈ 60x the fast path; the reproduced
ratio is larger (our functions are shorter, so each TIP covers fewer
instructions relative to search cost) but preserves the ordering and
the order-of-magnitude gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import seed_server_fs, server_pipeline
from repro.itccfg.searchindex import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.slowpath import SlowPathEngine
from repro.osmodel.kernel import Kernel
from repro.workloads import nginx_request


@dataclass
class MicroResult:
    fast_cycles: float
    slow_cycles: float
    tips_checked: int
    insns_decoded: int

    @property
    def slowdown(self) -> float:
        return self.slow_cycles / self.fast_cycles if self.fast_cycles else 0.0


def capture_trace(sessions: int = 8):
    """Run protected nginx traffic; return (pipeline, proc, topa data)."""
    pipeline = server_pipeline("nginx")
    kernel = Kernel()
    seed_server_fs(kernel)
    monitor, proc = pipeline.deploy(kernel)
    for _ in range(sessions):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    pp = monitor.protected_for(proc)
    pp.encoder.flush()
    return pipeline, proc, pp.topa.snapshot()


def run(tip_window: int = 100) -> MicroResult:
    pipeline, proc, data = capture_trace()
    index = FlowSearchIndex(pipeline.labeled)
    checker = FastPathChecker(
        index, proc.image, pkt_count=tip_window,
        require_cross_module=False, require_executable=False,
    )
    fast = checker.check(data)
    fast_cycles = fast.decode_cycles + fast.search_cycles

    slow_engine = SlowPathEngine(proc.machine.memory, pipeline.ocfg)
    # The whole decoded tail, not only the window's PSB segments.
    slow = slow_engine.check(
        fast.tail.slow_source(), fast.window_ips, fast.window_sigs
    )
    return MicroResult(
        fast_cycles=fast_cycles,
        slow_cycles=slow.cycles,
        tips_checked=fast.checked_pairs,
        insns_decoded=slow.insns_decoded,
    )


def format_table(result: MicroResult) -> str:
    return (
        "§7.2.2 — checking time per window "
        f"({result.tips_checked} TIP pairs)\n"
        f"  fast path: {result.fast_cycles:10.0f} cycles\n"
        f"  slow path: {result.slow_cycles:10.0f} cycles "
        f"({result.insns_decoded} instructions decoded)\n"
        f"  slowdown:  {result.slowdown:10.0f}x"
    )
