"""One benchmark run: set up a workload, measure it, report its metrics.

A run executes each of the workload's units once, in an order the run
seed picks, so every run on every commit measures the same work.
End-to-end metrics come from untraced runs, which time set-up and units
in reference seconds (see :mod:`flowbench.hostspeed`).  A traced run
traces every unit and runs every other unit untraced as well, so its
tracing overhead and digest identity are measured on the same inputs in
the same process; it reads plain wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from math import fsum
from pathlib import Path
from typing import Dict, List

from repro.ipt.columnar import scan_kernel_active
from repro.telemetry.metrics import percentile

from flowbench.hostspeed import HostClock, host_speed
from flowbench.tracer import Tracer, timed_checks
from flowbench.workloads import WORKLOADS, UnitResult, Workload

OUT_DIR = Path(__file__).resolve().parent.parent / "out"

#: from-scratch set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: end-to-end metrics, emitted by every untraced run: name -> unit.
#: ``ops_per_ref_s`` and ``setup_s`` are in reference seconds: CPU
#: seconds scaled by the host's speed (:mod:`flowbench.hostspeed`).
END_TO_END = {
    "ops_per_ref_s": "1/ref_s",
    "ops_per_mcycle": "1/Mcycle",
    "latency_p50_kcycles": "kcycles",
    "latency_p90_kcycles": "kcycles",
    "overhead_pct": "%",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: metrics read off the charged (virtual-cycle) clock: a function of
#: the code alone, since every seed runs the same units.
CHARGED = (
    "ops_per_mcycle", "latency_p50_kcycles", "latency_p90_kcycles",
    "overhead_pct",
)

#: self-time spans, each reported as ``<span>.self_pct``: its self time
#: as a share of the traced unit's wall time.
SELF_SPANS = (
    "cpu", "osmodel.syscall", "ipt.encoder", "ipt.scan", "monitor.tail",
    "itccfg.check", "monitor.fastpath", "monitor.slowpath",
    "ipt.full_decode", "monitor.deploy", "fleet.build", "fleet.run",
    "fleet.scheduler", "fleet.dispatch", "loadgen.summarize",
)

#: per-layer metrics, emitted by every traced run: name -> unit.
PER_LAYER = {
    **{f"{span}.self_pct": "%" for span in SELF_SPANS},
    "cpu.insns": "count",
    "cpu.insns_per_s": "1/s",
    "osmodel.syscall.calls": "count",
    "ipt.encoder.cofi_events": "count",
    "ipt.encoder.trace_bytes": "bytes",
    "ipt.scan.calls": "count",
    "ipt.scan.bytes": "bytes",
    "ipt.scan.ns_per_byte": "ns/byte",
    "itccfg.check.calls": "count",
    "itccfg.check.edges": "count",
    "itccfg.check.high_credit_ratio": "ratio",
    "monitor.fastpath.calls": "count",
    "monitor.fastpath.wall_p50_us": "us",
    "monitor.fastpath.wall_p99_us": "us",
    "monitor.fastpath.pass_ratio": "ratio",
    "monitor.slowpath.calls": "count",
    "monitor.slowpath.rate": "ratio",
    "ipt.full_decode.insns": "count",
    "fleet.dispatch.tasks": "count",
    "fleet.scheduler.rounds": "count",
    "fleet.lag_p50_kcycles": "kcycles",
    "fleet.lag_p99_kcycles": "kcycles",
    "fleet.worker_utilization": "ratio",
    "fleet.stall_kcycles": "kcycles",
    "fleet.dropped_checks": "count",
    "resilience.retries": "count",
    "resilience.drain_rereads": "count",
    "resilience.corrupt_segments": "count",
    "resilience.pmi_drops": "count",
    "resilience.slowpath_fallbacks": "count",
    "monitor.charged.trace_pct": "%",
    "monitor.charged.decode_pct": "%",
    "monitor.charged.check_pct": "%",
    "monitor.charged.other_pct": "%",
    "pipeline.offline.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
    "trace.unit_wall_s": "s",
    "unattributed_s": "s",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "scan_kernel": scan_kernel_active(),
    }


class Run:
    """A single ``--workload`` invocation."""

    def __init__(self, name: str, seed: int, trace: bool, quick: bool,
                 import_s: float, import_cpu_s: float) -> None:
        if name not in WORKLOADS:
            raise KeyError(
                f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})"
            )
        self.name = name
        self.seed = seed
        self.trace = trace
        self.quick = quick
        #: wall and CPU time the imports took.
        self.import_s = import_s
        self.import_cpu_s = import_cpu_s
        self.errors: List[str] = []

    # -- phases --------------------------------------------------------------

    def set_up(self) -> Workload:
        """Set the workload up three times from scratch (the median makes
        set-up time steady); the last copy is the one measured."""
        #: each set-up's time on the run's clock.
        self.setup_runs: List[float] = []
        #: each set-up in reference seconds (end-to-end runs).
        self.setup_ref: List[float] = []
        self.setup_tracer = Tracer() if self.trace else None
        if self.setup_tracer is not None:
            self.setup_tracer.keep_spans = False
        host = self.host
        clock = host.work_time if host is not None else time.perf_counter
        for rep in range(SETUP_REPEATS):
            # Each copy starts from a collected heap: the last copy's
            # garbage neither inflates peak memory nor lands its
            # collection in this copy's time.
            gc.collect()
            workload = WORKLOADS[self.name](self.quick)
            workload.clock = clock
            first = len(host.slices) if host is not None else 0
            start = clock()
            if self.setup_tracer is not None and rep == SETUP_REPEATS - 1:
                with self.setup_tracer.installed():
                    errors = workload.setup()
            else:
                errors = workload.setup()
            took = clock() - start
            self.setup_runs.append(took)
            if host is not None:
                self.setup_ref.append(took * host_speed(host.slices[first:]))
            self.errors.extend(f"set-up: {e}" for e in errors)
        if host is not None:
            # Imports ran before the clock started: scale them by the
            # host speed over all of set-up.
            self.import_ref = self.import_cpu_s * host_speed(host.slices)
        # Later collections skip the set-up heap, so collecting before
        # every unit stays cheap.
        gc.collect()
        gc.freeze()
        return workload

    def order(self, workload: Workload) -> List[int]:
        """The unit order this run's seed picks."""
        return random.Random(self.seed).sample(
            range(workload.units), workload.units
        )

    def _unit(self, workload: Workload, index: int, tracer=None):
        unit = workload.run_unit(index, tracer)
        self.errors.extend(f"unit {unit.index}: {e}" for e in unit.errors)
        return unit

    def measure(self, workload: Workload) -> List[UnitResult]:
        units = []
        #: the host-speed slices taken while a unit ran.
        self.unit_slices: List[float] = []
        for index in self.order(workload):
            # Every unit starts from a collected heap, so no unit pays
            # for the garbage of the one before it.
            gc.collect()
            first = len(self.host.slices)
            units.append(self._unit(workload, index))
            self.unit_slices.extend(self.host.slices[first:])
        return units

    def measure_traced(self, workload: Workload):
        """Every unit traced; spans are kept for the first traced unit
        only.  Every other unit also runs untraced, before or after its
        traced copy in turn: these pairs give the tracing overhead, and
        their untraced copies time each fast-path check."""
        tracer = Tracer()
        traced, pairs = [], []
        self.check_walls: List[float] = []
        #: traced over untraced CPU time of each pair: CPU time, unlike
        #: the spans' wall time, leaves out other processes' turns.
        self.pair_ratios: List[float] = []
        for count, index in enumerate(self.order(workload)):
            if count % 2:
                copies = (True,)
            else:
                copies = (False, True) if count % 4 == 0 else (True, False)
            pair, cpu = {}, {}
            for copy in copies:
                gc.collect()
                start = time.process_time()
                if copy:
                    with tracer.installed(), tracer.span("bench.unit"):
                        pair[copy] = self._unit(workload, index, tracer)
                    tracer.keep_spans = False
                else:
                    with timed_checks(self.check_walls):
                        pair[copy] = self._unit(workload, index)
                cpu[copy] = time.process_time() - start
            traced.append(pair[True])
            if False in pair:
                pairs.append((pair[False], pair[True]))
                self.pair_ratios.append(cpu[True] / cpu[False])
        return tracer, traced, pairs

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, units: List[UnitResult]) -> Dict[str, float]:
        # fsum: a float sum that does not depend on the unit order.
        latencies = sorted(x for u in units for x in u.latencies)
        completed = sum(u.completed for u in units)
        cpu = fsum(u.time_s for u in units)
        speed = host_speed(self.unit_slices)
        self.samples = {
            "ops_per_ref_s": completed,
            "ops_per_mcycle": completed,
            "latency_p50_kcycles": len(latencies),
            "latency_p90_kcycles": len(latencies),
            "overhead_pct": len(units),
            "peak_rss_mb": 1,
            "setup_s": len(self.setup_runs),
            "host_speed_slices": len(self.unit_slices),
        }
        # The unscaled figures, for the record: too noisy to bound.
        self.raw = {
            "ops_per_cpu_s": completed / cpu,
            "host_speed": speed,
            "setup_cpu_s":
                self.import_cpu_s + statistics.median(self.setup_runs),
        }
        return {
            "ops_per_ref_s": completed / (cpu * speed),
            "ops_per_mcycle":
                completed / fsum(u.charged_cycles for u in units) * 1e6,
            "latency_p50_kcycles": percentile(latencies, 50) / 1e3,
            # p90: the highest percentile with at least ten samples
            # beyond it on every workload (168 on mixed-faulted).
            "latency_p90_kcycles": percentile(latencies, 90) / 1e3,
            "overhead_pct": 100 * fsum(u.monitor_cycles for u in units)
                / fsum(u.app_cycles for u in units),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": self.import_ref + statistics.median(self.setup_ref),
        }

    def per_layer(self, tracer: Tracer, traced: List[UnitResult],
                  pairs) -> Dict[str, float]:
        n = len(traced)
        counters = tracer.counters

        def mean_layer(key: str) -> float:
            return sum(u.layers.get(key, 0.0) for u in traced) / n

        insns = mean_layer("cpu.insns")
        scan_bytes = counters["ipt.scan.bytes"] / n
        edges = counters["itccfg.check.edges"]
        fast_calls = tracer.calls("monitor.fastpath")
        lags = sorted(x for u in traced for x in u.lags)
        walls = sorted(self.check_walls)
        unit_wall = sum(u.time_s for u in traced) / n
        unattributed = tracer.self_s("bench.unit") / n
        out = {
            f"{s}.self_pct": 100 * tracer.self_s(s) / n / unit_wall
            for s in SELF_SPANS
        }
        cpu_s = tracer.self_s("cpu") / n
        out.update({
            "cpu.insns": insns,
            "cpu.insns_per_s": insns / cpu_s if cpu_s else 0.0,
            "osmodel.syscall.calls": tracer.calls("osmodel.syscall") / n,
            "ipt.encoder.cofi_events": tracer.calls("ipt.encoder") / n,
            "ipt.encoder.trace_bytes": mean_layer("ipt.encoder.trace_bytes"),
            "ipt.scan.calls": tracer.calls("ipt.scan") / n,
            "ipt.scan.bytes": scan_bytes,
            "ipt.scan.ns_per_byte":
                tracer.self_s("ipt.scan") / n / scan_bytes * 1e9
                if scan_bytes else 0.0,
            "itccfg.check.calls": tracer.calls("itccfg.check") / n,
            "itccfg.check.edges": edges / n,
            "itccfg.check.high_credit_ratio":
                1 - counters["itccfg.check.low_credit"] / edges
                if edges else 0.0,
            "monitor.fastpath.calls": fast_calls / n,
            "monitor.fastpath.wall_p50_us": percentile(walls, 50) * 1e6,
            "monitor.fastpath.wall_p99_us": percentile(walls, 99) * 1e6,
            "monitor.fastpath.pass_ratio":
                counters["monitor.fastpath.passes"] / fast_calls
                if fast_calls else 0.0,
            "monitor.slowpath.calls": tracer.calls("monitor.slowpath") / n,
            "monitor.slowpath.rate":
                tracer.calls("monitor.slowpath") / fast_calls
                if fast_calls else 0.0,
            "ipt.full_decode.insns": counters["ipt.full_decode.insns"] / n,
            "fleet.dispatch.tasks": tracer.calls("fleet.dispatch") / n,
            "fleet.scheduler.rounds": tracer.calls("fleet.scheduler") / n,
            "fleet.lag_p50_kcycles": percentile(lags, 50) / 1e3,
            "fleet.lag_p99_kcycles": percentile(lags, 99) / 1e3,
            "pipeline.offline.self_s":
                self.setup_tracer.self_s("pipeline.offline"),
            "trace.overhead_pct":
                100 * (statistics.median(self.pair_ratios) - 1),
            "trace.attributed_pct": 100 * (1 - unattributed / unit_wall),
            "trace.unit_wall_s": unit_wall,
            "unattributed_s": unattributed,
        })
        # The rest are read off the stack after each traced unit.
        for key in PER_LAYER:
            if key not in out:
                out[key] = mean_layer(key)
        self.samples = {
            "traced_units": n,
            "trace.overhead_pct": len(pairs),
            "fleet.lag_p50_kcycles": len(lags),
            "fleet.lag_p99_kcycles": len(lags),
            "monitor.fastpath.wall_p50_us": len(walls),
            "monitor.fastpath.wall_p99_us": len(walls),
        }
        for untraced, traced_unit in pairs:
            if untraced.digest != traced_unit.digest:
                self.errors.append(
                    f"unit {untraced.index}: traced digest differs from "
                    f"the untraced run"
                )
        return out

    # -- the whole run -------------------------------------------------------

    def execute(self) -> dict:
        # Traced runs read wall time, without host-speed slices: the
        # slices would land in the spans' time.
        self.host = None if self.trace else HostClock()
        self.raw = {}
        if self.trace:
            workload = self.set_up()
            tracer, measured, pairs = self.measure_traced(workload)
            metrics = self.per_layer(tracer, measured, pairs)
            units = measured + [u for u, _ in pairs]
            self.write_trace(tracer, measured)
        else:
            self.host.start()
            try:
                workload = self.set_up()
                units = measured = self.measure(workload)
            finally:
                self.host.stop()
            metrics = self.end_to_end(units)
        digest = hashlib.sha256("".join(
            u.digest for u in sorted(measured, key=lambda u: u.index)
        ).encode()).hexdigest()
        units_table = PER_LAYER if self.trace else END_TO_END
        return {
            "detail": {
                "workload": self.name,
                "seed": self.seed,
                "trace": self.trace,
                "quick": self.quick,
                "units_run": len(units),
                "samples": self.samples,
                "digest": digest,
                # Times on the run's clock: CPU time end to end, wall
                # time traced.
                "clock": "wall" if self.trace else "cpu",
                "setup_runs_s": self.setup_runs,
                "unit_times_s": [[u.index, u.time_s] for u in units],
                "import_s": self.import_s,
                "import_cpu_s": self.import_cpu_s,
                "raw": self.raw,
                "errors": self.errors,
                "environment": environment(),
            },
            "result": {
                "correct": not self.errors,
                "attempted": sum(u.attempted for u in units),
                "failed": sum(u.failed for u in units),
                "metrics": {
                    name: {"value": metrics[name], "unit": units_table[name]}
                    for name in units_table
                },
            },
        }

    def write_trace(self, tracer: Tracer, traced: List[UnitResult]) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{self.name}.json"
        doc = {
            "workload": self.name,
            "seed": self.seed,
            "traced_units": len(traced),
            "spans_of": "the first traced unit; times in us from its start",
            **tracer.to_dict(origin=tracer.spans[0][1]),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024
