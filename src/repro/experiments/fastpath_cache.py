"""Fast-path caching benchmark: incremental tail decode + caches.

Two deterministic workloads compare the fast path with the
content-addressed segment decode cache + edge-verdict memo against the
uncached baseline:

- **tail** — a repeated-snapshot checker workload: one real captured
  nginx trace, checked as a series of growing ring snapshots (the shape
  of consecutive endpoint checks on a filling ToPA ring) across several
  simulated processes running the same binary.  Measures decoded bytes,
  wall-clock decode time, and asserts the cached verdicts (windows,
  low-credit pairs, tail segments) are bit-identical to the uncached run.
  The wall ratio is the median over :data:`WALL_PASSES` uncached/cached
  pass pairs, each pass timed with the garbage collector paused after a
  full collection, so neither side pays for garbage the other (or the
  trace capture) left behind.
- **fleet** — two full :class:`repro.fleet.FleetService` runs (stall
  rings, unbounded queue so the submitted work is identical), caches
  off vs on.  Asserts per-process verdict sequences match, the worker
  cycle ledger still balances the ``MonitorStats`` charges exactly
  (``FleetResult.accounting``), and the shared cache actually absorbs
  repeated slices across processes.

``python -m repro experiments fastpath-cache`` writes the result to
``BENCH_fastpath_cache.json`` and judges :func:`gates`, the ≥2x
reductions among them.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

from repro import costs, telemetry
from repro.experiments.common import (
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.ipt.segment_cache import SegmentDecodeCache
from repro.itccfg.searchindex import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel.kernel import Kernel
from repro.workloads import nginx_request

#: cache sizes used by both workloads (also the CLI defaults to quote).
SEGMENT_CACHE_ENTRIES = 512
EDGE_CACHE_ENTRIES = 4096
#: uncached/cached pass pairs; the wall gate judges their median ratio.
WALL_PASSES = 9


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


class _TimedChecker(FastPathChecker):
    """FastPathChecker that wall-clocks its tail decoding
    (``decode_tail_columnar``, the cached-vs-uncached wall gate's
    subject)."""

    decode_wall: float = 0.0

    def decode_tail_columnar(self, data):
        t0 = time.perf_counter()
        out = super().decode_tail_columnar(data)
        self.decode_wall += time.perf_counter() - t0
        return out


def _fingerprint(result) -> Tuple:
    """Everything verdict-relevant about a FastPathResult (cycles and
    probe counts excluded — the cache changes costs, never verdicts)."""
    return (
        result.verdict.value,
        result.checked_pairs,
        tuple(result.low_credit_pairs),
        result.violation_edge,
        result.window_offset,
        result.first_record_offset,
        tuple(result.window_ips),
        tuple(result.window_sigs),
        tuple((e.base, bytes(e.seg.data)) for e in result.tail.entries),
    )


def _run_tail(
    data: bytes,
    pipeline,
    proc,
    processes: int,
    cuts: List[int],
    cached: bool,
) -> Tuple[dict, List[Tuple]]:
    cache = SegmentDecodeCache(SEGMENT_CACHE_ENTRIES) if cached else None
    index = FlowSearchIndex(
        pipeline.labeled,
        edge_cache_entries=EDGE_CACHE_ENTRIES if cached else 0,
    )
    checker = _TimedChecker(
        index, proc.image, pkt_count=60,
        require_cross_module=False, require_executable=False,
        segment_cache=cache,
    )
    fingerprints: List[Tuple] = []
    decode_cycles = 0.0
    search_cycles = 0.0
    gc.collect()
    gc.disable()
    try:
        for _ in range(processes):
            for cut in cuts:
                result = checker.check(data[:cut])
                decode_cycles += result.decode_cycles
                search_cycles += result.search_cycles
                fingerprints.append(_fingerprint(result))
    finally:
        gc.enable()
    if cached:
        decoded_bytes = float(cache.bytes_decoded)
    else:
        # Uncached decode charges exactly per byte scanned.
        decoded_bytes = decode_cycles / costs.FAST_DECODE_CYCLES_PER_BYTE
    row = {
        "cached": cached,
        "checks": processes * len(cuts),
        "decoded_bytes": decoded_bytes,
        "decode_cycles": decode_cycles,
        "search_cycles": search_cycles,
        "decode_wall_s": checker.decode_wall,
    }
    if cache is not None:
        row["segment_cache"] = cache.stats()
        row["edge_cache"] = index.edge_cache_stats()
    return row, fingerprints


def run_tail_workload(processes: int, snapshots: int) -> dict:
    """The repeated-snapshot checker workload, cached vs uncached."""
    pipeline, proc, data = capture_trace()
    step = max(256, len(data) // snapshots)
    cuts = list(range(step, len(data), step)) + [len(data)]
    walls: Dict[bool, List[float]] = {False: [], True: []}
    ratios: List[float] = []
    identical = True
    for _ in range(WALL_PASSES):
        uncached, base_prints = _run_tail(
            data, pipeline, proc, processes, cuts, cached=False
        )
        cached, cache_prints = _run_tail(
            data, pipeline, proc, processes, cuts, cached=True
        )
        identical = identical and base_prints == cache_prints
        walls[False].append(uncached["decode_wall_s"])
        walls[True].append(cached["decode_wall_s"])
        ratios.append(
            uncached["decode_wall_s"] / cached["decode_wall_s"]
            if cached["decode_wall_s"] else float("inf")
        )
    for row in (uncached, cached):
        row["decode_wall_passes_s"] = walls[row["cached"]]
        row["decode_wall_s"] = statistics.median(walls[row["cached"]])
    return {
        "trace_bytes": len(data),
        "processes": processes,
        "snapshots_per_process": len(cuts),
        "uncached": uncached,
        "cached": cached,
        "verdicts_identical": identical,
        "bytes_ratio": (
            uncached["decoded_bytes"] / cached["decoded_bytes"]
            if cached["decoded_bytes"] else float("inf")
        ),
        "wall_ratio": statistics.median(ratios),
    }


def _fleet_verdicts(service: FleetService) -> Dict[int, List[Tuple]]:
    verdicts: Dict[int, List[Tuple]] = {}
    for task in service.dispatcher.tasks:
        verdicts.setdefault(task.pid, []).append(
            (task.kind, task.syscall_nr, task.verdict)
        )
    return verdicts


def _run_fleet(processes: int, sessions: int, cached: bool) -> dict:
    config = FleetConfig(
        workers=2,
        ring_policy=RingPolicy.STALL,
        # Unbounded queue: backpressure feedback would make the
        # submitted work depend on check latency, confounding the
        # cached-vs-uncached comparison.
        max_queue_depth=1_000_000,
    )
    policy = FlowGuardPolicy(
        segment_cache_entries=SEGMENT_CACHE_ENTRIES if cached else 0,
        edge_cache_entries=EDGE_CACHE_ENTRIES if cached else 0,
    )
    with telemetry.capture() as tel:
        service = FleetService(config, policy=policy)
        seed_server_fs(service.kernel)
        for index in range(processes):
            name = ("nginx", "exim")[index % 2]
            service.add_workload(
                server_pipeline(name), server_requests(name, sessions)
            )
        counter = tel.metrics.counter("ipt.columnar_scan.bytes")
        before = counter.total()
        result = service.run()
        decoded_bytes = counter.total() - before
    return {
        "cached": cached,
        "decoded_bytes": decoded_bytes,
        "tasks": result.tasks,
        "detections": result.detections,
        "quarantined_pids": result.quarantined_pids,
        "lag_p99": result.lag["p99"],
        "monitor_cycles": result.monitor_cycles,
        "overhead": result.overhead,
        "accounting_exact": result.accounting["exact"],
        "caches": result.caches,
        "verdicts": _fleet_verdicts(service),
    }


def run_fleet_workload(processes: int, sessions: int) -> dict:
    uncached = _run_fleet(processes, sessions, cached=False)
    cached = _run_fleet(processes, sessions, cached=True)
    verdicts_identical = uncached.pop("verdicts") == cached.pop("verdicts")
    segment = (cached["caches"] or {}).get("segment") or {}
    return {
        "processes": processes,
        "sessions": sessions,
        "uncached": uncached,
        "cached": cached,
        "verdicts_identical": verdicts_identical,
        "segment_cache_hits": segment.get("hits", 0),
        "bytes_ratio": (
            uncached["decoded_bytes"] / cached["decoded_bytes"]
            if cached["decoded_bytes"] else float("inf")
        ),
    }


def run(quick: bool = False) -> dict:
    tail = run_tail_workload(
        processes=3 if quick else 6,
        snapshots=12 if quick else 24,
    )
    fleet = run_fleet_workload(
        processes=4 if quick else 6,
        sessions=1 if quick else 2,
    )
    results = {
        "quick": quick,
        "segment_cache_entries": SEGMENT_CACHE_ENTRIES,
        "edge_cache_entries": EDGE_CACHE_ENTRIES,
        "tail": tail,
        "fleet": fleet,
    }
    results["gates"] = gates(results)
    return results


def gates(results: dict) -> Dict[str, bool]:
    """The acceptance gates over a :func:`run` result."""
    tail = results["tail"]
    fleet = results["fleet"]
    return {
        "tail_bytes_ratio_2x": tail["bytes_ratio"] >= 2.0,
        "tail_wall_ratio_2x": tail["wall_ratio"] >= 2.0,
        "tail_verdicts_identical": tail["verdicts_identical"],
        "fleet_bytes_ratio_2x": fleet["bytes_ratio"] >= 2.0,
        "fleet_verdicts_identical": fleet["verdicts_identical"],
        "fleet_cache_hits": fleet["segment_cache_hits"] > 0,
        "fleet_accounting_exact": (
            fleet["cached"]["accounting_exact"]
            and fleet["uncached"]["accounting_exact"]
        ),
    }


def format_table(results: dict) -> str:
    tail = results["tail"]
    fleet = results["fleet"]
    lines = [
        "Fast-path caching: repeated-snapshot tail workload "
        f"({tail['processes']} procs x "
        f"{tail['snapshots_per_process']} snapshots, "
        f"{tail['trace_bytes']} trace bytes)",
        f"  decoded bytes: {tail['uncached']['decoded_bytes']:>12.0f} "
        f"uncached -> {tail['cached']['decoded_bytes']:>10.0f} cached "
        f"({tail['bytes_ratio']:.1f}x)",
        "  decode wall:   "
        f"{tail['uncached']['decode_wall_s'] * 1e3:>12.1f} ms -> "
        f"{tail['cached']['decode_wall_s'] * 1e3:>10.1f} ms "
        f"({tail['wall_ratio']:.2f}x, median of {WALL_PASSES} passes)",
        f"  verdicts identical: {tail['verdicts_identical']}",
        "",
        f"Fleet ({fleet['processes']} procs, stall rings), "
        "caches off -> on:",
        f"  decoded bytes: {fleet['uncached']['decoded_bytes']:>12.0f} "
        f"-> {fleet['cached']['decoded_bytes']:>10.0f} "
        f"({fleet['bytes_ratio']:.1f}x)",
        f"  segment cache hits: {fleet['segment_cache_hits']}, "
        f"verdicts identical: {fleet['verdicts_identical']}, "
        f"ledger exact: {fleet['cached']['accounting_exact']}",
    ]
    return "\n".join(lines)
