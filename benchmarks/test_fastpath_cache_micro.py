"""Bench C1 — fast-path caching micro-benchmark.

Measures the repeated-snapshot columnar decode over a captured nginx
ToPA trace with the segment cache off vs on, and asserts the zero-copy
contract: ``columnar_decode_parallel`` hands each segment to the scan
as a ``memoryview`` slice over the original buffer — no per-segment copy
of the full snapshot (the allocation behaviour the cache's hash-probe
cost model assumes).
"""

import time

from conftest import run_once

from repro import costs
from repro.experiments import micro
from repro.ipt import columnar
from repro.ipt.columnar import columnar_decode_parallel
from repro.ipt.segment_cache import SegmentDecodeCache

SNAPSHOTS = 20
REPEATS = 3


def _cuts(data, count=SNAPSHOTS):
    step = max(256, len(data) // count)
    return list(range(step, len(data), step)) + [len(data)]


def _decode_series(data, cache):
    cycles = 0.0
    for cut in _cuts(data):
        cycles += columnar_decode_parallel(data[:cut], cache=cache).cycles
    return cycles


def _measure():
    _, _, data = micro.capture_trace()
    # Warm-up + cycle accounting, once per mode.
    plain_cycles = _decode_series(data, cache=None)
    cache = SegmentDecodeCache(512)
    cached_cycles = _decode_series(data, cache=cache)

    best_plain = best_cached = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _decode_series(data, cache=None)
        best_plain = min(best_plain, time.perf_counter() - start)
        start = time.perf_counter()
        _decode_series(data, cache=cache)
        best_cached = min(best_cached, time.perf_counter() - start)
    return {
        "trace_bytes": len(data),
        "plain_cycles": plain_cycles,
        "cached_cycles": cached_cycles,
        "plain_wall_s": best_plain,
        "cached_wall_s": best_cached,
        "cache": cache.stats(),
    }


def test_cached_decode_cheaper(benchmark):
    row = run_once(benchmark, _measure)
    print(
        f"\nrepeated-snapshot decode ({row['trace_bytes']} trace bytes, "
        f"{SNAPSHOTS} snapshots): "
        f"{row['plain_cycles']:.0f} -> {row['cached_cycles']:.0f} cycles, "
        f"{row['plain_wall_s'] * 1e3:.2f} -> "
        f"{row['cached_wall_s'] * 1e3:.2f} ms, "
        f"hit rate {row['cache']['hit_rate']:.2f}"
    )
    assert row["cache"]["hits"] > 0
    # Hits charge the hash-probe model instead of per-byte decode,
    # which is strictly cheaper for any segment longer than a probe.
    assert row["cached_cycles"] < row["plain_cycles"]
    assert (
        costs.SEGMENT_CACHE_HASH_CYCLES_PER_BYTE
        < costs.FAST_DECODE_CYCLES_PER_BYTE
    )


def test_parallel_decode_never_copies_segments(monkeypatch):
    """Every segment reaching columnar_scan is a memoryview slice over
    the snapshot buffer — no full-buffer copy per segment."""
    _, _, data = micro.capture_trace()
    seen = []
    real = columnar.columnar_scan

    def spy(segment, *args, **kwargs):
        seen.append(segment)
        return real(segment, *args, **kwargs)

    monkeypatch.setattr(columnar, "columnar_scan", spy)
    columnar_decode_parallel(data)
    assert len(seen) > 1  # multiple PSB segments
    for segment in seen:
        assert isinstance(segment, memoryview)
        assert segment.obj is data
        assert len(segment) < len(data)  # a slice, never the whole buffer
