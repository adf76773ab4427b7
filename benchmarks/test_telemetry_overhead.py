"""Bench T1 — telemetry's disabled-path overhead contract.

The instrumented ``FastPathChecker.check`` differs from the raw check
loop (``_check``) by exactly one enabled-flag test when telemetry is
off.  This micro-benchmark measures both over the same captured nginx
ToPA snapshot and asserts the wrapper costs < 5% — the
near-zero-overhead acceptance criterion for the telemetry subsystem.

The two are timed in interleaved ``_check``/``check`` pass pairs, each
pass in process CPU time (``time.process_time``) after a full
``gc.collect()`` with the collector paused, so neither side pays for
the other's garbage or for other processes on a shared host.  The gate
judges the median of the per-pair ratios.
"""

import gc
import statistics
import time

from conftest import run_once

from repro import telemetry
from repro.experiments import micro
from repro.itccfg.searchindex import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker

ITERATIONS = 20
#: interleaved raw/wrapped pass pairs; the gate judges their median ratio.
PAIRS = 45


def _timed_pass(fn, *args):
    """Mean CPU seconds per call over one pass of ITERATIONS calls,
    after a full collection and with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(ITERATIONS):
            fn(*args)
        return (time.process_time() - start) / ITERATIONS
    finally:
        gc.enable()


def _measure():
    pipeline, proc, data = micro.capture_trace()
    index = FlowSearchIndex(pipeline.labeled)
    checker = FastPathChecker(
        index, proc.image, pkt_count=30,
        require_cross_module=False, require_executable=False,
    )
    tel = telemetry.get_telemetry()
    was_enabled = tel.enabled
    tel.disable()  # the contract under test is the *disabled* path
    try:
        # Warm both paths before timing.
        checker._check(data)
        checker.check(data)
        raws, wrappeds = [], []
        for pair in range(PAIRS):
            # Alternate which side runs first, so neither always pays
            # for going first after the other's pass.
            if pair % 2:
                wrappeds.append(_timed_pass(checker.check, data))
                raws.append(_timed_pass(checker._check, data))
            else:
                raws.append(_timed_pass(checker._check, data))
                wrappeds.append(_timed_pass(checker.check, data))
    finally:
        if was_enabled:
            tel.enable()
    ratio = statistics.median(
        wrapped / raw for raw, wrapped in zip(raws, wrappeds)
    )
    return statistics.median(raws), statistics.median(wrappeds), ratio


def test_disabled_telemetry_overhead(benchmark):
    raw, wrapped, ratio = run_once(benchmark, _measure)
    overhead = ratio - 1.0
    print(
        f"\nfast-path check: raw {raw * 1e6:.1f} µs, "
        f"instrumented(disabled) {wrapped * 1e6:.1f} µs, "
        f"median pair overhead {overhead * 100:+.2f}%"
    )
    assert ratio < 1.05, (
        f"disabled telemetry costs {overhead * 100:.2f}% (>5%)"
    )
