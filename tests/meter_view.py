"""Shared assertion: the cycle profiler's view equals MonitorStats.

``MonitorStats.charge`` is the one writer of the charged cycles; the
profiler sums the per-process cells it fills.  This checks that the
view's phases fold back into the accumulators they feed, so a charge
that bypassed ``charge`` (or a phase folded into the wrong accumulator)
shows up as a mismatch.
"""

import math

from repro.monitor.flowguard import MonitorStats


def assert_view_matches_stats(profiler, stats_list):
    stats_list = list(stats_list)
    assert stats_list, "no protected processes to compare"
    phases = profiler.per_phase()
    for attr, phase_names in MonitorStats.PHASE_MAP.items():
        expected = sum(getattr(s, attr) for s in stats_list)
        viewed = sum(phases.get(p, 0.0) for p in phase_names)
        assert math.isclose(viewed, expected, rel_tol=1e-9, abs_tol=1e-6), (
            attr, viewed, expected
        )
    total = sum(s.total_cycles for s in stats_list)
    assert math.isclose(profiler.total(), total, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        sum(profiler.per_component().values()), total,
        rel_tol=1e-9, abs_tol=1e-6,
    )
