"""Bench C2 — columnar decode engine micro-benchmark.

Asserts the engine's zero-copy contracts on a captured nginx ToPA
trace: every segment reaches ``columnar_scan`` as a ``memoryview`` slice
over the snapshot buffer.  The wall-clock view of this layer is the
``check-replay`` workload in ``perf/``.
"""

from repro.experiments import micro
from repro.ipt import columnar


def test_columnar_parallel_never_copies_segments(monkeypatch):
    """Every segment reaching columnar_scan is a memoryview slice over
    the snapshot buffer — no per-segment copy."""
    _, _, data = micro.capture_trace()
    seen = []
    real = columnar.columnar_scan

    def spy(segment, *args, **kwargs):
        seen.append(segment)
        return real(segment, *args, **kwargs)

    monkeypatch.setattr(columnar, "columnar_scan", spy)
    columnar.columnar_decode_parallel(data)
    assert len(seen) > 1  # multiple PSB segments
    for segment in seen:
        assert isinstance(segment, memoryview)
        assert segment.obj is data
        assert len(segment) < len(data)

