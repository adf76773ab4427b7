"""Bench C2 — columnar decode engine micro-benchmark.

Asserts the engine's zero-copy contracts on a captured nginx ToPA
trace: every segment reaches ``columnar_scan`` as a ``memoryview`` slice
over the snapshot buffer, and cached segments rebase by carrying the
base rather than copying.  The wall-clock view of this layer is the
``check-replay`` workload in ``perf/``.
"""

from repro.experiments import micro
from repro.ipt import columnar
from repro.ipt.segment_cache import SegmentDecodeCache


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


def test_cached_columnar_segments_rebase_zero_copy():
    """The cache stores columnar segments once and rebases by carrying
    the base — the stored columns stay backed by the first probe's
    buffer, never copied per hit."""
    _, _, data = micro.capture_trace()
    cache = SegmentDecodeCache(512)
    first = columnar.columnar_decode_parallel(data, cache=cache)
    hits_before = cache.hits
    second = columnar.columnar_decode_parallel(data, cache=cache)
    assert cache.hits > hits_before
    for (seg_a, base_a), (seg_b, base_b) in zip(
        first.columns, second.columns
    ):
        if not seg_a.truncated:
            assert seg_b is seg_a  # the resident object, not a copy
        assert base_a == base_b
