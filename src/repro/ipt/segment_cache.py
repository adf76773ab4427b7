"""Content-addressed segment decode cache.

PSB packets reset IP compression, so a PSB-delimited segment decodes to
the same columns wherever it appears — in a later snapshot of the same
ring, or in a different process's ring altogether.  The cache keys each
segment by its content — the segment's bytes themselves, so a probe is
one ``bytes`` hash and a hit one exact comparison, with no collision to
reason about — and stores its columnar scan (a
:class:`~repro.ipt.columnar.ColumnarSegment`) in a bounded LRU, so
byte-identical segments across a fleet decode exactly once.  The
columns stay segment-relative: consumers carry the segment's stream
base and add it at materialisation time, so a hit never copies.

Cycle model (honest accounting, reconciled by ``CycleProfiler``): every
probe streams the segment through the hash engine
(``SEGMENT_CACHE_HASH_CYCLES_PER_BYTE``) and pays one store probe.  A
hit charges only that; a miss additionally pays the full per-byte fast
decode.

Truncated (mid-packet) segments are **never** cached: a segment cut by
the snapshot boundary will decode differently once the ring fills in the
missing bytes, so its hash must not pin the partial decode.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.ipt.columnar import ColumnarSegment, columnar_scan


class SegmentDecodeCache:
    """Bounded LRU of segment decodes, keyed by segment content."""

    def __init__(self, entries: int = 256) -> None:
        if entries < 1:
            raise ValueError("segment cache needs at least one entry")
        self.entries = entries
        #: segment bytes -> (columns, hit charge).
        self._store: "OrderedDict[bytes, Tuple[ColumnarSegment, float]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: bytes actually run through the fast decoder (misses).
        self.bytes_decoded = 0
        #: bytes served from cache instead of decoding (hits).
        self.bytes_served = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self) -> dict:
        return {
            "entries": self.entries,
            "resident": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "bytes_decoded": self.bytes_decoded,
            "bytes_served": self.bytes_served,
        }

    # -- decoding ------------------------------------------------------------

    def decode_segment_columnar(
        self, segment
    ) -> Tuple[ColumnarSegment, float]:
        """Scan one PSB segment through the cache.

        ``segment`` is the segment's bytes (a ``memoryview`` slice keeps
        it zero-copy).  Returns ``(segment_columns, charged_cycles)``;
        the columns stay segment-relative (callers rebase by carrying
        the base, never by copying).  Charges hash + probe on a hit and
        hash + per-byte decode on a miss; truncated segments are never
        stored.
        """
        key = bytes(segment)
        store = self._store
        hit = store.get(key)
        if hit is not None:
            store.move_to_end(key)
            self.hits += 1
            self.bytes_served += len(key)
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("ipt.segment_cache.hits").inc()
            return hit

        size = len(key)
        self.misses += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("ipt.segment_cache.misses").inc()
        seg = columnar_scan(segment)
        self.bytes_decoded += size
        hash_cycles = size * costs.SEGMENT_CACHE_HASH_CYCLES_PER_BYTE
        if seg.truncated:
            # Mid-packet segments will decode differently once the
            # missing bytes arrive — never pin them in the store.
            return seg, hash_cycles + seg.cycles
        # A hit returns the stored pair as is: the segment and its
        # hash + probe charge.
        store[key] = (seg, hash_cycles + costs.SEGMENT_CACHE_PROBE_CYCLES)
        if tel.enabled and tel.plane is not None:
            # Cache state transitions feed the flight recorder.
            tel.plane.on_cache_event(
                "cache-insert", detail=f"resident={len(store)}"
            )
        if len(store) > self.entries:
            store.popitem(last=False)
            self.evictions += 1
            if tel.enabled:
                tel.metrics.counter("ipt.segment_cache.evictions").inc()
                if tel.plane is not None:
                    tel.plane.on_cache_event(
                        "cache-evict", detail=f"evictions={self.evictions}"
                    )
        return seg, hash_cycles + seg.cycles
