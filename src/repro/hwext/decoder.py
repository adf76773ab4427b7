"""The suggested hardware packet decoder (§6 item 1).

"This hardware decoder can be very simple: it only requires a
pattern-matching engine to process the buffer according to patterns
with two 8-bit words, and route corresponding packets to specific
memory locations."  Functionally identical to the software fast decode
(:func:`repro.ipt.columnar.columnar_scan`), over the same bytes: the
cost drops from :data:`repro.costs.FAST_DECODE_CYCLES_PER_BYTE` to
:data:`repro.costs.HW_DECODE_CYCLES_PER_BYTE` per byte scanned.
"""

from __future__ import annotations

from repro import costs
from repro.ipt.columnar import ColumnarSegment, columnar_scan


class PatternMatchDecoder:
    """Hardware-assisted packet-layer decoder."""

    def __init__(self) -> None:
        self.cycles = 0.0
        self.bytes_processed = 0

    def decode(self, data: bytes, sync: bool = False) -> ColumnarSegment:
        """Decode like the software fast path, at hardware cost: the
        segment's ``cycles`` are the hardware charge for the bytes the
        scan consumed (a cut final packet is not consumed)."""
        seg = columnar_scan(data, sync=sync)
        seg.cycles = seg.scanned * costs.HW_DECODE_CYCLES_PER_BYTE
        self.bytes_processed += seg.scanned
        self.cycles += seg.cycles
        return seg
