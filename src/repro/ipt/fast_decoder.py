"""Fast (packet-layer) decoding into ``DecodedPacket`` objects.

The fast decoder only parses packet *framing* — headers, TNT payloads,
compressed IPs.  It never touches program binaries, which is what makes
it orders of magnitude cheaper than the instruction-flow layer, at the
price of not knowing what instruction produced each packet.  The fast
path itself runs the columnar scan (:mod:`repro.ipt.columnar`) over the
same wire format; this object decode serves training, the hardware
extension, the Table 1/§2 experiments, and lazy packet materialisation.

PSB packets reset IP compression, so any PSB is a valid entry point:
``fast_decode_parallel`` splits the stream at PSBs and decodes segments
independently, modelling the parallel decode of §5.3; its
``critical_path_cycles`` is the wall-clock cost with enough workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.ipt.packets import (
    DecodedPacket,
    OVF_BYTE,
    PAD_BYTE,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    PacketKind,
    TNT_HEADER,
    decode_tnt_payload,
    decompress_ip,
    ip_header_kind,
)


@dataclass(frozen=True)
class TipRecord:
    """One plain TIP packet: an indirect-branch/return target.

    ``tnt_before`` holds the conditional-branch outcomes observed since
    the previous TIP-family packet — the information the credit-labelled
    ITC-CFG edges carry (§4.3).
    ``after_far`` marks the first TIP following a far-transfer resume.
    """

    ip: int
    tnt_before: Tuple[bool, ...]
    offset: int
    after_far: bool = False


@dataclass
class FastDecodeResult:
    """Output of a packet-layer scan."""

    packets: List[DecodedPacket]
    cycles: float
    synced_offset: int = 0
    truncated: bool = False
    #: memoised derivations (results are effectively immutable, so the
    #: first scan's output is simply kept).  ``compare=False`` keeps
    #: equality on the actual decode output.
    _tip_state: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _fup_ips: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def tip_records(self) -> List[TipRecord]:
        """Plain-TIP targets with interleaved TNT context."""
        return self.tip_records_with_state()[0]

    def tip_records_with_state(
        self,
    ) -> Tuple[List[TipRecord], Tuple[bool, ...], bool]:
        """Like :meth:`tip_records`, plus the decoder state dangling at
        the end of the stream: ``(records, trailing_tnt, trailing_far)``.

        TNT bits and the far-transfer marker accumulate *across* PSB
        boundaries (a PSB resets IP compression, not branch context), so
        stitching independently decoded segments needs the trailing
        state of each segment to patch the first TIP of the next.

        The extraction runs once per result: repeat calls return the
        same (shared, must-not-mutate) lists.
        """
        if self._tip_state is not None:
            return self._tip_state
        records: List[TipRecord] = []
        pending_tnt: List[bool] = []
        after_far = False
        for packet in self.packets:
            if packet.kind is PacketKind.TNT:
                pending_tnt.extend(packet.bits)
            elif packet.kind is PacketKind.TIP:
                records.append(
                    TipRecord(
                        ip=packet.ip,
                        tnt_before=tuple(pending_tnt),
                        offset=packet.offset,
                        after_far=after_far,
                    )
                )
                pending_tnt = []
                after_far = False
            elif packet.kind is PacketKind.TIP_PGE:
                after_far = True
        self._tip_state = (records, tuple(pending_tnt), after_far)
        return self._tip_state

    def fup_ips(self) -> List[int]:
        """All FUP source addresses (syscall sites + PSB context).

        Scanned once and memoised; the returned list is shared.
        """
        if self._fup_ips is None:
            self._fup_ips = [
                p.ip
                for p in self.packets
                if p.kind is PacketKind.FUP and p.ip is not None
            ]
        return self._fup_ips


def sync_to_psb(data: bytes, start: int = 0) -> int:
    """Offset of the first PSB at/after ``start``; -1 if none."""
    if isinstance(data, memoryview):  # views lack .find
        data = bytes(data)
    return data.find(PSB_PATTERN, start)


def psb_offsets(data: bytes, start: int = 0) -> List[int]:
    """All PSB packet offsets at/after ``start``, in stream order.

    The one shared PSB scan: tail decoding, segment splitting and slice
    accounting all derive their boundaries from it.

    A ``memoryview`` input (a fleet ring drain) is converted to
    ``bytes`` exactly once up front, so the whole scan runs on
    ``bytes.find`` — the previous per-probe conversion inside
    :func:`sync_to_psb` copied the remaining buffer for every PSB found.
    """
    if isinstance(data, memoryview):
        data = bytes(data)
    offsets: List[int] = []
    step = len(PSB_PATTERN)
    pos = data.find(PSB_PATTERN, start)
    while pos >= 0:
        offsets.append(pos)
        pos = data.find(PSB_PATTERN, pos + step)
    return offsets


def fast_decode(
    data: bytes,
    sync: bool = False,
    charge: bool = True,
    telemetry: bool = True,
) -> FastDecodeResult:
    """Scan a packet stream.

    With ``sync=True`` (required after a ToPA wrap) decoding starts at
    the first PSB.  A truncated final packet marks the result
    ``truncated`` instead of raising — a snapshot may end mid-packet
    only if the producer was interrupted, and real decoders tolerate it.

    ``data`` may be a ``memoryview`` over a larger buffer: segment
    decoding slices zero-copy (the scan indexes bytes either way).

    ``telemetry=False`` suppresses the ``ipt.fast_decode.*`` counters:
    the columnar segments use this scan to lazily materialise packet
    objects the columnar scan already charged and counted, and counting
    them twice would inflate the scan metrics.
    """
    pos = 0
    if sync:
        pos = sync_to_psb(data)
        if pos < 0:
            return FastDecodeResult([], 0.0, synced_offset=len(data))
    synced = pos
    packets: List[DecodedPacket] = []
    last_ip = 0
    size = len(data)
    truncated = False

    while pos < size:
        header = data[pos]
        if header == PAD_BYTE:
            pos += 1
            continue
        if (
            header == PSB_PATTERN[0]
            and data[pos:pos + len(PSB_PATTERN)] == PSB_PATTERN
        ):
            packets.append(DecodedPacket(PacketKind.PSB, pos))
            last_ip = 0
            pos += len(PSB_PATTERN)
            continue
        if header == PSBEND_BYTE:
            packets.append(DecodedPacket(PacketKind.PSBEND, pos))
            pos += 1
            continue
        if header == OVF_BYTE:
            packets.append(DecodedPacket(PacketKind.OVF, pos))
            pos += 1
            continue
        if header == TNT_HEADER:
            if pos + 2 > size:
                truncated = True
                break
            packets.append(
                DecodedPacket(
                    PacketKind.TNT,
                    pos,
                    bits=decode_tnt_payload(data[pos + 1]),
                )
            )
            pos += 2
            continue
        kind = ip_header_kind(header)
        if kind is not None:
            if pos + 2 > size:
                truncated = True
                break
            width = data[pos + 1]
            if width > 8:
                # No IP compression mode emits more than 8 bytes: this
                # is corruption, not a snapshot that ended mid-packet —
                # be loud, or a garbage width would silently swallow the
                # rest of the segment as a fake truncation.
                raise PacketError(
                    f"desynchronised at offset {pos}: "
                    f"IP width {width} impossible"
                )
            if pos + 2 + width > size:
                truncated = True
                break
            if width == 0:
                ip: Optional[int] = None
            else:
                ip = decompress_ip(data[pos + 2 : pos + 2 + width], last_ip)
                last_ip = ip
            packets.append(DecodedPacket(kind, pos, ip=ip))
            pos += 2 + width
            continue
        if PSB_PATTERN[: size - pos] == data[pos:]:
            # The buffer ends inside a PSB pattern: a clean truncation,
            # not a desync.
            truncated = True
            break
        raise PacketError(
            f"desynchronised at offset {pos}: header {header:#04x}"
        )

    cycles = (
        (pos - synced) * costs.FAST_DECODE_CYCLES_PER_BYTE if charge else 0.0
    )
    if telemetry:
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("ipt.fast_decode.calls").inc()
            m.counter("ipt.fast_decode.bytes").inc(pos - synced)
            m.counter("ipt.fast_decode.packets").inc(len(packets))
    return FastDecodeResult(
        packets, cycles, synced_offset=synced, truncated=truncated
    )


@dataclass
class ParallelDecodeResult(FastDecodeResult):
    """Combined result of a PSB-parallel decode."""

    segments: int = 1
    critical_path_cycles: float = 0.0


def psb_boundaries(data: bytes, start: int = 0) -> List[int]:
    """PSB segment boundaries: ``[start, psb1, psb2, ..., len(data)]``.

    PSBs are found by :func:`psb_offsets` from one pattern-length past
    ``start`` (``start`` itself already opens the first segment).
    """
    return (
        [start]
        + psb_offsets(data, start + len(PSB_PATTERN))
        + [len(data)]
    )


def fast_decode_parallel(data: bytes, sync: bool = False
                         ) -> ParallelDecodeResult:
    """Split at PSB boundaries and decode segments independently.

    Total ``cycles`` is the work done; ``critical_path_cycles`` is the
    slowest segment — the latency with one worker per segment, the §5.3
    "can be done in parallel" acceleration.

    Segments are sliced as ``memoryview``s over ``data`` — no per-segment
    byte copy.
    """
    start = 0
    if sync:
        start = sync_to_psb(data)
        if start < 0:
            return ParallelDecodeResult([], 0.0, synced_offset=len(data))
    boundaries = psb_boundaries(data, start)
    view = memoryview(data)
    packets: List[DecodedPacket] = []
    total = 0.0
    critical = 0.0
    segments = 0
    for begin, end in zip(boundaries, boundaries[1:]):
        if begin >= end:
            continue
        segment = fast_decode(view[begin:end])
        segments += 1
        # Re-base offsets to the full stream.
        packets.extend(
            DecodedPacket(p.kind, p.offset + begin, bits=p.bits, ip=p.ip)
            for p in segment.packets
        )
        total += segment.cycles
        critical = max(critical, segment.cycles)
    return ParallelDecodeResult(
        packets,
        total,
        synced_offset=start,
        segments=max(segments, 1),
        critical_path_cycles=critical,
    )
