"""The packet-object decoder: the oracle for the scan.

:func:`repro.ipt.columnar.columnar_scan` decodes a trace into columns.
This module is the decoder it replaced, written independently of it:
:func:`fast_decode` builds one :class:`DecodedPacket` per packet.  The
scan-parity, robustness and columnar suites hold the scan to
:func:`fast_decode` (TIP records, trailing stitch state, truncation,
``PacketError`` text, charged cycles), and the reference full decoder
(``tests/full_decoder_reference.py``) walks its packets as one of its
two packet sources.

The scan's consumers read packed ip/TNT-signature columns; the oracle's
shape is one :class:`TipRecord` per TIP.  :func:`segment_records` and
:func:`tail_records` render a scanned segment or a stitched tail in that
shape so the two can be compared record for record.
"""

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import costs
from repro.ipt.packets import (
    FUP_HEADER,
    OVF_BYTE,
    PAD_BYTE,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    TIP_HEADER,
    TIP_PGD_HEADER,
    TIP_PGE_HEADER,
    TNT_HEADER,
    unpack_tnt_sig,
)

class PacketKind(enum.Enum):
    TNT = "tnt"
    TIP = "tip"
    TIP_PGE = "tip.pge"
    TIP_PGD = "tip.pgd"
    FUP = "fup"
    PSB = "psb"
    PSBEND = "psbend"
    OVF = "ovf"
    PAD = "pad"


_IP_KINDS = {
    TIP_HEADER: PacketKind.TIP,
    TIP_PGE_HEADER: PacketKind.TIP_PGE,
    TIP_PGD_HEADER: PacketKind.TIP_PGD,
    FUP_HEADER: PacketKind.FUP,
}


def ip_header_kind(header: int) -> Optional[PacketKind]:
    return _IP_KINDS.get(header)


def decode_tnt_payload(payload: int) -> Tuple[bool, ...]:
    """Decode a TNT payload byte into branch bits, oldest first."""
    if payload <= 1 or payload > 0x7F:
        raise PacketError(f"invalid TNT payload {payload:#x}")
    bits = []
    marker_seen = False
    for position in range(7, -1, -1):
        bit = (payload >> position) & 1
        if not marker_seen:
            if bit:
                marker_seen = True
            continue
        bits.append(bool(bit))
    return tuple(bits)


def decompress_ip(payload: bytes, last_ip: int) -> int:
    """Inverse of :func:`repro.ipt.packets.compress_ip`."""
    width = len(payload)
    if width == 0:
        return last_ip
    mask = (1 << (8 * width)) - 1
    return (last_ip & ~mask) | int.from_bytes(payload, "little")


@dataclass(frozen=True)
class TipRecord:
    """One plain TIP packet: an indirect-branch/return target.

    ``tnt_before`` holds the conditional-branch outcomes observed since
    the previous TIP-family packet — the information the credit-labelled
    ITC-CFG edges carry (§4.3).
    """

    ip: Optional[int]
    tnt_before: Tuple[bool, ...]
    offset: int


def segment_records(seg, base: int = 0) -> List[TipRecord]:
    """A scanned ``ColumnarSegment``'s records, offsets rebased to
    ``base``."""
    return [
        TipRecord(ip, unpack_tnt_sig(sig), offset + base)
        for ip, sig, offset in zip(
            seg.ip_column(), seg.sig_column(), seg.rec_offsets
        )
    ]


def tail_records(tail) -> List[TipRecord]:
    """Every record of a ``ColumnarTail`` in stream order, stitch
    patches applied: its full window plus each segment's offsets."""
    ips, sigs, _ = tail.window(tail.count)
    offsets = [
        offset + entry.base
        for entry in reversed(tail.entries)
        for offset in entry.seg.rec_offsets
    ]
    return [
        TipRecord(ip, unpack_tnt_sig(sig), offset)
        for ip, sig, offset in zip(ips, sigs, offsets)
    ]


@dataclass(frozen=True)
class DecodedPacket:
    """One packet as seen by the packet-layer decoder."""

    kind: PacketKind
    offset: int
    #: TNT payload, oldest branch first.
    bits: Tuple[bool, ...] = ()
    #: Reconstructed IP for TIP/FUP-family packets (None if suppressed).
    ip: Optional[int] = None


@dataclass
class FastDecodeResult:
    """Output of a packet-layer decode."""

    packets: List[DecodedPacket]
    cycles: float
    synced_offset: int = 0
    truncated: bool = False

    def tip_records(self) -> List[TipRecord]:
        return self.tip_records_with_state()[0]

    def tip_records_with_state(
        self,
    ) -> Tuple[List[TipRecord], Tuple[bool, ...]]:
        """Plain-TIP records plus the TNT run dangling at the end of the
        stream."""
        records: List[TipRecord] = []
        pending_tnt: List[bool] = []
        for packet in self.packets:
            if packet.kind is PacketKind.TNT:
                pending_tnt.extend(packet.bits)
            elif packet.kind is PacketKind.TIP:
                records.append(
                    TipRecord(
                        ip=packet.ip,
                        tnt_before=tuple(pending_tnt),
                        offset=packet.offset,
                    )
                )
                pending_tnt = []
        return records, tuple(pending_tnt)



def fast_decode(data, sync: bool = False,
                charge: bool = True) -> FastDecodeResult:
    """Decode a packet stream into packet objects.

    ``sync=True`` starts at the first PSB; a cut final packet marks the
    result ``truncated``; malformed framing raises ``PacketError``.
    """
    data = bytes(data)
    pos = 0
    if sync:
        pos = data.find(PSB_PATTERN)
        if pos < 0:
            return FastDecodeResult([], 0.0, synced_offset=len(data))
        # The PSB is the last eight bytes of its run of 82 02 pairs.
        while data[pos + 8:pos + 10] == PSB_PATTERN[:2]:
            pos += 2
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
                ip = decompress_ip(data[pos + 2:pos + 2 + width], last_ip)
                last_ip = ip
            packets.append(DecodedPacket(kind, pos, ip=ip))
            pos += 2 + width
            continue
        if PSB_PATTERN[:size - pos] == data[pos:]:
            # The buffer ends inside a PSB pattern: a clean truncation.
            truncated = True
            break
        raise PacketError(
            f"desynchronised at offset {pos}: header {header:#04x}"
        )

    cycles = (
        (pos - synced) * costs.FAST_DECODE_CYCLES_PER_BYTE if charge else 0.0
    )
    return FastDecodeResult(
        packets, cycles, synced_offset=synced, truncated=truncated
    )


def packets_of(parts) -> List[DecodedPacket]:
    """The packets of ``(ColumnarSegment, stream_base)`` parts — a
    slow-path source's — decoded by the oracle, rebased to stream
    offsets."""
    packets: List[DecodedPacket] = []
    for seg, base in parts:
        for p in fast_decode(seg.data, sync=seg.sync).packets:
            packets.append(
                DecodedPacket(p.kind, p.offset + base, p.bits, p.ip)
            )
    return packets
