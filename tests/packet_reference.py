"""The packet-object decoder: the oracle for the scan and the byte cursor.

:func:`repro.ipt.columnar.columnar_scan` decodes a trace into columns and
:class:`repro.ipt.columnar.ColumnarSlowSource` feeds the full decoder
straight from the segment bytes.  This module is the decoder they
replaced, written independently of both: :func:`fast_decode` builds one
:class:`DecodedPacket` per packet, and :class:`PacketCursor` walks that
list.  The scan-parity, robustness and columnar suites hold the scan to
:func:`fast_decode` (TIP records, trailing stitch state,
truncation, ``PacketError`` text, charged cycles), and the cursor suites
and ``tests/test_full_decode_differential.py`` hold the byte cursor to
:class:`PacketCursor` (every result and ``TraceMismatch`` message).

The scan's consumers read packed ip/TNT-signature columns; the oracle's
shape is one :class:`TipRecord` per TIP.  :func:`segment_records` and
:func:`tail_records` render a scanned segment or a stitched tail in that
shape so the two can be compared record for record.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import costs
from repro.ipt.full_decoder import TraceMismatch
from repro.ipt.packets import (
    FUP_HEADER,
    OVF_BYTE,
    PAD_BYTE,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    PacketKind,
    TIP_HEADER,
    TIP_PGD_HEADER,
    TIP_PGE_HEADER,
    TNT_HEADER,
    decode_tnt_payload,
    unpack_tnt_sig,
)

_IP_KINDS = {
    TIP_HEADER: PacketKind.TIP,
    TIP_PGE_HEADER: PacketKind.TIP_PGE,
    TIP_PGD_HEADER: PacketKind.TIP_PGD,
    FUP_HEADER: PacketKind.FUP,
}


def ip_header_kind(header: int) -> Optional[PacketKind]:
    return _IP_KINDS.get(header)


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
    ``ColumnarSlowSource``'s — decoded by the oracle, rebased to stream
    offsets."""
    packets: List[DecodedPacket] = []
    for seg, base in parts:
        for p in fast_decode(seg.data, sync=seg.sync).packets:
            packets.append(
                DecodedPacket(p.kind, p.offset + base, p.bits, p.ip)
            )
    return packets


class PacketSource:
    """A packet list as a full-decoder input."""

    def __init__(self, packets: List[DecodedPacket]) -> None:
        self.packets = packets

    def cursor(self) -> "PacketCursor":
        return PacketCursor(self.packets)


class PacketCursor:
    """Sequential packet consumption with PSB+ group skipping."""

    def __init__(self, packets: List[DecodedPacket]) -> None:
        self._packets = packets
        self._index = 0
        #: Decoded, unconsumed TNT bits, oldest last (the byte
        #: cursor's protocol: the full decoder pops them inline).
        self.pending_bits: List[bool] = []

    def _advance_raw(self) -> Optional[DecodedPacket]:
        if self._index >= len(self._packets):
            return None
        packet = self._packets[self._index]
        self._index += 1
        return packet

    def _skip_psb_group(self) -> None:
        """Consume context packets up to and including PSBEND."""
        while self._index < len(self._packets):
            packet = self._packets[self._index]
            self._index += 1
            if packet.kind is PacketKind.PSBEND:
                return

    @staticmethod
    def _target(packet: DecodedPacket) -> int:
        if packet.ip is None:
            raise TraceMismatch(
                f"IP-suppressed {packet.kind.value} at "
                f"offset {packet.offset}"
            )
        return packet.ip

    def next_tnt_bit(self) -> Optional[bool]:
        """Next conditional-branch outcome, or None at stream end."""
        while not self.pending_bits:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is PacketKind.TNT:
                self.pending_bits.extend(reversed(packet.bits))
                continue
            raise TraceMismatch(
                f"expected TNT, found {packet.kind.value} at "
                f"offset {packet.offset}"
            )
        return self.pending_bits.pop()

    def next_tip(self) -> Optional[int]:
        """Next plain-TIP target, or None at stream end."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        while True:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is PacketKind.TIP:
                return self._target(packet)
            raise TraceMismatch(
                f"expected TIP, found {packet.kind.value} at "
                f"offset {packet.offset}"
            )

    def next_far_resume(self, expected_src: int) -> Optional[int]:
        """Consume a FUP/TIP.PGD/TIP.PGE group; return the resume IP."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        while True:
            packet = self._advance_raw()
            if packet is None:
                return None
            if packet.kind is PacketKind.PSB:
                self._skip_psb_group()
                continue
            if packet.kind is not PacketKind.FUP:
                raise TraceMismatch(
                    f"expected FUP, found {packet.kind.value}"
                )
            if self._target(packet) != expected_src:
                raise TraceMismatch(
                    f"FUP {packet.ip:#x} does not match far-transfer "
                    f"source {expected_src:#x}"
                )
            break
        pgd = self._advance_raw()
        if pgd is None:
            return None
        if pgd.kind is not PacketKind.TIP_PGD:
            raise TraceMismatch(f"expected TIP.PGD, found {pgd.kind.value}")
        pge = self._advance_raw()
        if pge is None:
            return None
        if pge.kind is not PacketKind.TIP_PGE:
            raise TraceMismatch(f"expected TIP.PGE, found {pge.kind.value}")
        return self._target(pge)

    def initial_ip(self) -> Optional[int]:
        """Find the first PSB-context FUP or TIP.PGE to anchor decoding."""
        while self._index < len(self._packets):
            packet = self._packets[self._index]
            self._index += 1
            if packet.kind is PacketKind.PSB:
                # The FUP inside the PSB+ group carries the current IP.
                while self._index < len(self._packets):
                    ctx = self._packets[self._index]
                    self._index += 1
                    if ctx.kind is PacketKind.FUP and ctx.ip is not None:
                        # Consume the rest of the group.
                        while (
                            self._index < len(self._packets)
                            and self._packets[self._index].kind
                            is not PacketKind.PSBEND
                        ):
                            self._index += 1
                        if self._index < len(self._packets):
                            self._index += 1
                        return ctx.ip
                    if ctx.kind is PacketKind.PSBEND:
                        break
            elif packet.kind is PacketKind.TIP_PGE and packet.ip is not None:
                return packet.ip
        return None
