"""The per-instruction full-decode walker: the oracle for the full decoder.

:class:`repro.ipt.full_decoder.FullDecoder` steps from chained run to
chained run over the shared store's predecoded entries, and reads its
packets from the scan's columns.  This is the walk it replaced — fetch
one instruction, count it, dispatch on its opcode — kept as the oracle
the chained walk is tested against
(``tests/test_full_decode_differential.py``): edges, ``insn_count``,
``cycles``, ``end_ip``, ``exhausted`` and every ``TraceMismatch``
message must agree.  It shares the production decoder's result
bookkeeping, but fetches on its own, with no store and no cache: every
fetch decodes the bytes in memory now, so it can never serve stale code.

It parses its packets on its own too.  :class:`ReferenceCursor` hands
the walk one TNT bit, TIP target or far-transfer resume at a time from
a packet sequence, and there are two sources of one: :func:`byte_cursor`
parses the segments' raw bytes packet by packet, and
:func:`packet_cursor` walks the packet objects of
``tests/packet_reference.py``.  Neither reads the scan's columns, so the
differential suites compare two independent parsers with production's.
"""

from typing import Iterator, List, Optional, Tuple

from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.memory import MemoryError_
from repro.ipt.columnar import DISPATCH, TNT_WIDTH
from repro.ipt.full_decoder import (
    FullDecoder,
    FullDecodeResult,
    TraceMismatch,
)
from repro.ipt.packets import PSB_PATTERN, PacketError
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Insn, Op
from tests.packet_reference import (
    DecodedPacket,
    PacketKind,
    decode_tnt_payload,
    fast_decode,
)

#: ``DISPATCH`` action code -> packet kind (the columnar scan's codes).
_KINDS = (
    PacketKind.TNT, PacketKind.TIP, PacketKind.TIP_PGE, PacketKind.TIP_PGD,
    PacketKind.FUP, PacketKind.PAD, PacketKind.PSB, PacketKind.PSBEND,
    PacketKind.OVF, None,
)
#: the packets a PSB+ group holds as context, not as far transfers.
_CONTEXT = (
    PacketKind.FUP, PacketKind.TIP_PGD, PacketKind.TIP_PGE, PacketKind.OVF,
)


def byte_packets(parts) -> Iterator[Optional[DecodedPacket]]:
    """The packets of ``(ColumnarSegment, stream_base)`` parts, parsed
    from each segment's raw bytes (from the first: the slow path's
    segments are never scanned with ``sync``); ``None`` marks the start
    of each part.  PAD is skipped, and a cut final packet ends
    the part."""
    for seg, base in parts:
        yield None
        raw = bytes(seg.data)
        size = len(raw)
        pos = 0
        last_ip = 0
        while pos < size:
            kind = _KINDS[DISPATCH[raw[pos]]]
            if kind is PacketKind.PAD:
                pos += 1
                continue
            if kind is PacketKind.TNT:
                if pos + 2 > size:
                    break
                payload = raw[pos + 1]
                if TNT_WIDTH[payload] == 255:
                    raise PacketError(f"invalid TNT payload {payload:#x}")
                yield DecodedPacket(
                    kind, base + pos, bits=decode_tnt_payload(payload)
                )
                pos += 2
                continue
            if kind in (PacketKind.TIP, PacketKind.TIP_PGE,
                        PacketKind.TIP_PGD, PacketKind.FUP):
                if pos + 2 > size:
                    break
                width = raw[pos + 1]
                if width > 8:
                    raise PacketError(
                        f"desynchronised at offset {pos}: "
                        f"IP width {width} impossible"
                    )
                end = pos + 2 + width
                if end > size:
                    break
                ip = None
                if width:
                    mask = (1 << (8 * width)) - 1
                    ip = last_ip = (last_ip & ~mask) | int.from_bytes(
                        raw[pos + 2:end], "little"
                    )
                yield DecodedPacket(kind, base + pos, ip=ip)
                pos = end
                continue
            if kind is PacketKind.PSB and raw[pos:pos + 8] == PSB_PATTERN:
                last_ip = 0
                yield DecodedPacket(kind, base + pos)
                pos += 8
                continue
            if kind in (PacketKind.PSBEND, PacketKind.OVF):
                yield DecodedPacket(kind, base + pos)
                pos += 1
                continue
            if PSB_PATTERN[:size - pos] == raw[pos:]:
                break  # trailing PSB prefix: clean truncation
            raise PacketError(
                f"desynchronised at offset {pos}: header {raw[pos]:#04x}"
            )


def listed_packets(parts) -> Iterator[Optional[DecodedPacket]]:
    """The same sequence from the packet-object decoder."""
    for seg, base in parts:
        yield None
        for p in fast_decode(seg.data).packets:
            yield DecodedPacket(p.kind, p.offset + base, p.bits, p.ip)


class ReferenceCursor:
    """Sequential packet consumption over a packet sequence.

    The walk sees every packet but PAD, PSB, and the context of a PSB+
    group (from a PSB to its PSBEND): the group's PSBEND and its FUP,
    TIP.PGD, TIP.PGE and OVF packets.  A new part starts outside any
    group.  ``None`` from a method means the stream ended; a packet the
    walk cannot use raises ``TraceMismatch``.  TNT bits left over when
    a TIP or far transfer is needed — in the current packet or the next
    one — are one mismatch, "unconsumed TNT bits".
    """

    def __init__(self, packets: Iterator[Optional[DecodedPacket]]) -> None:
        self._packets = packets
        self._in_psb = False
        #: TNT bits decoded but not yet consumed, oldest *last*: the
        #: decoder pops a JCC's bit inline.
        self.pending_bits: List[bool] = []

    def _raw(self) -> Optional[DecodedPacket]:
        """The next packet, or None at the stream's end."""
        for packet in self._packets:
            if packet is None:
                self._in_psb = False
                continue
            return packet
        return None

    def _next(self) -> Optional[DecodedPacket]:
        """The next packet the walk sees."""
        while True:
            packet = self._raw()
            if packet is None:
                return None
            kind = packet.kind
            if kind is PacketKind.PSB:
                self._in_psb = True
            elif self._in_psb and kind is PacketKind.PSBEND:
                self._in_psb = False
            elif not (self._in_psb and kind in _CONTEXT):
                return packet

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
            packet = self._next()
            if packet is None:
                return None
            if packet.kind is not PacketKind.TNT:
                raise TraceMismatch(
                    f"expected TNT, found {packet.kind.value} at "
                    f"offset {packet.offset}"
                )
            self.pending_bits.extend(reversed(packet.bits))
        return self.pending_bits.pop()

    def next_tip(self) -> Optional[int]:
        """Next plain-TIP target, or None at stream end."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        packet = self._next()
        if packet is None:
            return None
        if packet.kind is PacketKind.TNT:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        if packet.kind is not PacketKind.TIP:
            raise TraceMismatch(
                f"expected TIP, found {packet.kind.value} at "
                f"offset {packet.offset}"
            )
        return self._target(packet)

    def next_far_resume(self, expected_src: int) -> Optional[int]:
        """Consume a FUP/TIP.PGD/TIP.PGE group; return the resume IP."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        fup = self._next()
        if fup is None:
            return None
        if fup.kind is PacketKind.TNT:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        if fup.kind is not PacketKind.FUP:
            raise TraceMismatch(f"expected FUP, found {fup.kind.value}")
        if self._target(fup) != expected_src:
            raise TraceMismatch(
                f"FUP {fup.ip:#x} does not match far-transfer "
                f"source {expected_src:#x}"
            )
        packet = None
        for want in (PacketKind.TIP_PGD, PacketKind.TIP_PGE):
            packet = self._next()
            if packet is None:
                return None
            if packet.kind is not want:
                raise TraceMismatch(
                    f"expected {want.value.upper()}, found "
                    f"{packet.kind.value}"
                )
        return self._target(packet)

    def initial_ip(self) -> Optional[int]:
        """Find the first PSB-context FUP, or TIP.PGE outside a PSB+
        group, with an IP to anchor decoding; the walk resumes after
        it."""
        while True:
            packet = self._raw()
            if packet is None:
                return None
            kind = packet.kind
            if kind is PacketKind.PSB:
                self._in_psb = True
            elif kind is PacketKind.PSBEND:
                self._in_psb = False
            elif packet.ip is None:
                continue
            elif self._in_psb and kind is PacketKind.FUP:
                return packet.ip
            elif not self._in_psb and kind is PacketKind.TIP_PGE:
                return packet.ip


def byte_cursor(parts) -> ReferenceCursor:
    """A cursor over the parts' raw bytes."""
    return ReferenceCursor(byte_packets(parts))


def packet_cursor(parts) -> ReferenceCursor:
    """A cursor over the parts' packet objects."""
    return ReferenceCursor(listed_packets(parts))


class ReferenceFullDecoder(FullDecoder):
    """Same surface as :class:`~repro.ipt.full_decoder.FullDecoder`;
    ``cursor`` builds its packet source from the parts."""

    def __init__(self, memory, max_insns: int = 5_000_000,
                 cursor=byte_cursor) -> None:
        super().__init__(memory, max_insns)
        self.cursor = cursor

    def _fetch(self, ip: int) -> Tuple[Insn, int]:
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            insn, _ = decode_at(self.memory.read_raw(ip, length), 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        return insn, length

    def decode(self, parts) -> FullDecodeResult:
        cursor = self.cursor(parts)
        ip = cursor.initial_ip()
        edges: List[BranchEvent] = []
        insn_count = 0
        if ip is None:
            return FullDecodeResult(edges, 0, 0.0, exhausted=True)

        while insn_count < self.max_insns:
            insn, length = self._fetch(ip)
            insn_count += 1
            op = insn.op
            next_ip = ip + length

            if op is Op.HALT:
                return self._finish(edges, insn_count, ip, True)
            if op is Op.JMP:
                target = next_ip + insn.rel
                edges.append(BranchEvent(CoFIKind.DIRECT_JMP, ip, target))
                ip = target
                continue
            if op is Op.CALL:
                target = next_ip + insn.rel
                edges.append(BranchEvent(CoFIKind.DIRECT_CALL, ip, target))
                ip = target
                continue
            if op is Op.JCC:
                bit = cursor.next_tnt_bit()
                if bit is None:
                    return self._finish(edges, insn_count, ip, True)
                target = next_ip + insn.rel if bit else next_ip
                edges.append(
                    BranchEvent(CoFIKind.COND_BRANCH, ip, target, taken=bit)
                )
                ip = target
                continue
            if op in (Op.JMPR, Op.CALLR, Op.RET):
                target = cursor.next_tip()
                if target is None:
                    return self._finish(edges, insn_count, ip, True)
                kind = {
                    Op.JMPR: CoFIKind.INDIRECT_JMP,
                    Op.CALLR: CoFIKind.INDIRECT_CALL,
                    Op.RET: CoFIKind.RET,
                }[op]
                edges.append(BranchEvent(kind, ip, target))
                ip = target
                continue
            if op is Op.SYSCALL:
                resume = cursor.next_far_resume(ip)
                if resume is None:
                    return self._finish(edges, insn_count, ip, True)
                edges.append(BranchEvent(CoFIKind.FAR_TRANSFER, ip, resume))
                ip = resume
                continue
            ip = next_ip

        # Fell out on the instruction budget: packets may remain.
        return self._finish(edges, insn_count, ip, False)
