"""Full decode: the instruction-flow layer of abstraction.

Models Intel's reference decoder library: reconstructing the exact
execution flow requires parsing the *program binaries* instruction by
instruction and combining them with the packet stream — each conditional
branch consumes a TNT bit, each indirect branch consumes a TIP, each far
transfer consumes its FUP/PGD/PGE group.

On the charged clock the walk is per instruction: every instruction
walked charges :data:`repro.costs.FULL_DECODE_CYCLES_PER_INSN`, which is
why decoding is orders of magnitude slower than tracing (§2: ~230x on
SPECCPU).  On the wall clock it steps per chained run, like libipt's block
decoder (``pt_blk_*`` rather than ``pt_insn_*``): :class:`FullDecoder`
keeps a lazy map from an address to its chained run — straight-line
code and the direct JMPs and CALLs it passes, up to the next
instruction that consumes a packet — so a run adds its length to
``insn_count`` and its prebuilt edges to the edge list in one step.
Edges, instruction counts, end points, and ``TraceMismatch`` messages
are those of the per-instruction walk.

The packets come from the scan's columns (:class:`_ColumnWalk`): TNT
bits from each record's signature, targets from the ip column, far
transfers and the anchor from the far column, so none is parsed twice.

A window is walked one part (scanned segment) at a time, and each
part's walk is kept until the next decode, keyed by the part's bytes and
the ip the walk entered it at (see :meth:`FullDecoder.decode`): the slow
path's successive windows share most of their segments.  A part's walk
stops at the *boundary* instruction that needs the next part's first
packet; the next part enters there and counts it, so a kept walk's count
leaves it out.  The charge and the ``ipt.full_decode.*`` counters count
every instruction as walked, kept or not.

The decoder reads the code the CPU runs: the predecoded entries
(:func:`repro.cpu.executor.predecode`) of the module's shared
:class:`~repro.cpu.blocks.BlockStore`, on every page the store attests
(mapped EXEC and not WRITE, bytes the store decoded).  Each edge is a
:class:`~repro.cpu.events.BranchEvent`, and a direct JMP's, CALL's
or JCC's edge is the event object held in its entry.  Anything else —
code no module filed, a writable page, an instruction that crosses a
page edge or does not decode on its page — is decoded from memory at
every visit and remembered nowhere, so a guest store to a writable page
(which moves no code epoch) is seen at the next decode.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.executor import predecode
from repro.cpu.memory import PAGE_SHIFT, Memory, MemoryError_
from repro.ipt.columnar import (
    FAR_GROUP,
    FAR_HEAD,
    NO_IP,
    _A_FUP,
    _A_OVF,
    _A_PGD,
    _A_PGE,
    _A_PSBEND,
    _A_TIP,
    _A_TNT,
    ColumnarSegment,
)
from repro.ipt.packets import compose_tnt_sigs
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.blocks import CodePage


class TraceMismatch(Exception):
    """Packet stream and binaries disagree (decoder desync)."""


_END = -1  # the walk's end of stream
#: action code -> the packet kind a ``TraceMismatch`` message names.
_KIND = {
    _A_TNT: "tnt", _A_TIP: "tip", _A_PGE: "tip.pge", _A_PGD: "tip.pgd",
    _A_FUP: "fup", _A_PSBEND: "psbend", _A_OVF: "ovf",
}
_LOW32 = (1 << 32) - 1
_NO_ENTRY = 1 << 96  # a position key past every far entry
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _newest_first(chunk: int) -> bytes:
    """The bits of a 1-prefixed signature, newest first, one per byte."""
    return bin(chunk)[:2:-1].encode().translate(_DIGIT_BITS)


#: :func:`_newest_first` of every signature up to eight bits long.
_SHORT_CHUNKS = tuple(_newest_first(chunk) for chunk in range(1 << 9))


class _ColumnWalk:
    """A window's ``(ColumnarSegment, stream_base)`` parts as one run of
    records, each part's dangling TNT run stitched onto the next part's
    first record (the run past the last record ends the stream).  A
    position is ``record << 32 | bit``, the key the far entries carry,
    rebased to the window: the next packet there is the far entry at it,
    else a TNT bit while the run lasts, else the record's TIP.

    The decoder pops a JCC's bit from ``pending_bits`` (newest first, up
    to the next far entry or TIP) and calls :meth:`next_tnt_bit` when it
    runs out.  ``None`` means the stream ended; a packet the walk cannot
    use raises ``TraceMismatch``.
    """

    __slots__ = ("pending_bits", "torn", "_ips", "_sigs", "_parts", "_keys",
                 "_tags", "_far_ips", "_pge_ips", "_anchor", "_r", "_b",
                 "_len", "_f", "_next")

    def __init__(self, parts: Sequence[Tuple[ColumnarSegment, int]]):
        self.pending_bits = bytearray()
        #: The stream ended inside a lone FUP's group: the FUP was
        #: consumed, its TIP.PGD or TIP.PGE never came.
        self.torn = False
        self._parts = parts
        self._ips = ips = []
        self._sigs = sigs = []
        # Far entries: keys, stream offset << 4 | code, IPs, and a
        # group's TIP.PGE IP (NO_IP: none).
        self._keys = keys = []
        self._tags = tags = []
        self._far_ips = far_ips = []
        self._pge_ips = pge_ips = []
        anchor = None
        carry = 1  # TNT run not yet ended by a record
        for seg, base in parts:
            first = len(ips)
            # Bits the carried run puts ahead of this part's first run.
            shift = carry.bit_length() - 1
            words = memoryview(seg.far).cast("Q")
            if anchor is None and words[0] != NO_IP:
                record, bit = words[1], words[2]
                anchor = (
                    words[0],
                    (first + record) << 32 | (bit if record else bit + shift),
                    len(keys) + words[3],
                )
            at = words[4::4].tolist()
            if at and (first or shift):
                # Entries before the part's first record sit in the
                # run the carried bits are stitched in front of.
                lead = bisect_left(at, 1 << 32)
                at[:lead] = [key + shift for key in at[:lead]]
                at = map((first << 32).__add__, at)
            keys += at
            tags += map((base << 4).__add__, words[5::4].tolist())
            far_ips += words[6::4].tolist()
            pge_ips += words[7::4].tolist()
            seg_ips = seg.ip_column()
            if seg_ips:
                ips += seg_ips
                sigs += seg.sig_column()
                if carry != 1:
                    sigs[first] = compose_tnt_sigs(carry, sigs[first])
                carry = seg.trailing
            else:
                carry = compose_tnt_sigs(carry, seg.trailing)
        sigs.append(carry)  # the run past the last record
        self._anchor = anchor
        self._seek(0, 0)

    def _seek(self, key: int, index: int) -> None:
        """Move to position ``key`` with far entry ``index`` next."""
        self._r = record = key >> 32
        self._b = key & _LOW32
        self._len = self._sigs[record].bit_length() - 1
        self._f = index
        keys = self._keys
        self._next = keys[index] if index < len(keys) else _NO_ENTRY

    def _peek(self) -> Tuple[int, Optional[int], Optional[int]]:
        """The next packet as ``(action, offset, ip)`` (a group's is its
        FUP's), or ``_END``; a TNT bit's offset is not kept."""
        record = self._r
        if self._next == (record << 32 | self._b):
            tag = self._tags[self._f]
            ip = self._far_ips[self._f]
            return (_A_FUP if tag & 15 == FAR_GROUP else tag & 15,
                    tag >> 4, None if ip == NO_IP else ip)
        if self._b < self._len:
            return _A_TNT, None, None
        if record == len(self._ips):
            return _END, None, None
        for seg, base in self._parts:
            if record < len(seg.rec_offsets):
                return _A_TIP, base + seg.rec_offsets[record], None
            record -= len(seg.rec_offsets)

    def next_tnt_bit(self) -> Optional[int]:
        """Next conditional-branch outcome (0 or 1), or None at stream
        end; refills ``pending_bits`` up to the next far entry or TIP."""
        bits = self.pending_bits
        if bits:
            return bits.pop()
        record, begin, length = self._r, self._b, self._len
        upcoming = self._next
        if upcoming != (record << 32 | begin) and begin < length:
            end = upcoming & _LOW32 if upcoming >> 32 == record else length
            width = end - begin
            chunk = (self._sigs[record] >> (length - end)) & (
                (1 << width) - 1) | (1 << width)
            bits += (
                _SHORT_CHUNKS[chunk] if width <= 8 else _newest_first(chunk)
            )
            self._b = end
            return bits.pop()
        action, offset, _ = self._peek()
        if action == _END:
            return None
        raise TraceMismatch(
            f"expected TNT, found {_KIND[action]} at offset {offset}"
        )

    def next_tip(self) -> Optional[int]:
        """Next plain-TIP target, or None at stream end."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        record = self._r
        if (self._b == self._len and record < len(self._ips)
                and self._next != (record << 32 | self._b)
                and self._ips[record] is not None):
            self._r = record + 1
            self._b = 0
            self._len = self._sigs[record + 1].bit_length() - 1
            return self._ips[record]
        action, offset, _ = self._peek()
        if action == _END:
            return None
        if action == _A_TNT:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        if action == _A_TIP:
            raise TraceMismatch(f"IP-suppressed tip at offset {offset}")
        raise TraceMismatch(
            f"expected TIP, found {_KIND[action]} at offset {offset}"
        )

    def next_far_resume(self, expected_src: int) -> Optional[int]:
        """Consume a FUP/TIP.PGD/TIP.PGE group; return the resume IP."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        index = self._f
        if (self._next == (self._r << 32 | self._b)
                and self._tags[index] & 15 == FAR_GROUP
                and self._far_ips[index] == expected_src):
            keys = self._keys
            self._f = index = index + 1
            self._next = keys[index] if index < len(keys) else _NO_ENTRY
            return self._pge_ips[index - 1]
        action, offset, ip = self._peek()
        if action == _END:
            return None
        if action == _A_TNT:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        if action != _A_FUP:
            raise TraceMismatch(f"expected FUP, found {_KIND[action]}")
        if ip is None:
            raise TraceMismatch(f"IP-suppressed fup at offset {offset}")
        if ip != expected_src:
            raise TraceMismatch(
                f"FUP {ip:#x} does not match far-transfer source "
                f"{expected_src:#x}"
            )
        # A lone FUP: its TIP.PGD and TIP.PGE are separate entries.
        for want in (_A_PGD, _A_PGE):
            self._seek(self._next, self._f + 1)
            action, offset, ip = self._peek()
            if action == _END:
                self.torn = True
                return None
            if action != want:
                raise TraceMismatch(
                    f"expected {_KIND[want].upper()}, found {_KIND[action]}"
                )
        self._seek(self._next, self._f + 1)
        if ip is None:
            raise TraceMismatch(f"IP-suppressed tip.pge at offset {offset}")
        return ip

    def initial_ip(self) -> Optional[int]:
        """The first anchor's IP, moving the walk just past it; None if
        no part has one."""
        if self._anchor is None:
            return None
        ip, key, index = self._anchor
        self._seek(key, index)
        return ip


@dataclass
class FullDecodeResult:
    edges: List[BranchEvent]
    insn_count: int
    cycles: float
    end_ip: Optional[int] = None
    exhausted: bool = True  # packets fully consumed


_JCC = int(Op.JCC)
_SYSCALL = int(Op.SYSCALL)
_HALT = int(Op.HALT)
#: Direct JMPs and CALLs: their entries hold the target and the event.
_DIRECT = frozenset((int(Op.JMP), int(Op.CALL)))
#: Chain terminators: the instructions a chained run stops at, because
#: they end the walk or consume packets.  Direct JMPs and CALLs have
#: static targets, so a chained run continues through them.
_TERMINATORS = frozenset(
    int(op) for op in (Op.HALT, Op.JCC, Op.JMPR, Op.CALLR, Op.RET,
                       Op.SYSCALL)
)
_INDIRECT_KIND = {
    int(Op.JMPR): CoFIKind.INDIRECT_JMP,
    int(Op.CALLR): CoFIKind.INDIRECT_CALL,
    int(Op.RET): CoFIKind.RET,
}
#: Most instructions one chained run records; a longer run continues
#: in the next chained run, so building one never walks far past the
#: instruction budget (a NOP sled stops where the budget does) and a
#: ``jmp .`` cycle ends after this many steps.
MAX_BLOCK_RUN = 64

#: ``(run, edges, term_ip, term_op, flow, fault)``: ``run``
#: instructions from the run's address, through straight-line code and
#: direct JMPs and CALLs (whose events are ``edges``), then the
#: instruction at ``term_ip`` with opcode ``term_op`` (an int).
#: ``flow`` is the (not-taken, taken) event pair of a JCC, indexed by
#: the TNT bit.  ``term_op`` is None when the run hit
#: :data:`MAX_BLOCK_RUN` (the walk continues at ``term_ip``) or when
#: ``term_ip`` cannot be disassembled (``fault`` holds the
#: ``TraceMismatch`` message).
Chain = Tuple[int, Tuple[BranchEvent, ...], int, Optional[int], object,
              Optional[str]]
#: ``(edges, run, end_ip)``: a kept part walk.  It appends ``edges``,
#: walks ``run`` instructions, and stops at the boundary instruction at
#: ``end_ip``, which needs the next part's first packet (and which the
#: next part counts).
Kept = Tuple[Tuple[BranchEvent, ...], int, int]

#: How a walk ends: its packets ran out (every one consumed); they ran out
#: inside a lone FUP's group; a HALT; the instruction budget.
_RAN_OUT, _TORN, _HALTED, _CUT = range(4)


class FullDecoder:
    """Reconstructs exact control flow from packets + binaries."""

    def __init__(self, memory: Memory, max_insns: int = 5_000_000) -> None:
        self.memory = memory
        self.max_insns = max_insns
        #: Page number -> the store's page attested for it, or None.
        self._pages: Dict[int, Optional[CodePage]] = {}
        self._chains: Dict[int, Chain] = {}
        #: The previous decode's kept part walks (see :meth:`decode`).
        self._kept: Dict[Tuple[bytes, Optional[int]], Kept] = {}
        self._code_epoch = memory.code_epoch

    def _sync_code(self) -> None:
        """Drop the attestations, chained runs and kept part walks if
        the memory's code has been re-mapped."""
        epoch = self.memory.code_epoch
        if epoch != self._code_epoch:
            self._pages.clear()
            self._chains.clear()
            self._kept = {}
            self._code_epoch = epoch

    def _entry(self, ip: int) -> Tuple[tuple, bool]:
        """The predecoded entry at ``ip``, and whether it is the shared
        store's (so a chained run through it may be remembered)."""
        pageno = ip >> PAGE_SHIFT
        try:
            page = self._pages[pageno]
        except KeyError:
            memory = self.memory
            store = memory.block_store(ip)
            page = self._pages[pageno] = (
                store.attest(memory, pageno) if store is not None else None
            )
        if page is not None:
            entry = page.entry(ip)
            if entry is not None:
                return entry, True
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            raw = self.memory.read_raw(ip, length)
            insn, _ = decode_at(raw, 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        return predecode(insn, ip, length), False

    def _chain(self, start: int) -> Chain:
        """Decode the chained run at ``start``; remember it if every
        entry in it is the shared store's."""
        ip = start
        run = 0
        edges: List[BranchEvent] = []
        entry_at = self._entry
        shared = True
        while run < MAX_BLOCK_RUN:
            try:
                e, attested = entry_at(ip)
            except TraceMismatch as exc:
                # Not remembered: like a failed fetch, it is retried on
                # the next visit, when the code may have been mapped.
                return (run, tuple(edges), ip, None, None, str(exc))
            shared = shared and attested
            op = e[0]
            if op in _DIRECT:
                edges.append(e[4])
                run += 1
                ip = e[3]
                continue
            if op in _TERMINATORS:
                flow = None
                if op == _JCC:
                    # The entry's events, per flags word, hold both.
                    by_bit = {event.taken: event for event in e[4]}
                    flow = (by_bit[False], by_bit[True])
                chain = (run, tuple(edges), ip, op, flow, None)
                break
            run += 1
            ip = e[2]
        else:
            chain = (run, tuple(edges), ip, None, None, None)
        if shared:
            self._chains[start] = chain
        return chain

    def decode(
        self, parts: Sequence[Tuple[ColumnarSegment, int]],
    ) -> FullDecodeResult:
        """Walk the binaries under the guidance of the packet stream.

        ``parts`` are scanned segments with their stream bases, in
        stream order (``ColumnarTail.slow_source()``, or
        ``[(columnar_scan(data), 0)]`` for a whole trace); the walk reads
        their columns (:class:`_ColumnWalk`).  Decoding anchors at the
        first PSB-context FUP / TIP.PGE in the stream, and ends when
        packets run out.

        The window is walked one part at a time: each part's walk enters
        at the ip where the previous part's packets ran out, the
        *boundary* instruction that needs the next part's first packet,
        and counts it again, so a boundary is counted once, by the part
        that consumes its packet.  A part whose walk consumed every one
        of its packets, through attested code only, is kept
        (:data:`Kept`) until the next decode, keyed by its bytes and the
        ip its walk entered at.  A window's first part is entered at its
        anchor when the anchor opens the part; one anchored further in
        is not kept.  A later window that enters the same bytes at the
        same ip takes the part's edges and count from there, unless the
        budget would end inside them.  Keeping changes no outcome and no
        charge, and the ``ipt.full_decode.*`` counters count every
        instruction as walked; ``ipt.full_decode.kept_insns`` counts the
        ones taken from kept parts.
        """
        self._sync_code()
        kept = self._kept
        walked = self._kept = {}
        edges: List[BranchEvent] = []
        ip = None
        # Instructions before the current part's entry (its boundary
        # instruction is the part's own), and how many of them were
        # taken from kept parts.
        insn_count = taken = 0
        budget = self.max_insns
        last = len(parts) - 1
        for index, part in enumerate(parts):
            seg = part[0]
            entry = ip
            if entry is None:
                anchor, *at = FAR_HEAD.unpack_from(seg.far)
                if anchor == NO_IP:
                    continue  # no anchor yet: the part contributes nothing
                if not any(at):
                    # The anchor opens the part, so the walk from it is
                    # the walk that enters the part at its ip.
                    entry = anchor
            data = seg.data
            key = (data, entry) if entry is not None and type(data) is bytes \
                else None
            hit = kept.get(key)
            if hit is not None and insn_count + hit[1] < budget:
                walked[key] = hit
                run_edges, run, ip = hit
                edges.extend(run_edges)
                insn_count += run
                taken += run
                if index == last:
                    return self._finish(edges, insn_count + 1, ip, True,
                                        taken)
                continue
            walk = _ColumnWalk((part,))
            if entry is None:
                entry = walk.initial_ip()
            mark = len(edges)
            try:
                how, count, end_ip, remembered = self._walk(
                    walk, entry, edges, insn_count
                )
            except TraceMismatch:
                if index == last:
                    raise
                how = _TORN  # the window's walk may read the part otherwise
            if how == _TORN and index < last:
                # The walk of the part alone may be no prefix of the
                # window's: walk the rest of the window in one piece.
                del edges[mark:]
                walk = _ColumnWalk(parts[index:])
                if ip is None:
                    walk.initial_ip()
                how, count, end_ip, _ = self._walk(
                    walk, entry, edges, insn_count
                )
            elif how == _RAN_OUT:
                if remembered and key is not None:
                    walked[key] = (
                        tuple(edges[mark:]), count - 1 - insn_count, end_ip
                    )
                if index < last:
                    insn_count, ip = count - 1, end_ip
                    continue
            return self._finish(edges, count, end_ip, how != _CUT, taken)
        # No part has an anchor.
        return FullDecodeResult(edges, 0, 0.0, exhausted=True)

    def _walk(
        self, walk: _ColumnWalk, ip: int, edges: List[BranchEvent],
        insn_count: int,
    ) -> Tuple[int, int, int, bool]:
        """Walk from ``ip`` under ``walk``'s packets, appending to
        ``edges`` and counting on from ``insn_count``, until the packets
        run out, a HALT, or the budget.  Returns ``(how, insn_count,
        end_ip, remembered)``: ``how`` is :data:`_RAN_OUT`,
        :data:`_TORN`, :data:`_HALTED` or :data:`_CUT`, and
        ``remembered`` whether every chained run walked is remembered
        (so the walk reads only attested code)."""
        chains = self._chains
        append = edges.append
        extend = edges.extend
        new_event = tuple.__new__
        # Pending TNT bits, oldest last: a JCC pops its bit here and
        # calls the walk only when they run out.
        pending = walk.pending_bits
        next_tnt_bit = walk.next_tnt_bit
        next_tip = walk.next_tip
        next_far_resume = walk.next_far_resume
        budget = self.max_insns
        remembered = True
        while True:
            chain = chains.get(ip)
            if chain is None:
                chain = self._chain(ip)
                remembered = remembered and ip in chains
            run, run_edges, term_ip, op, flow, fault = chain
            if insn_count + run >= budget:
                # The budget ends inside the run (or at its terminator,
                # which is then never fetched): step it instruction by
                # instruction, taking each JMP's and CALL's edge as it
                # is passed.
                while insn_count < budget:
                    e = self._entry(ip)[0]
                    insn_count += 1
                    if e[0] in _DIRECT:
                        append(e[4])
                        ip = e[3]
                    else:
                        ip = e[2]
                return _CUT, insn_count, ip, False
            insn_count += run
            if run_edges:
                extend(run_edges)
            ip = term_ip
            if op is None:
                if fault is not None:
                    raise TraceMismatch(fault)
                continue

            insn_count += 1
            if op == _JCC:
                if pending:
                    bit = pending.pop()
                else:
                    bit = next_tnt_bit()
                    if bit is None:
                        return _RAN_OUT, insn_count, ip, remembered
                edge = flow[bit]
            elif op == _SYSCALL:
                resume = next_far_resume(ip)
                if resume is None:
                    return (_TORN if walk.torn else _RAN_OUT, insn_count,
                            ip, remembered)
                edge = new_event(
                    BranchEvent, (CoFIKind.FAR_TRANSFER, ip, resume, True)
                )
            elif op == _HALT:
                return _HALTED, insn_count, ip, remembered
            else:
                dst = next_tip()
                if dst is None:
                    return _RAN_OUT, insn_count, ip, remembered
                edge = new_event(
                    BranchEvent, (_INDIRECT_KIND[op], ip, dst, True)
                )
            append(edge)
            ip = edge.dst

    def _finish(
        self, edges: List[BranchEvent], insn_count: int, ip: int,
        exhausted: bool, taken: int = 0,
    ) -> FullDecodeResult:
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("ipt.full_decode.calls").inc()
            m.counter("ipt.full_decode.insns").inc(insn_count)
            m.counter("ipt.full_decode.kept_insns").inc(taken)
            m.counter("ipt.full_decode.edges").inc(len(edges))
        return FullDecodeResult(
            edges=edges,
            insn_count=insn_count,
            cycles=insn_count * costs.FULL_DECODE_CYCLES_PER_INSN,
            end_ip=ip,
            exhausted=exhausted,
        )
