"""The packet decoder: one table-driven scan into columns.

The fast decoder only parses packet *framing* — headers, TNT payloads,
compressed IPs.  It never touches program binaries, which is what makes
it orders of magnitude cheaper than the instruction-flow layer
(:mod:`repro.ipt.full_decoder`), at the price of not knowing what
instruction produced each packet.  Allocating an object per packet
would dominate its wall-clock, so a scan builds one
:class:`ColumnarSegment` of *columns*, one entry per plain TIP packet
(the *records*), plus a sparse column for everything else the full
decoder reads:

======================  ====================================================
column                  contents
======================  ====================================================
:meth:`~ColumnarSegment.ip_column`
                        list — each TIP's target; ``None`` marks an
                        IP-suppressed TIP
``rec_offsets``         list — stream offset of each TIP,
                        segment-relative (rebasing is integer addition at
                        materialisation time, never a copy)
:meth:`~ColumnarSegment.sig_column`
                        list — each TIP's packed TNT signature: the TNT
                        run observed since the previous TIP, under a
                        leading 1 bit
``trailing``            int — the signature of the TNT run dangling past
                        the last TIP (``1`` for none), which the tail walk
                        stitches onto the next segment's first record
``far``                 bytes-like — the :data:`FAR_HEAD` anchor, then a
                        :data:`FAR_ENTRY` per FUP, TIP.PGD, TIP.PGE, OVF
                        or stray PSBEND outside a PSB+ group (PSB to
                        PSBEND); one object per scan, which only the full
                        decoder unpacks
======================  ====================================================

Two scanners produce the same segment:

- the optional C kernel (:mod:`repro.ipt.scan_kernel`), compiled with
  the host C compiler, runs whenever it builds; it writes its columns
  into one reused arena, and the wrapper builds each list once from it;
- the vectorised pure-Python scan is the fallback where it does not —
  PAD runs and TNT packet runs are consumed per *run* (regex
  pre-classification + ``bytes.translate`` width lookup + one bulk bit
  flush), PSB sync uses ``bytes.find``.

Both build a signature in a register while its run is at most
:data:`SIG_MAX_BITS` bits long; a longer run (the *sentinel* case) is
read from the packed TNT bitstream the scan also writes, which nothing
else reads.

The platform alone picks the scanner (:func:`scan_kernel_active`);
there is no switch.

The tests hold both against a per-byte walk over the 256-entry
:data:`DISPATCH` / :data:`TNT_WIDTH` tables (``tests/scan_reference.py``,
which keeps the full bit-range columns and derives these from them)
and against an independently written packet-object decoder
(``tests/packet_reference.py``).  A scan charges
``bytes * FAST_DECODE_CYCLES_PER_BYTE`` for the bytes it consumed.

The columns are the only packet representation.  Every consumer reads
them: the fast path's backward tail walk (:class:`ColumnarTail`), whose
windows are packed ip/TNT-signature columns from the scan through the
edge check to the slow-path hand-off; credit training
(:meth:`ColumnarSegment.ip_column` / :meth:`~ColumnarSegment.sig_column`);
the PSB-parallel decode of §5.3 (:func:`columnar_decode_parallel`); and
the slow path, whose full decoder walks a window's segments by column
(:class:`~repro.ipt.full_decoder.FullDecoder`).

PSB packets reset IP compression, so any PSB is a valid entry point:
:func:`psb_offsets` and :func:`psb_boundaries` split a stream into
segments that decode independently.
"""

from __future__ import annotations

import ctypes
import re
import struct
from array import array
from typing import List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.ipt import scan_kernel
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
    compose_tnt_sigs,
)

#: the C kernel's ip for an IP-suppressed TIP (a u64 column cannot hold
#: ``None``; no simulated address is ever 2**64-1).
NO_IP = (1 << 64) - 1

#: longest TNT run whose signature the scanners build in a register;
#: a longer run's signature no longer fits below 2**63 and is read from
#: the packed TNT bitstream instead.
SIG_MAX_BITS = 62

# Dispatch action codes.  TNT first and the IP family contiguous right
# after it, so the scan loop resolves the two hot cases with at most
# two comparisons.
_A_TNT = 0
_A_TIP = 1
_A_PGE = 2
_A_PGD = 3
_A_FUP = 4
_A_PAD = 5
_A_PSB = 6
_A_PSBEND = 7
_A_OVF = 8
_A_BAD = 9

#: the far column's head, the segment's anchor (the first FUP with an
#: IP inside a PSB+ group, or TIP.PGE with an IP outside one): its IP
#: (:data:`NO_IP`: none), the record it precedes, its bit offset in that
#: record's TNT run, and the far entries before the walk resumes.
FAR_HEAD = struct.Struct("=4Q")
#: one far entry: ``record << 32 | bit`` (placed as the head is),
#: ``offset << 4 | code`` (the packet's action code, or
#: :data:`FAR_GROUP`), its IP and a group's TIP.PGE IP (:data:`NO_IP`:
#: suppressed, none, or not a group).
FAR_ENTRY = struct.Struct("=4Q")
#: a FUP with an IP, a TIP.PGD and a TIP.PGE with an IP that are
#: consecutive packets (PAD aside), as one entry.
FAR_GROUP = 10
_NO_FAR = FAR_HEAD.pack(NO_IP, 0, 0, 0)


def sync_to_psb(data: bytes, start: int = 0) -> int:
    """Offset of the first PSB at/after ``start``; -1 if none.

    A PSB is the *last* eight bytes of a maximal run of ``82 02``
    pairs: the packet after a PSB is always a FUP or PSBEND, never
    ``0x82``, so an IP payload ending ``82 02`` right before a PSB only
    lengthens the run in front of it.
    """
    if isinstance(data, memoryview):  # views lack a regex buffer search
        data = bytes(data)
    match = _PSB_RE.search(data, start)
    return -1 if match is None else match.start()


def psb_offsets(data: bytes, start: int = 0) -> List[int]:
    """All PSB packet offsets at/after ``start``, in stream order.

    The one forward PSB scan: segment splitting and slice accounting
    derive their boundaries from it (the fast path's tail walk searches
    backward from the end under the same rule).  A ``memoryview``
    input (a fleet ring drain) is converted to ``bytes`` exactly once up
    front, so the whole scan runs on ``bytes.find``.
    """
    if isinstance(data, memoryview):
        data = bytes(data)
    # One match per maximal ``82 02`` run, at its last eight bytes (see
    # :func:`sync_to_psb`), in one C-level pass.
    return [match.start() for match in _PSB_RE.finditer(data, start)]


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


def _build_dispatch() -> bytes:
    table = bytearray([_A_BAD]) * 256
    table[PAD_BYTE] = _A_PAD
    table[TNT_HEADER] = _A_TNT
    table[TIP_HEADER] = _A_TIP
    table[TIP_PGE_HEADER] = _A_PGE
    table[TIP_PGD_HEADER] = _A_PGD
    table[FUP_HEADER] = _A_FUP
    table[PSB_PATTERN[0]] = _A_PSB
    table[PSBEND_BYTE] = _A_PSBEND
    table[OVF_BYTE] = _A_OVF
    return bytes(table)


def _build_tnt_width() -> bytes:
    """Payload byte -> bit count below the stop marker; 255 = invalid
    (no marker bit below bit 7, or no bit below the marker)."""
    table = bytearray(256)
    for payload in range(256):
        if payload <= 1 or payload > 0x7F:
            table[payload] = 255
        else:
            table[payload] = payload.bit_length() - 1
    return bytes(table)


#: 256-entry header dispatch table.
DISPATCH = _build_dispatch()
#: 256-entry TNT payload width table.
TNT_WIDTH = _build_tnt_width()

#: a maximal run of PAD bytes.
_PAD_RUN = re.compile(rb"\x00+")
#: one PSB: the pattern not followed by another ``82 02`` pair (the
#: last eight bytes of its run), and the two bytes it repeats.
_PSB_HEAD = PSB_PATTERN[:2]
_PSB_RE = re.compile(
    re.escape(PSB_PATTERN) + b"(?!" + re.escape(_PSB_HEAD) + b")"
)
#: a run of up to 256 complete, *valid* TNT packets — the character
#: class is exactly the valid payload range, so a non-match at a TNT
#: header is either truncation or an invalid payload (resolved
#: scalar-side with the byte-identical error).  The bound keeps the
#: scan linear: a run's bits are shifted into one int before they
#: flush, and each shift costs that int's width.
_TNT_RUN = re.compile(rb"(?:\x02[\x02-\x7f]){1,256}")


def scan_kernel_active() -> bool:
    """Whether ``columnar_scan`` runs the C kernel on this host."""
    return scan_kernel.load() is not None


def _bits_sig(buf, start: int, end: int) -> int:
    """Signature of bitstream slice ``[start, end)`` (1-prefixed).

    One ``int.from_bytes`` over the covering byte range instead of a
    per-bit loop.
    """
    if start >= end:
        return 1
    width = end - start
    first = start >> 3
    last = (end + 7) >> 3
    chunk = int.from_bytes(buf[first:last], "big") >> ((last << 3) - end)
    return (1 << width) | (chunk & ((1 << width) - 1))


class ColumnarSegment:
    """One scanned stream (usually a PSB segment) in columnar form.

    Offsets in the columns are relative to ``data``; consumers carry the
    segment's stream base separately and add it where they need a
    stream offset, so a segment scanned from a slice never copies.

    The window columns (:meth:`ip_column`, :meth:`sig_column`) are
    lists the scan builds once; the tail walk's span judgement, the
    window and credit training all read them.
    """

    __slots__ = (
        "data", "scanned", "pkt_count", "cycles", "truncated",
        "rec_offsets", "trailing", "far", "_ips", "_sigs",
    )

    def __init__(
        self,
        data,
        scanned: int,
        pkt_count: int,
        cycles: float,
        truncated: bool,
        ips: list,
        rec_offsets: list,
        sigs: list,
        trailing: int,
        far: "bytes | bytearray",
    ) -> None:
        self.data = data
        #: bytes consumed from where the scan started (its PSB with
        #: ``sync``) on (a cut final packet is not consumed); the scan
        #: charges exactly these.
        self.scanned = scanned
        self.pkt_count = pkt_count
        self.cycles = cycles
        self.truncated = truncated
        self.rec_offsets = rec_offsets
        #: signature of the TNT run dangling past the last record
        #: (``1``: none).
        self.trailing = trailing
        self.far = far
        self._ips = ips
        self._sigs = sigs

    def sig_column(self) -> list:
        """Packed signature per record (shared — do not mutate)."""
        return self._sigs

    def ip_column(self) -> list:
        """IP-or-None per record (shared — do not mutate)."""
        return self._ips


def _empty_segment(data) -> ColumnarSegment:
    return ColumnarSegment(data, 0, 0, 0.0, False, [], [], [], 1, _NO_FAR)


def _finish_segment(
    data, synced, pos, pkt_count, truncated, ips, rec_offsets, sigs,
    trailing, far,
) -> ColumnarSegment:
    """Shared scan epilogue: the identical cycle charge and telemetry
    counters regardless of which scanner produced the columns."""
    scanned = pos - synced
    seg = ColumnarSegment(
        data, scanned, pkt_count,
        scanned * costs.FAST_DECODE_CYCLES_PER_BYTE, truncated,
        ips, rec_offsets, sigs, trailing, far,
    )
    tel = get_telemetry()
    if tel.enabled:
        count_scan(tel.metrics, seg)
    return seg


def count_scan(metrics, seg: ColumnarSegment) -> None:
    """Add one decode of ``seg`` to the ``ipt.columnar_scan.*``
    counters.  The scan epilogue calls it for every scan; the fast
    path's tail walk also calls it for a segment it takes from its
    previous walk instead of scanning, so the counters (like the cycle
    charge) count the modelled decoder's work, not this process's."""
    metrics.counter("ipt.columnar_scan.calls").inc()
    metrics.counter("ipt.columnar_scan.bytes").inc(seg.scanned)
    metrics.counter("ipt.columnar_scan.packets").inc(seg.pkt_count)


def columnar_scan(data, sync: bool = False) -> ColumnarSegment:
    """Scan a packet stream into columns.

    With ``sync=True`` (required after a ToPA wrap) the scan starts at
    the first PSB.  A truncated final packet marks the segment
    ``truncated`` instead of raising — a snapshot may end mid-packet
    only if the producer was interrupted, and real decoders tolerate
    it — while a malformed header raises ``PacketError``.  ``data`` may
    be a ``memoryview`` over a larger buffer (zero-copy segment slices).
    Each scan adds to the ``ipt.columnar_scan.*`` telemetry counters.

    Runs the C kernel when it built, otherwise the vectorised
    pure-Python scan; the two build identical segments.
    """
    lib = scan_kernel.load()
    if lib is not None:
        return _scan_kernel_segment(lib, data, sync)
    return _scan_python(data, sync)


def _scan_python(data, sync: bool) -> ColumnarSegment:
    """The vectorised pure-Python scan.

    PAD and TNT packets — the overwhelming bulk of a real stream — are
    consumed per *run*: a regex pre-classification finds each maximal
    PAD run and each run of up to 256 TNT packets, ``bytes.translate``
    over :data:`TNT_WIDTH` yields every payload's width in one call,
    and the accumulated bits flush to the packed stream in one
    ``int.to_bytes``; the same bits extend the
    pending record's signature while its run fits :data:`SIG_MAX_BITS`.
    A longer run's signature is read from the packed stream once the
    scan ends.  The IP family stays scalar (IP compression chains
    ``last_ip`` sequentially), and so does the far column.  PSB sync is
    one :func:`sync_to_psb` search.
    """
    raw = data if isinstance(data, bytes) else bytes(data)
    pos = 0
    if sync:
        pos = sync_to_psb(raw)
        if pos < 0:
            return _empty_segment(data)
    synced = pos
    size = len(raw)
    dispatch = DISPATCH
    tnt_width = TNT_WIDTH
    psb = PSB_PATTERN
    psb_len = len(psb)
    pad_run = _PAD_RUN.match
    tnt_run = _TNT_RUN.match

    ips: list = []
    rec_offsets: list = []
    sigs: list = []
    #: ``(record, first bit, end bit)`` of each run past SIG_MAX_BITS.
    long_runs = []
    far = [NO_IP, 0, 0, 0]  # FAR_HEAD, then FAR_ENTRY words
    fup_at = -3  # packet count at the last FUP entry with an IP
    anchored = False
    in_psb = False  # inside a PSB+ group

    tnt_buf = bytearray()
    acc = 0  # bit accumulator, bulk-flushed per TNT run
    acc_bits = 0
    run_sig = 1  # 1-prefixed signature of the pending TNT run
    total_bits = 0
    pend_start = 0
    last_ip = 0
    pkt_count = 0
    truncated = False

    while pos < size:
        action = dispatch[raw[pos]]
        if action == _A_TNT:
            match = tnt_run(raw, pos)
            if match is None:
                if pos + 2 > size:
                    truncated = True
                    break
                raise PacketError(
                    f"invalid TNT payload {raw[pos + 1]:#x}"
                )
            end = match.end()
            payloads = raw[pos + 1:end:2]
            widths = payloads.translate(tnt_width)
            for payload, width in zip(payloads, widths):
                acc = (acc << width) | (payload ^ (1 << width))
            run_bits = sum(widths)
            acc_bits += run_bits
            total_bits += run_bits
            if total_bits - pend_start <= SIG_MAX_BITS:
                run_sig = (run_sig << run_bits) | (
                    acc & ((1 << run_bits) - 1)
                )
            if acc_bits >= 8:
                rem = acc_bits & 7
                tnt_buf += (acc >> rem).to_bytes(acc_bits >> 3, "big")
                acc &= (1 << rem) - 1
                acc_bits = rem
            pkt_count += len(payloads)
            pos = end
        elif action <= _A_FUP:  # TIP / TIP.PGE / TIP.PGD / FUP
            if pos + 2 > size:
                truncated = True
                break
            width = raw[pos + 1]
            if width > 8:
                raise PacketError(
                    f"desynchronised at offset {pos}: "
                    f"IP width {width} impossible"
                )
            end = pos + 2 + width
            if end > size:
                truncated = True
                break
            if width == 0:
                ip: Optional[int] = None
            else:
                mask = (1 << (8 * width)) - 1
                ip = (last_ip & ~mask) | int.from_bytes(
                    raw[pos + 2:end], "little"
                )
                last_ip = ip
            if action == _A_TIP:
                if total_bits - pend_start > SIG_MAX_BITS:
                    long_runs.append((len(sigs), pend_start, total_bits))
                ips.append(ip)
                rec_offsets.append(pos)
                sigs.append(run_sig)
                run_sig = 1
                pend_start = total_bits
            else:
                bit = total_bits - pend_start
                if in_psb:
                    pass  # context: no entry; a FUP may be the anchor
                elif (action == _A_PGE and ip is not None
                        and fup_at == pkt_count - 2
                        and far[-3] & 15 == _A_PGD):
                    # FUP, TIP.PGD, TIP.PGE: fold into the FUP's entry.
                    del far[-4:]
                    far[-3] += FAR_GROUP - _A_FUP
                    far[-1] = ip
                else:
                    far += (len(sigs) << 32 | bit, pos << 4 | action,
                            NO_IP if ip is None else ip, NO_IP)
                    if action == _A_FUP and ip is not None:
                        fup_at = pkt_count
                if (ip is not None and not anchored
                        and action == (_A_FUP if in_psb else _A_PGE)):
                    far[0:4] = (ip, len(sigs), bit, len(far) // 4 - 1)
                    anchored = True
            pkt_count += 1
            pos = end
        elif action == _A_PAD:
            pos = pad_run(raw, pos).end()
        elif action == _A_PSB and raw[pos:pos + psb_len] == psb:
            last_ip = 0
            in_psb = True
            pkt_count += 1
            pos += psb_len
        elif action == _A_PSBEND and in_psb:
            in_psb = False
            pkt_count += 1
            pos += 1
        elif action == _A_PSBEND or action == _A_OVF:
            if not in_psb:  # a stray PSBEND, or an OVF
                far += (len(sigs) << 32 | (total_bits - pend_start),
                        pos << 4 | action, NO_IP, NO_IP)
            pkt_count += 1
            pos += 1
        elif psb[: size - pos] == raw[pos:]:
            # The buffer ends inside a PSB pattern (including a lead
            # 0x82 whose pattern was cut): clean truncation, not desync.
            truncated = True
            break
        else:
            raise PacketError(
                f"desynchronised at offset {pos}: header {raw[pos]:#04x}"
            )

    if acc_bits:
        tnt_buf.append((acc << (8 - acc_bits)) & 0xFF)
    for index, start, end in long_runs:
        sigs[index] = _bits_sig(tnt_buf, start, end)
    if total_bits - pend_start > SIG_MAX_BITS:
        run_sig = _bits_sig(tnt_buf, pend_start, total_bits)
    return _finish_segment(
        data, synced, pos, pkt_count, truncated, ips, rec_offsets,
        sigs, run_sig, array("Q", far).tobytes(),
    )


#: the C kernel's scalar outputs (``out[]`` in ``_scan_kernel.c``), at
#: the head of its arena, followed by its four u64 columns and the far
#: column.
_KERNEL_OUT = struct.Struct("=9Q")
_OUT_WORDS = _KERNEL_OUT.size // 8
_FAR_HEAD_SIZE = FAR_HEAD.size
_FAR_ENTRY_SIZE = FAR_ENTRY.size

# The C kernel's arena: one grow-only buffer per process, sized to the
# largest scan so far — a bytearray, the ctypes object exporting it to
# the kernel (kept alive beside it, so the address stays valid), that
# address, and a u64 view of it, swapped as one tuple.  Every scan
# reuses it and builds its lists from it before returning, so no
# segment refers to the arena.  Nothing in the package scans from more
# than one thread; the shared arena relies on that.
_arena: tuple = (bytearray(), None, 0, memoryview(b""))


def _kernel_arena(size: int) -> tuple:
    """The arena, at least ``size`` bytes."""
    global _arena
    arena = _arena
    if len(arena[0]) < size:
        buf = bytearray((size + 7) & ~7)  # whole u64 words
        export = (ctypes.c_char * len(buf)).from_buffer(buf)
        arena = _arena = (
            buf, export, ctypes.addressof(export),
            memoryview(buf).cast("Q"),
        )
    return arena


def _scan_kernel_segment(lib, data, sync: bool) -> ColumnarSegment:
    """Run the C kernel over the arena and build the segment's lists
    from it."""
    raw = data if isinstance(data, bytes) else bytes(data)
    pos = 0
    if sync:
        pos = sync_to_psb(raw)
        if pos < 0:
            return _empty_segment(data)
    size = len(raw)
    span = size - pos
    # Worst-case capacities: every TIP is >= 2 bytes, every far packet
    # >= 1 byte (2 * capacity entries), every TNT pair contributes <= 6
    # bits.  The kernel writes every word and byte it reports, so
    # nothing needs zeroing.
    capacity = span // 2 + 1
    far_at = 8 * (_OUT_WORDS + 4 * capacity)
    tnt_at = far_at + _FAR_HEAD_SIZE + 2 * _FAR_ENTRY_SIZE * capacity
    need = tnt_at + (span * 3) // 8 + 2
    arena = _arena
    if len(arena[0]) < need:
        arena = _kernel_arena(need)
    buf, _, address, words = arena
    nfar = lib.ipt_scan(raw, size, pos, address, capacity)
    (end_pos, pkt_count, nrec, truncated, suppressed, sentinels, trailing,
     pend_start, total_bits) = _KERNEL_OUT.unpack_from(buf)
    if nfar < 0:
        if nfar == -1:
            raise PacketError(f"invalid TNT payload {pkt_count:#x}")
        if nfar == -2:
            raise PacketError(
                f"desynchronised at offset {end_pos}: "
                f"IP width {pkt_count} impossible"
            )
        raise PacketError(
            f"desynchronised at offset {end_pos}: header {pkt_count:#04x}"
        )
    at = _OUT_WORDS
    ips = words[at:at + nrec].tolist()
    at += capacity
    rec_offsets = words[at:at + nrec].tolist()
    at += capacity
    sigs = words[at:at + nrec].tolist()
    if suppressed:
        ips = [None if ip == NO_IP else ip for ip in ips]
    if sentinels or not trailing:
        # A run past SIG_MAX_BITS: read it from the packed bitstream,
        # between the TNT bit counts at its ends.
        tnt = buf[tnt_at:tnt_at + ((total_bits + 7) >> 3)]
        bits = words[at + capacity:at + capacity + nrec].tolist()
        for index, sig in enumerate(sigs):
            if not sig:
                sigs[index] = _bits_sig(
                    tnt, bits[index - 1] if index else 0, bits[index]
                )
        if not trailing:
            trailing = _bits_sig(tnt, pend_start, total_bits)
    return _finish_segment(
        data, pos, end_pos, pkt_count, bool(truncated), ips,
        rec_offsets, sigs, trailing,
        buf[far_at:far_at + _FAR_HEAD_SIZE + _FAR_ENTRY_SIZE * nfar],
    )


# -- tail accumulation (the fast-path consumer) ------------------------------


class _TailEntry:
    """One segment of a backward-accumulated tail, with the stitch patch
    that applies to its *first* record (trailing TNT runs of every
    earlier segment folded in, composed without unpacking)."""

    __slots__ = ("seg", "base", "patch_sig")

    def __init__(self, seg: ColumnarSegment, base: int) -> None:
        self.seg = seg
        self.base = base
        self.patch_sig = 1


class ColumnarTail:
    """Backward-accumulated PSB segments, stored latest-first.

    The fast path's tail walk
    (:meth:`~repro.monitor.fastpath.FastPathChecker.decode_tail_columnar`)
    builds it: each :class:`_TailEntry` carries the stitch patch for its
    segment's first record, so nothing is built until a window is
    requested, and the window itself is slices of the segments' columns.
    """

    __slots__ = ("entries", "count", "cycles", "start")

    def __init__(
        self,
        entries: Optional[List[_TailEntry]] = None,
        count: int = 0,
        cycles: float = 0.0,
        start: int = 0,
    ) -> None:
        self.entries: List[_TailEntry] = [] if entries is None else entries
        #: records across all entries.
        self.count = count
        #: scan cycles charged for the walk (corrupt segments included).
        self.cycles = cycles
        #: stream offset of the oldest segment walked.
        self.start = start

    def window(self, n: int):
        """The last ``n`` records as ``(ips, sigs, first_offset)``.

        ``ips`` (None = IP-suppressed) and ``sigs`` (packed TNT runs)
        are the columns the batched edge check and the slow-path
        hand-off consume: slices of the segments' columns, with a
        stitch patch landing on the fresh copy, never the column.
        ``first_offset`` is the stream offset of the window's first
        record (None for an empty window).

        One pass: the walk newest-first only counts records to find the
        oldest segment the window reaches; the columns are then built
        oldest-first straight into the two output lists.
        """
        entries = self.entries
        need = n
        reach = 0  # entries[:reach] hold the window
        if need > 0:
            for entry in entries:
                reach += 1
                need -= len(entry.seg._ips)
                if need <= 0:
                    break
        # ``-need`` records of the oldest reached segment are older
        # than the window (need > 0: the tail is shorter than ``n``).
        skip = -need if need < 0 else 0
        ips = sigs = None
        first_offset = None
        for index in range(reach - 1, -1, -1):
            entry = entries[index]
            seg = entry.seg
            if not seg._ips:
                continue
            if ips is None:
                ips = seg.ip_column()[skip:]
                sigs = seg.sig_column()[skip:]
                first_offset = seg.rec_offsets[skip] + entry.base
                at = 0 if skip == 0 else -1
            else:
                at = len(sigs)
                ips += seg.ip_column()
                sigs += seg.sig_column()
            if at >= 0 and entry.patch_sig != 1:
                sigs[at] = compose_tnt_sigs(entry.patch_sig, sigs[at])
        if ips is None:
            ips, sigs = [], []
        return ips, sigs, first_offset

    def slow_source(
        self, window_start: Optional[int] = None
    ) -> List[Tuple[ColumnarSegment, int]]:
        """The slow path's input: the segments from the PSB sync point
        nearest at-or-before ``window_start`` onward (all of them when
        ``window_start`` is None), as ``(segment, stream_base)`` pairs
        in stream order — what
        :meth:`~repro.ipt.full_decoder.FullDecoder.decode` walks."""
        parts = []
        for entry in self.entries:  # latest-first, decreasing base
            parts.append((entry.seg, entry.base))
            if window_start is not None and entry.base <= window_start:
                break
        parts.reverse()
        return parts


# -- PSB-parallel decode (§5.3) ----------------------------------------------


class ColumnarParallelResult:
    """A PSB-parallel decode: per-segment columns with zero-copy bases.

    ``cycles`` is the work done; ``critical_path_cycles`` is the slowest
    segment — the latency with one worker per segment, the §5.3 "can be
    done in parallel" acceleration."""

    __slots__ = ("columns", "cycles", "segments", "critical_path_cycles",
                 "truncated")

    def __init__(self, columns, cycles, segments,
                 critical_path_cycles) -> None:
        #: ``[(ColumnarSegment, stream_base), ...]`` in stream order.
        self.columns = columns
        self.cycles = cycles
        self.segments = segments
        self.critical_path_cycles = critical_path_cycles
        self.truncated = bool(columns) and columns[-1][0].truncated


def columnar_decode_parallel(data) -> ColumnarParallelResult:
    """Split at PSBs and scan segments independently (zero-copy
    ``memoryview`` slices), accounting total and critical-path cycles.
    """
    boundaries = psb_boundaries(data)
    view = memoryview(data)
    columns = []
    total = 0.0
    critical = 0.0
    for begin, end in zip(boundaries, boundaries[1:]):
        if begin >= end:
            continue
        seg = columnar_scan(view[begin:end])
        columns.append((seg, begin))
        total += seg.cycles
        critical = max(critical, seg.cycles)
    return ColumnarParallelResult(
        columns, total, max(len(columns), 1), critical
    )
