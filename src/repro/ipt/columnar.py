"""The packet decoder: one table-driven scan into columns.

The fast decoder only parses packet *framing* — headers, TNT payloads,
compressed IPs.  It never touches program binaries, which is what makes
it orders of magnitude cheaper than the instruction-flow layer
(:mod:`repro.ipt.full_decoder`), at the price of not knowing what
instruction produced each packet.  Allocating an object per packet
would dominate its wall-clock, so a scan builds one
:class:`ColumnarSegment` of *columns*, one entry per plain TIP packet —
only what the checker, training and the slow path read:

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
the slow path, whose full decoder walks the retained segment bytes
through the byte cursor of :class:`ColumnarSlowSource`.

PSB packets reset IP compression, so any PSB is a valid entry point:
:func:`psb_offsets` and :func:`psb_boundaries` split a stream into
segments that decode independently.
"""

from __future__ import annotations

import ctypes
import re
import struct
from typing import List, Optional

from repro import costs
from repro.telemetry import get_telemetry
from repro.ipt import scan_kernel
from repro.ipt.full_decoder import TraceMismatch
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
    TNT_BITS_TABLE,
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

#: action code -> the ``PacketKind.value`` string the byte cursor
#: reports in ``TraceMismatch`` messages.
_ACTION_KIND = (
    "tnt", "tip", "tip.pge", "tip.pgd", "fup", "pad", "psb", "psbend",
    "ovf", "?",
)

_END = -1  # byte-cursor stream end


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
    (same validity rule as :func:`repro.ipt.packets.decode_tnt_payload`)."""
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
        "data", "sync", "synced_offset", "scanned", "pkt_count", "cycles",
        "truncated", "rec_offsets", "trailing", "_ips", "_sigs",
    )

    def __init__(
        self,
        data,
        sync: bool,
        synced_offset: int,
        scanned: int,
        pkt_count: int,
        cycles: float,
        truncated: bool,
        ips: list,
        rec_offsets: list,
        sigs: list,
        trailing: int,
    ) -> None:
        self.data = data
        self.sync = sync
        self.synced_offset = synced_offset
        #: bytes consumed from ``synced_offset`` on (a cut final
        #: packet is not consumed); the scan charges exactly these.
        self.scanned = scanned
        self.pkt_count = pkt_count
        self.cycles = cycles
        self.truncated = truncated
        self.rec_offsets = rec_offsets
        #: signature of the TNT run dangling past the last record
        #: (``1``: none).
        self.trailing = trailing
        self._ips = ips
        self._sigs = sigs

    def sig_column(self) -> list:
        """Packed signature per record (shared — do not mutate)."""
        return self._sigs

    def ip_column(self) -> list:
        """IP-or-None per record (shared — do not mutate)."""
        return self._ips


def _empty_segment(data, sync: bool) -> ColumnarSegment:
    return ColumnarSegment(
        data, sync, len(data), 0, 0, 0.0, False, [], [], [], 1
    )


def _finish_segment(
    data, sync, synced, pos, pkt_count, truncated, ips, rec_offsets, sigs,
    trailing,
) -> ColumnarSegment:
    """Shared scan epilogue: the identical cycle charge and telemetry
    counters regardless of which scanner produced the columns."""
    scanned = pos - synced
    seg = ColumnarSegment(
        data, sync, synced, scanned, pkt_count,
        scanned * costs.FAST_DECODE_CYCLES_PER_BYTE, truncated,
        ips, rec_offsets, sigs, trailing,
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
    ``last_ip`` sequentially).  PSB sync is one :func:`sync_to_psb`
    search.
    """
    raw = data if isinstance(data, bytes) else bytes(data)
    pos = 0
    if sync:
        pos = sync_to_psb(raw)
        if pos < 0:
            return _empty_segment(data, sync)
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
            pkt_count += 1
            pos = end
        elif action == _A_PAD:
            pos = pad_run(raw, pos).end()
        elif action == _A_PSB and raw[pos:pos + psb_len] == psb:
            last_ip = 0
            pkt_count += 1
            pos += psb_len
        elif action == _A_PSBEND or action == _A_OVF:
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
        data, sync, synced, pos, pkt_count, truncated, ips, rec_offsets,
        sigs, run_sig,
    )


#: the C kernel's scalar outputs (``out[]`` in ``_scan_kernel.c``), at
#: the head of its arena, followed by its four u64 columns.
_KERNEL_OUT = struct.Struct("=9Q")
_OUT_WORDS = _KERNEL_OUT.size // 8

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
            return _empty_segment(data, sync)
    size = len(raw)
    span = size - pos
    # Worst-case capacities: every TIP is >= 2 bytes, every TNT pair
    # contributes <= 6 bits.  The kernel writes every word and byte it
    # reports, so nothing needs zeroing.
    capacity = span // 2 + 1
    tnt_at = 8 * (_OUT_WORDS + 4 * capacity)
    buf, _, address, words = _kernel_arena(tnt_at + (span * 3) // 8 + 2)
    status = lib.ipt_scan(raw, size, pos, address, capacity)
    (end_pos, pkt_count, nrec, truncated, suppressed, sentinels, trailing,
     pend_start, total_bits) = _KERNEL_OUT.unpack_from(buf)
    if status:
        if status == 1:
            raise PacketError(f"invalid TNT payload {pkt_count:#x}")
        if status == 2:
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
        data, sync, pos, end_pos, pkt_count, bool(truncated), ips,
        rec_offsets, sigs, trailing,
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
    ) -> "ColumnarSlowSource":
        """The slow path's input: the segments from the PSB sync point
        nearest at-or-before ``window_start`` onward (all of them when
        ``window_start`` is None), as raw segment bytes plus bases."""
        entries = self.entries  # latest-first, strictly decreasing base
        if window_start is None:
            picked = list(entries)
        else:
            picked = []
            for entry in entries:
                picked.append(entry)
                if entry.base <= window_start:
                    break
        picked.reverse()
        return ColumnarSlowSource(
            [(entry.seg, entry.base) for entry in picked]
        )


# -- the degraded lane: byte-level slow-path replay --------------------------


class ColumnarSlowSource:
    """The full decoder's input: scanned segments as
    ``(ColumnarSegment, stream_base)`` pairs in stream order.
    ``FullDecoder.decode`` walks the retained segment bytes through
    :meth:`cursor` — no packet objects are built.
    """

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        self.parts = parts

    def cursor(self) -> "_ByteCursor":
        return _ByteCursor(self.parts)


#: payload byte -> TNT bit tuple, newest first (``pending_bits`` order).
_TNT_BITS_NEWEST_FIRST = [
    None if bits is None else bits[::-1] for bits in TNT_BITS_TABLE
]


class _ByteCursor:
    """Sequential packet consumption straight out of segment bytes.

    Parses packets from the retained segment bytes — maintaining IP
    compression state, skipping PAD and PSB+ groups on demand — and
    hands the full decoder one TNT bit, TIP target or far-transfer
    resume at a time.  ``None`` means the stream ended; a packet the
    walk cannot use (wrong kind, or an IP-suppressed TIP, TIP.PGE or
    FUP where a target is needed) raises ``TraceMismatch``.
    ``PacketError`` conditions cannot arise on segments that already
    scanned cleanly, but are checked anyway.
    """

    __slots__ = ("_parts", "_part", "_raw", "_size", "_pos", "_base",
                 "_last_ip", "pending_bits", "_offset", "_payload", "_ip")

    def __init__(self, parts) -> None:
        self._parts = parts
        self._part = -1
        self._raw = b""
        self._size = 0
        self._pos = 0
        self._base = 0
        self._last_ip = 0
        #: TNT bits decoded but not yet consumed, oldest *last*: the
        #: full decoder pops a JCC's bit from here inline and calls
        #: :meth:`next_tnt_bit` only when the list runs dry.
        self.pending_bits: list = []
        self._offset = 0
        self._payload = 0
        self._ip: Optional[int] = None

    def _advance(self) -> int:
        """Decode the next packet; returns its action code or ``_END``.

        Sets ``_offset`` (stream-absolute) for every packet, ``_ip``
        for the IP family (None = suppressed) and ``_payload`` for TNT.
        """
        while True:
            raw = self._raw
            size = self._size
            pos = self._pos
            while pos < size:
                action = DISPATCH[raw[pos]]
                if action == _A_PAD:
                    pos += 1
                    continue
                if action == _A_TNT:
                    if pos + 2 > size:  # truncated: stream ends
                        break
                    payload = raw[pos + 1]
                    if TNT_WIDTH[payload] == 255:
                        raise PacketError(
                            f"invalid TNT payload {payload:#x}"
                        )
                    self._offset = self._base + pos
                    self._payload = payload
                    self._pos = pos + 2
                    return _A_TNT
                if action <= _A_FUP:
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
                    if width == 0:
                        self._ip = None
                    else:
                        mask = (1 << (8 * width)) - 1
                        ip = (self._last_ip & ~mask) | int.from_bytes(
                            raw[pos + 2:end], "little"
                        )
                        self._last_ip = ip
                        self._ip = ip
                    self._offset = self._base + pos
                    self._pos = end
                    return action
                if action == _A_PSB and raw[pos:pos + 8] == PSB_PATTERN:
                    self._last_ip = 0
                    self._offset = self._base + pos
                    self._pos = pos + 8
                    return _A_PSB
                if action == _A_PSBEND or action == _A_OVF:
                    self._offset = self._base + pos
                    self._pos = pos + 1
                    return action
                if PSB_PATTERN[: size - pos] == raw[pos:]:
                    break  # trailing PSB prefix: clean truncation
                raise PacketError(
                    f"desynchronised at offset {pos}: "
                    f"header {raw[pos]:#04x}"
                )
            # Part exhausted (or truncated): move to the next segment.
            self._pos = size
            if self._part + 1 >= len(self._parts):
                return _END
            self._part += 1
            seg, base = self._parts[self._part]
            data = seg.data
            self._raw = data if isinstance(data, bytes) else bytes(data)
            self._size = len(self._raw)
            self._base = base
            self._pos = seg.synced_offset if seg.sync else 0

    def _skip_psb_group(self) -> None:
        """Consume context packets up to and including PSBEND."""
        while True:
            action = self._advance()
            if action == _END or action == _A_PSBEND:
                return

    def next_tnt_bit(self) -> Optional[bool]:
        """Next conditional-branch outcome, or None at stream end."""
        bits = self.pending_bits
        while not bits:
            action = self._advance()
            if action == _END:
                return None
            if action == _A_PSB:
                self._skip_psb_group()
                continue
            if action == _A_TNT:
                bits.extend(_TNT_BITS_NEWEST_FIRST[self._payload])
                continue
            raise TraceMismatch(
                f"expected TNT, found {_ACTION_KIND[action]} at "
                f"offset {self._offset}"
            )
        return bits.pop()

    def next_tip(self) -> Optional[int]:
        """Next plain-TIP target, or None at stream end."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a TIP")
        while True:
            action = self._advance()
            if action == _END:
                return None
            if action == _A_PSB:
                self._skip_psb_group()
                continue
            if action == _A_TIP:
                return self._target(action)
            raise TraceMismatch(
                f"expected TIP, found {_ACTION_KIND[action]} at "
                f"offset {self._offset}"
            )

    def next_far_resume(self, expected_src: int) -> Optional[int]:
        """Consume a FUP/TIP.PGD/TIP.PGE group; return the resume IP."""
        if self.pending_bits:
            raise TraceMismatch("unconsumed TNT bits before a far transfer")
        while True:
            action = self._advance()
            if action == _END:
                return None
            if action == _A_PSB:
                self._skip_psb_group()
                continue
            if action != _A_FUP:
                raise TraceMismatch(
                    f"expected FUP, found {_ACTION_KIND[action]}"
                )
            if self._target(action) != expected_src:
                raise TraceMismatch(
                    f"FUP {self._ip:#x} does not match far-transfer "
                    f"source {expected_src:#x}"
                )
            break
        action = self._advance()
        if action == _END:
            return None
        if action != _A_PGD:
            raise TraceMismatch(
                f"expected TIP.PGD, found {_ACTION_KIND[action]}"
            )
        action = self._advance()
        if action == _END:
            return None
        if action != _A_PGE:
            raise TraceMismatch(
                f"expected TIP.PGE, found {_ACTION_KIND[action]}"
            )
        return self._target(action)

    def _target(self, action: int) -> int:
        """The IP of the packet just decoded, which the walk needs: an
        IP-suppressed packet here is a desync, not the stream's end."""
        ip = self._ip
        if ip is None:
            raise TraceMismatch(
                f"IP-suppressed {_ACTION_KIND[action]} at "
                f"offset {self._offset}"
            )
        return ip

    def initial_ip(self) -> Optional[int]:
        """Find the first PSB-context FUP or TIP.PGE to anchor decoding."""
        while True:
            action = self._advance()
            if action == _END:
                return None
            if action == _A_PSB:
                while True:
                    ctx = self._advance()
                    if ctx == _END:
                        return None
                    if ctx == _A_FUP and self._ip is not None:
                        found = self._ip
                        # Consume the rest of the group.
                        while True:
                            rest = self._advance()
                            if rest == _END or rest == _A_PSBEND:
                                break
                        return found
                    if ctx == _A_PSBEND:
                        break
            elif action == _A_PGE and self._ip is not None:
                return self._ip


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
