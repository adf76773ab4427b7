"""The fast path (§5.3): packet-layer decode + ITC-CFG search.

The checker decodes only the *tail* of the ToPA buffer — scanning
backward for the nearest PSB sync point that yields enough TIP packets
and the required module coverage — then verifies every consecutive TIP
pair against the credit-labelled ITC-CFG:

- a pair with no ITC edge  -> **VIOLATION** (attack, no false positives),
- all edges high-credit with matching TNT -> **PASS**,
- otherwise -> **SUSPICIOUS**, forwarded to the slow path.

A segment whose bytes no longer decode (drain corruption) degrades
rather than aborts the check: the tail scan stops at the corrupt
segment and judges the clean suffix that re-synced at the next PSB —
never stitching a window across the gap, which would fabricate
non-adjacent TIP pairs.  Every such downgrade is recorded in the
attached :class:`~repro.resilience.DegradationLedger`.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import costs
from repro.binary.loader import Image
from repro.telemetry import get_telemetry
from repro.ipt.columnar import (
    _PSB_HEAD,
    ColumnarSegment,
    ColumnarTail,
    _TailEntry,
    columnar_scan,
    count_scan,
)
from repro.ipt.packets import PSB_PATTERN, PacketError, compose_tnt_sigs
from repro.itccfg.paths import PathIndex
from repro.itccfg.searchindex import FlowSearchIndex


class Verdict(enum.Enum):
    PASS = "pass"
    SUSPICIOUS = "suspicious"  # run the slow path
    VIOLATION = "violation"  # attack detected
    INSUFFICIENT = "insufficient"  # not enough trace to judge


@dataclass
class FastPathResult:
    verdict: Verdict
    checked_pairs: int = 0
    low_credit_pairs: List[Tuple[int, int]] = field(default_factory=list)
    violation_edge: Optional[Tuple[int, int]] = None
    decode_cycles: float = 0.0
    search_cycles: float = 0.0
    #: the checked window, for hand-off to the slow path: its record
    #: IPs (None = IP-suppressed), their packed TNT signatures, and the
    #: stream offset of its first record (None for an empty window).
    window_ips: list = field(default_factory=list)
    window_sigs: list = field(default_factory=list)
    first_record_offset: Optional[int] = None
    window_offset: int = 0  # stream offset the window decode started at
    #: the decoded tail's scanned segments, for the slow-path hand-off.
    tail: ColumnarTail = field(default_factory=ColumnarTail)
    #: undecodable PSB segments the tail scan stopped at (degradation).
    corrupt_segments: int = 0

    def slow_path_source(self) -> List[Tuple[ColumnarSegment, int]]:
        """Slow-path input: the tail segments from the PSB sync point
        nearest *before* the checked window onward, not the whole tail
        — the slow path only needs to reconstruct the suspicious region.
        """
        return self.tail.slow_source(self.first_record_offset)


class FastPathChecker:
    """Checking logic over a search index, one checker per protected
    process (``execve`` and ``rebind`` build a fresh one).

    The one thing a check leaves for the next is the segments its tail
    walk scanned, keyed by their bytes, so the next walk scans only the
    segments whose bytes are new (see :meth:`decode_tail_columnar`).
    """

    def __init__(
        self,
        index: FlowSearchIndex,
        image: Image,
        pkt_count: int = 30,
        cred_ratio: float = 1.0,
        require_cross_module: bool = True,
        require_executable: bool = True,
        path_index: "PathIndex | None" = None,
        ledger=None,
        owner_pid: int = -1,
    ) -> None:
        self.index = index
        self.image = image
        self.pkt_count = pkt_count
        self.cred_ratio = cred_ratio
        self.require_cross_module = require_cross_module
        self.require_executable = require_executable
        #: optional context-sensitive extension: trained k-gram paths.
        self.path_index = path_index
        #: optional :class:`~repro.resilience.DegradationLedger` that
        #: audits corrupt-segment recovery, attributed to ``owner_pid``.
        self.ledger = ledger
        self.owner_pid = owner_pid
        #: corrupt segments hit by the most recent tail decode.
        self.last_corrupt_segments = 0
        #: the module-span range table (see :func:`module_ranges`):
        #: range starts for ``bisect``, and ``(base, end, name,
        #: is_executable)`` per range.  Per image, shared by the images
        #: of one module set; ``execve`` and ``rebind`` build a fresh
        #: checker.  A checker with no span requirement may have no
        #: image.
        ranges = [] if image is None else module_ranges(image)
        self._range_starts = [entry[0] for entry in ranges]
        self._ranges = ranges
        #: the previous tail walk's segments, keyed by their bytes.
        self._last_walk: dict = {}

    # -- tail decoding -------------------------------------------------------

    def decode_tail_columnar(self, data: bytes) -> ColumnarTail:
        """Decode backward-growing tail windows until requirements hold.

        Only the bytes actually decoded are charged — the §5.3 point
        that the whole ToPA buffer need not be decoded.

        Each PSB segment is scanned at most once: the walk goes backward
        from the buffer end, prepending one segment at a time until the
        ``pkt_count``/module-span requirements hold.  Once the tail
        holds more than ``pkt_count`` records its newest ``pkt_count +
        1`` ips are fixed (prepending only adds older records), so the
        module span is judged once, on that window; if it fails, the
        walk still scans and charges every remaining segment, but never
        re-judges it.  Segments scan
        independently because PSBs reset IP compression; the dangling
        TNT bits a segment ends with are stitched onto the first TIP of
        the already-accumulated suffix (a signature composition — nothing
        is built until the check loop asks for its window, and
        prepending is O(1)).

        A segment that raises :class:`PacketError` (corrupt drain bytes)
        stops the backward scan: the clean suffix already accumulated —
        re-synced at the PSB *after* the corruption — is the window.
        Skipping over the gap instead would pair TIPs that were never
        adjacent and fabricate violations.  The failed decode is still
        charged for the bytes scanned, and the downgrade lands in the
        ledger (``corrupt-segment``, ``psb-resync``).

        The walk keeps the segments it scanned, keyed by their bytes,
        until the next walk, which takes a segment from there instead of
        scanning bytes it has already seen (successive snapshots of one
        process share most of their tail).  This is exact: a scan is a
        pure function of the segment's bytes and its columns are
        segment-relative (the walk carries ``begin``), so a kept segment
        is what a rescan would build, at whatever offset a ring wrap has
        moved it to.  A segment that raised is never kept, the
        truncation rule judges a kept segment as it would a fresh one,
        and the charge and the ``ipt.columnar_scan.*`` counters count
        every segment walked, kept or scanned: they model the paper's
        decoder, which has no such memory.
        """
        self.last_corrupt_segments = 0
        entries = []
        pkt_count = self.pkt_count
        check_span = self.require_cross_module or self.require_executable
        span_judged = False
        # PSBs are found lazily from the end, inline (a walk stops after
        # a few segments, so it must not pay for every PSB in the
        # buffer).  Anything but ``bytes`` (a ring drain's view) is
        # copied once: the segments' keys, which the scans keep as their
        # data, must not change under a later write to the caller's
        # buffer.
        buf = data if isinstance(data, bytes) else bytes(data)
        last_walk = self._last_walk
        walked = {}
        tel = get_telemetry()
        rfind = buf.rfind
        startswith = buf.startswith
        cycles = 0.0
        size = len(data)
        end = start = search_end = size
        count = 0
        head = None  # the oldest entry holding records
        while True:
            begin = rfind(PSB_PATTERN, 0, search_end)
            if begin < 0:
                break
            # The rightmost match ends its ``82 02`` run, so it is the
            # PSB (see :func:`~repro.ipt.columnar.sync_to_psb`); resume
            # in front of the whole run, whose earlier pairs are payload.
            search_end = begin
            while search_end >= 2 and startswith(_PSB_HEAD, search_end - 2):
                search_end -= 2
            if end == size:  # the newest segment: the window starts here
                start = begin
            key = buf[begin:end]
            seg = last_walk.get(key)
            if seg is None:
                try:
                    # The key is the scan's input (the scan would copy a
                    # view); the columns stay segment-relative and
                    # ``begin`` is the base the tail carries.
                    seg = columnar_scan(key)
                except PacketError:
                    cycles += self._corrupt_segment(begin, end, count > 0)
                    break
            elif tel.enabled:
                count_scan(tel.metrics, seg)
            walked[key] = seg
            if seg.truncated and end < size:
                # Only the *final* segment of a clean stream can end
                # mid-packet (the snapshot caught the producer).  A
                # truncated middle segment means its bytes are corrupt
                # in a way that mimics truncation — keeping its prefix
                # records would stitch across the gap and pair TIPs
                # that were never adjacent.
                cycles += seg.cycles + self._corrupt_segment(
                    begin, end, count > 0
                )
                break
            cycles += seg.cycles
            # Fold the segment's dangling TNT run onto the head record
            # (a PSB resets IP compression, not branch context), then
            # append its entry.
            if count and seg.trailing != 1:
                head.patch_sig = compose_tnt_sigs(
                    seg.trailing, head.patch_sig
                )
            entry = _TailEntry(seg, begin)
            entries.append(entry)
            records = len(seg.ip_column())
            if records:
                head = entry
                count += records
            start = end = begin
            if count > pkt_count and not span_judged:
                if not check_span or self._spans_modules(
                    _window_ips(entries, pkt_count + 1)
                ):
                    break
                span_judged = True
        self._last_walk = walked
        return ColumnarTail(entries, count, cycles, start)

    def _corrupt_segment(self, begin: int, end: int, resynced: bool) -> float:
        """Account one undecodable segment; returns the cycles the
        failed decode burned (the decoder scanned up to the corruption,
        charged conservatively for the whole segment)."""
        self.last_corrupt_segments += 1
        if self.ledger is not None:
            self.ledger.record(
                "corrupt-segment", pid=self.owner_pid,
                detail=f"segment@{begin}",
            )
            if resynced:
                self.ledger.record("psb-resync", pid=self.owner_pid,
                                   detail=f"resync@{end}")
        return (end - begin) * costs.FAST_DECODE_CYCLES_PER_BYTE

    def _spans_modules(self, ips: list) -> bool:
        """Whether ``ips`` meet the module-span requirements; an
        IP-suppressed (None) ip lies in no module.  Stops at the first
        ip that completes them."""
        starts = self._range_starts
        ranges = self._ranges
        need_exec = self.require_executable
        need_modules = 2 if self.require_cross_module else 0
        modules = set()
        has_exec = False
        for ip in ips:
            if ip is None:
                continue
            slot = bisect_right(starts, ip) - 1
            if slot < 0:
                continue
            _, end, name, is_executable = ranges[slot]
            if ip >= end:
                continue
            modules.add(name)
            if is_executable:
                has_exec = True
            if (has_exec or not need_exec) and len(modules) >= need_modules:
                return True
        return (has_exec or not need_exec) and len(modules) >= need_modules

    # -- checking -----------------------------------------------------------------

    def window_result(self, tail: ColumnarTail) -> FastPathResult:
        """An INSUFFICIENT result over ``tail`` carrying its window —
        the last ``pkt_count + 1`` records' ip/signature columns, which
        the slow-path hand-off reads — and the tail's decode cost."""
        ips, sigs, first = tail.window(self.pkt_count + 1)
        return FastPathResult(
            Verdict.INSUFFICIENT,
            decode_cycles=tail.cycles,
            window_ips=ips,
            window_sigs=sigs,
            first_record_offset=first,
            window_offset=tail.start,
            tail=tail,
            corrupt_segments=self.last_corrupt_segments,
        )

    def check(self, data: bytes) -> FastPathResult:
        """Run the fast path over a ToPA snapshot: columnar tail + one
        batched edge check over the window's ip/signature columns.  The
        window is built once, and the result once with every field
        passed.  Telemetry is the monitor's to record."""
        tail = self.decode_tail_columnar(data)
        ips, sigs, first = tail.window(self.pkt_count + 1)
        verdict = Verdict.INSUFFICIENT
        checked = 0
        low_credit: List[Tuple[int, int]] = []
        violation = None
        search_cycles = 0.0
        if tail.count >= 2:
            index = self.index
            search_before = index.cycles
            batch = index.check_batch(ips, sigs)
            search_cycles = index.cycles - search_before
            checked = batch.checked
            violation = batch.violation
            if violation is not None:
                verdict = Verdict.VIOLATION
            else:
                low_credit = batch.low_credit
                high = checked - len(low_credit)
                ratio = high / checked if checked else 0.0
                verdict = (
                    Verdict.PASS if ratio >= self.cred_ratio
                    else Verdict.SUSPICIOUS
                )
                if verdict is Verdict.PASS and self.path_index is not None:
                    untrained = self.path_index.untrained_grams(ips)
                    if untrained:
                        verdict = Verdict.SUSPICIOUS
                        low_credit.extend(
                            (gram[0], gram[1]) for gram in untrained[:4]
                        )
        return FastPathResult(
            verdict,
            checked_pairs=checked,
            low_credit_pairs=low_credit,
            violation_edge=violation,
            decode_cycles=tail.cycles,
            search_cycles=search_cycles,
            window_ips=ips,
            window_sigs=sigs,
            first_record_offset=first,
            window_offset=tail.start,
            tail=tail,
            corrupt_segments=self.last_corrupt_segments,
        )


def _window_ips(entries, n: int):
    """The ips of the newest ``n`` records of a tail's ``entries``
    (newest segment first), newest segment first — the order a module
    span judgement need not care about — without building a window."""
    for entry in entries:
        ips = entry.seg.ip_column()
        records = len(ips)
        if records >= n:
            yield from ips[records - n:]
            return
        yield from ips
        n -= records


def module_ranges(image: Image) -> List[Tuple[int, int, str, bool]]:
    """``image``'s module map as sorted, disjoint ``(base, end, name,
    is_executable)`` ranges that answer like ``Image.module_of``.

    The map is cut at every module's base and end; each piece goes to
    the first module of ``image.all_modules()`` (the modules in load
    order, then the vDSO: ``module_of``'s precedence) that covers it,
    and a piece no module covers is left out.  The table is kept in
    ``image.derived``, so the images of one loaded module set build it
    once.
    """
    ranges = image.derived.get("module_ranges")
    if ranges is not None:
        return ranges
    modules = image.all_modules()
    cuts = sorted({lm.base for lm in modules} | {lm.end for lm in modules})
    ranges = []
    for lo, hi in zip(cuts, cuts[1:]):
        for lm in modules:
            if lm.base <= lo < lm.end:
                ranges.append((lo, hi, lm.name, lm.is_executable))
                break
    image.derived["module_ranges"] = ranges
    return ranges
