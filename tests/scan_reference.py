"""The per-byte dispatch walk: the tri-parity oracle for the scanners.

``columnar_scan`` runs either the vectorised pure-Python scan or the
optional C kernel.  This is the original per-byte walk over the
256-entry :data:`~repro.ipt.columnar.DISPATCH` /
:data:`~repro.ipt.columnar.TNT_WIDTH` tables, kept here as the oracle
both are property-tested against (``tests/test_scan_parity.py``).

It keeps the full columns the scanners no longer build —
``rec_bit_start``/``rec_bit_end`` (each TIP's slice of the packed TNT
bitstream ``tnt_bits``), ``total_bits`` and ``pend_start`` — in a
:class:`FullScan`, and derives the lean segment from
them: every signature, the dangling run's included, is read from its
bit range (the scanners read one from the bitstream only for a run
longer than :data:`~repro.ipt.columnar.SIG_MAX_BITS` bits, and build
the rest in a register).  It records every far packet on its own and
folds far-transfer groups in a separate pass (:func:`pack_far`), where
the scanners fold as they go.
"""

from array import array
from dataclasses import dataclass
from typing import Optional

from repro.ipt.columnar import (
    DISPATCH,
    FAR_ENTRY,
    FAR_GROUP,
    FAR_HEAD,
    NO_IP,
    TNT_WIDTH,
    _A_FUP,
    _A_OVF,
    _A_PAD,
    _A_PGD,
    _A_PGE,
    _A_PSB,
    _A_PSBEND,
    _A_TIP,
    _A_TNT,
    ColumnarSegment,
    _bits_sig,
    _empty_segment,
    _finish_segment,
    sync_to_psb,
)
from repro.ipt.packets import PSB_PATTERN, PacketError


def pack_far(far, anchor) -> bytes:
    """The far column's bytes from one ``(packet, record, bit, offset,
    action, ip)`` tuple per far packet (``packet`` is its index among
    the stream's packets, PAD aside) and an ``(ip, record, bit, far
    packets before it)`` anchor (or None).  A FUP with an IP, a TIP.PGD
    and a TIP.PGE with an IP that are consecutive packets become one
    group entry, and the anchor's count is of entries."""
    entries = []  # [record, bit, offset, code, ip, pge_ip]
    entries_after = [0]  # entries after each far packet
    index = 0
    while index < len(far):
        packet, record, bit, offset, action, ip = far[index]
        trio = far[index:index + 3]
        if ([p[0] - packet for p in trio] == [0, 1, 2]
                and [p[4] for p in trio] == [_A_FUP, _A_PGD, _A_PGE]
                and ip is not None and trio[2][5] is not None):
            entries.append(
                [record, bit, offset, FAR_GROUP, ip, trio[2][5]]
            )
            entries_after += [len(entries) - 1, len(entries) - 1,
                              len(entries)]
            index += 3
            continue
        entries.append([record, bit, offset, action, ip, None])
        entries_after.append(len(entries))
        index += 1
    if anchor is not None:
        ip, record, bit, packets = anchor
        anchor = (ip, record, bit, entries_after[packets])
    out = FAR_HEAD.pack(*(anchor or (NO_IP, 0, 0, 0)))
    for record, bit, offset, code, ip, pge_ip in entries:
        out += FAR_ENTRY.pack(
            record << 32 | bit, offset << 4 | code,
            NO_IP if ip is None else ip,
            NO_IP if pge_ip is None else pge_ip,
        )
    return out


@dataclass
class FullScan:
    """Every column the per-byte walk keeps, and the lean segment
    derived from them."""

    rec_ips: array  # NO_IP marks an IP-suppressed TIP
    rec_offsets: array
    rec_bit_start: array
    rec_bit_end: array
    tnt_bits: bytes
    total_bits: int
    pend_start: int
    segment: ColumnarSegment


def columnar_scan_reference(data, sync: bool = False) -> ColumnarSegment:
    """The per-byte dispatch walk; same signature and output as
    :func:`repro.ipt.columnar.columnar_scan`."""
    return full_scan_reference(data, sync).segment


def full_scan_reference(data, sync: bool = False) -> FullScan:
    """The per-byte dispatch walk's full columns."""
    pos = 0
    if sync:
        pos = sync_to_psb(data)
        if pos < 0:
            return FullScan(
                array("Q"), array("Q"), array("L"), array("L"), b"", 0, 0,
                _empty_segment(data),
            )
    synced = pos
    size = len(data)
    dispatch = DISPATCH
    tnt_width = TNT_WIDTH
    psb = PSB_PATTERN
    psb_len = len(psb)

    rec_ips = array("Q")
    rec_offsets = array("Q")
    rec_bit_start = array("L")
    rec_bit_end = array("L")
    add_ip = rec_ips.append
    add_offset = rec_offsets.append
    add_bit_start = rec_bit_start.append
    add_bit_end = rec_bit_end.append

    #: far packets as ``(packet, record, bit, offset, action, ip)``, and
    #: the anchor as ``(ip, record, bit, far packets before it)``.
    far = []
    anchor = None
    in_psb = False

    tnt_buf = bytearray()
    emit_byte = tnt_buf.append
    acc = 0  # bit accumulator, flushed every 8 bits
    acc_bits = 0
    total_bits = 0
    pend_start = 0
    last_ip = 0
    pkt_count = 0
    truncated = False

    while pos < size:
        action = dispatch[data[pos]]
        if action == _A_TNT:
            if pos + 2 > size:
                truncated = True
                break
            payload = data[pos + 1]
            width = tnt_width[payload]
            if width == 255:
                raise PacketError(f"invalid TNT payload {payload:#x}")
            acc = (acc << width) | (payload ^ (1 << width))
            acc_bits += width
            total_bits += width
            while acc_bits >= 8:
                acc_bits -= 8
                emit_byte((acc >> acc_bits) & 0xFF)
            acc &= (1 << acc_bits) - 1
            pkt_count += 1
            pos += 2
        elif action <= _A_FUP:  # TIP / TIP.PGE / TIP.PGD / FUP
            if pos + 2 > size:
                truncated = True
                break
            width = data[pos + 1]
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
                    data[pos + 2:end], "little"
                )
                last_ip = ip
            here = (len(rec_ips), total_bits - pend_start)
            if action == _A_TIP:
                add_ip(NO_IP if ip is None else ip)
                add_offset(pos)
                add_bit_start(pend_start)
                add_bit_end(total_bits)
                pend_start = total_bits
            elif in_psb:
                if anchor is None and action == _A_FUP and ip is not None:
                    anchor = (ip, *here, len(far))
            else:
                far.append((pkt_count, *here, pos, action, ip))
                if anchor is None and action == _A_PGE and ip is not None:
                    anchor = (ip, *here, len(far))
            pkt_count += 1
            pos = end
        elif action == _A_PAD:
            pos += 1
        elif action == _A_PSB and data[pos:pos + psb_len] == psb:
            last_ip = 0
            in_psb = True
            pkt_count += 1
            pos += psb_len
        elif action == _A_PSBEND or action == _A_OVF:
            if action == _A_PSBEND and in_psb:
                in_psb = False
            elif not in_psb:
                far.append(
                    (pkt_count, len(rec_ips), total_bits - pend_start, pos,
                     action, None)
                )
            pkt_count += 1
            pos += 1
        elif psb[: size - pos] == data[pos:]:
            # The buffer ends inside a PSB pattern (including a lead
            # 0x82 whose pattern was cut): clean truncation, not desync.
            truncated = True
            break
        else:
            raise PacketError(
                f"desynchronised at offset {pos}: header {data[pos]:#04x}"
            )

    if acc_bits:
        emit_byte((acc << (8 - acc_bits)) & 0xFF)

    tnt_bits = bytes(tnt_buf)
    segment = _finish_segment(
        data, synced, pos, pkt_count, truncated,
        [None if ip == NO_IP else ip for ip in rec_ips],
        rec_offsets.tolist(),
        [
            _bits_sig(tnt_bits, start, end)
            for start, end in zip(rec_bit_start, rec_bit_end)
        ],
        _bits_sig(tnt_bits, pend_start, total_bits),
        pack_far(far, anchor),
    )
    return FullScan(
        rec_ips, rec_offsets, rec_bit_start, rec_bit_end, tnt_bits,
        total_bits, pend_start, segment,
    )
