"""Where a far transfer can sit in the scan's columns.

The full decoder reads far-transfer resumes, and its anchor, from the
scan's far column: each FUP/TIP.PGD/TIP.PGE group (or lone far packet)
is placed by the record it precedes and its bit offset within that
record's TNT run.  For each placement below, the C kernel, the Python
scan and the per-byte oracle (``tests/scan_reference.py``) must build
identical columns, and the production decoder must match the reference
decoder through both of its packet sources — edges and ``TraceMismatch``
text included:

- a group after every TNT-bit offset 0-6 of a packet (and past a full
  packet);
- a group in the trailing run past a segment's last TIP, whose bits
  continue into the next segment's first record;
- a group inside a run longer than ``SIG_MAX_BITS``;
- an IP-suppressed TIP.PGE or FUP where the walk needs the IP;
- an OVF;
- one whole-trace segment spanning several PSBs.
"""

import pytest

from repro.ipt import FullDecoder
from repro.ipt.columnar import (
    FAR_ENTRY,
    FAR_GROUP,
    FAR_HEAD,
    SIG_MAX_BITS,
    columnar_scan,
    psb_boundaries,
    psb_offsets,
)
from repro.ipt.packets import OVF_BYTE
from repro.isa import A, Cond, Label
from repro.isa.registers import R0, R2
from tests.full_decoder_reference import (
    ReferenceFullDecoder,
    byte_cursor,
    packet_cursor,
)
from tests.packet_reference import fast_decode
from tests.test_full_decode_differential import result_of, traced_snippet
from tests.test_scan_parity import assert_tri_parity


def far_entries(seg):
    """``(record, bit, code)`` of each entry of a segment's far column."""
    return [
        (key >> 32, key & 0xFFFFFFFF, tag & 15)
        for key, tag, _, _ in FAR_ENTRY.iter_unpack(
            bytes(seg.far)[FAR_HEAD.size:]
        )
    ]


def assert_decoders_agree(memory, parts):
    """Production == the reference through both cursors; returns the
    outcome."""
    want = result_of(FullDecoder(memory), parts)
    for cursor in (byte_cursor, packet_cursor):
        oracle = ReferenceFullDecoder(memory, cursor=cursor)
        assert result_of(oracle, parts) == want, cursor.__name__
    return want


def assert_agree_on(memory, data):
    """Scanners and decoders agree on a whole trace and every cut of
    it."""
    for cut in range(len(data) + 1):
        assert_tri_parity(data[:cut])
        assert_decoders_agree(memory, [(columnar_scan(data[:cut]), 0)])


def jccs(count, tag):
    """``count`` conditional branches that fall through to the next
    instruction whichever way they go (taken and not-taken alternate)."""
    items = []
    for i in range(count):
        items += [
            A.cmpi(R0, i % 2),
            A.jcc(Cond.EQ, f"{tag}{i}"),
            Label(f"{tag}{i}"),
        ]
    return items


def far_snippet(before, after):
    """``before`` JCCs, a SYSCALL, ``after`` JCCs, then an indirect jump
    (a TIP) to the HALT."""
    return (
        [A.mov(R0, 0)] + jccs(before, "b") + [A.syscall()]
        + jccs(after, "a") + [A.lea(R2, "end"), A.jmpr(R2), Label("end"),
                              A.halt()]
    )


@pytest.mark.parametrize("before", range(13))
@pytest.mark.parametrize("after", [0, 3])
def test_group_at_every_bit_offset(before, after):
    """The far group follows ``before`` TNT bits: every offset 0-6 of the
    first TNT packet, then of the second."""
    memory, data = traced_snippet(far_snippet(before, after))
    seg = columnar_scan(data)
    assert (0, before, FAR_GROUP) in far_entries(seg)
    assert seg.sig_column()[0].bit_length() - 1 == before + after
    outcome = assert_decoders_agree(memory, [(seg, 0)])
    assert outcome[0][-1][0].value == "indirect_jmp"
    assert_agree_on(memory, data)


def test_group_in_a_trailing_run_continued_by_the_next_segment():
    """Segments cut at every PSB: some segment holds a group past its
    last TIP with TNT bits around it, and the next segment's first
    record carries the run on.  Every window of segments decodes as the
    oracle does."""
    items = [A.mov(R0, 0), Label("top")]
    for round_ in range(4):
        items += jccs(2, f"x{round_}") + [A.syscall()] + jccs(
            3, f"y{round_}"
        ) + [A.lea(R2, f"t{round_}"), A.jmpr(R2), Label(f"t{round_}")]
    items += [A.halt()]
    found = 0
    for period in (8, 12, 16, 24):
        memory, data = traced_snippet(items, psb_period=period)
        bounds = psb_boundaries(data)
        view = memoryview(data)
        parts = [
            (columnar_scan(view[begin:end]), begin)
            for begin, end in zip(bounds, bounds[1:]) if begin < end
        ]
        for (seg, _), (nxt, _) in zip(parts, parts[1:]):
            records = len(seg.ip_column())
            trailing = [
                bit for record, bit, _ in far_entries(seg)
                if record == records
            ]
            if trailing and seg.trailing != 1 and nxt.ip_column():
                found += 1
        for first in range(len(parts)):
            assert_decoders_agree(memory, parts[first:])
        for begin, end in zip(bounds, bounds[1:]):
            assert_tri_parity(data[begin:end])
    assert found


def test_group_inside_a_run_past_sig_max_bits():
    before, after = 40, SIG_MAX_BITS - 10
    memory, data = traced_snippet(far_snippet(before, after))
    seg = columnar_scan(data)
    assert seg.sig_column()[0].bit_length() - 1 > SIG_MAX_BITS
    assert (0, before, FAR_GROUP) in far_entries(seg)
    assert_agree_on(memory, data)


@pytest.mark.parametrize("kind", ["tip", "fup", "tip.pge"])
def test_suppressed_ip_where_the_walk_needs_it(kind):
    from tests.test_slowpath import far_or_tip_case

    memory, data, offset = far_or_tip_case(kind)
    seg = columnar_scan(data)
    if kind != "tip":  # a lone packet, not a group
        assert FAR_GROUP not in [code for _, _, code in far_entries(seg)]
    outcome = assert_decoders_agree(memory, [(seg, 0)])
    assert outcome == (
        "mismatch", f"IP-suppressed {kind} at offset {offset}"
    )
    assert_agree_on(memory, data)


def test_ovf_at_every_packet_boundary():
    memory, data = traced_snippet(far_snippet(3, 2), psb_period=16)
    messages = set()
    for packet in fast_decode(data).packets:
        at = packet.offset
        mangled = data[:at] + bytes([OVF_BYTE]) + data[at:]
        assert_tri_parity(mangled)
        outcome = assert_decoders_agree(
            memory, [(columnar_scan(mangled), 0)]
        )
        if outcome[0] == "mismatch":
            messages.add(outcome[1].split(" at offset")[0])
    assert "expected TNT, found ovf" in messages


def test_whole_trace_spanning_several_psbs():
    """The Table 1 / §2 input: one segment, every PSB+ group inside it
    transparent to the walk."""
    items = [A.mov(R0, 0), Label("loop")] + jccs(3, "j") + [
        A.syscall(), A.addi(R0, 1), A.cmpi(R0, 12),
        A.jcc(Cond.LT, "loop"), A.halt(),
    ]
    memory, data = traced_snippet(items, psb_period=8)
    assert len(psb_offsets(data)) > 3
    seg = columnar_scan(data)
    groups = [e for e in far_entries(seg) if e[2] == FAR_GROUP]
    assert len(groups) == 12
    result = assert_decoders_agree(memory, [(seg, 0)])
    kinds = [kind.value for kind, *_ in result[0]]
    assert kinds.count("far_transfer") == 12
    assert_agree_on(memory, data)
