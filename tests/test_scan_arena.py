"""The C scan kernel's reused output arena.

Every kernel scan writes its columns into one grow-only per-process
arena and builds the segment's lists from it before returning.  These tests scan with the
kernel (the module skips on a host that cannot build it), in orders
that leave stale bytes behind — a large snapshot, then a smaller one
whose columns and TNT span are shorter; a failing scan between good
ones — and hold each result to a scan with a brand-new arena and to
the per-byte oracle in ``tests/scan_reference.py``.
"""

import ctypes

import pytest

from repro.ipt import columnar
from repro.ipt.columnar import columnar_scan
from repro.ipt.packets import (
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    TIP_HEADER,
    TIP_PGE_HEADER,
    encode_ip_packet,
    encode_tnt,
)
from tests.scan_reference import columnar_scan_reference
from tests.test_columnar import build_stream
from tests.test_scan_parity import KERNEL_AVAILABLE, segment_columns

pytestmark = pytest.mark.skipif(
    not KERNEL_AVAILABLE, reason="C scan kernel not buildable here"
)


def fresh_scan(data, sync=False):
    """Columns from a scan that starts with an empty arena."""
    saved = columnar._arena
    columnar._arena = EMPTY_ARENA
    try:
        return segment_columns(columnar_scan(data, sync=sync))
    finally:
        columnar._arena = saved


#: an arena no scan has grown yet.
EMPTY_ARENA = (bytearray(), None, 0, memoryview(b""))


def reference(data, sync=False):
    return segment_columns(columnar_scan_reference(data, sync=sync))


def far_heavy_stream(records):
    """Every TIP follows a TIP.PGE; six TNT bits before each TIP fill
    the TNT span."""
    out = bytearray(PSB_PATTERN)
    out.append(PSBEND_BYTE)
    last_ip = 0
    for index in range(records):
        packet, last_ip = encode_ip_packet(TIP_PGE_HEADER, 0x400000, last_ip)
        out += packet
        out += encode_tnt((True, False, True, True, False, index % 2 == 0))
        packet, last_ip = encode_ip_packet(
            TIP_HEADER, 0x400000 + 16 * index, last_ip
        )
        out += packet
    return bytes(out)


def plain_stream(records):
    """TIPs with no far transfer before them and a short TNT run."""
    out = bytearray(PSB_PATTERN)
    out.append(PSBEND_BYTE)
    last_ip = 0
    for index in range(records):
        out += encode_tnt((index % 3 == 0,))
        packet, last_ip = encode_ip_packet(
            TIP_HEADER, 0x500000 + 8 * index, last_ip
        )
        out += packet
    return bytes(out)


def test_small_scan_after_large_one():
    large = far_heavy_stream(2000)
    small = plain_stream(5)
    big = segment_columns(columnar_scan(large))
    assert big == reference(large)
    assert len(big[5]) == 2000  # the records
    arena = columnar._arena
    got = segment_columns(columnar_scan(small))
    assert columnar._arena is arena  # reused, not reallocated
    assert len(got[5]) == 5  # no stale records
    assert got[-1] == 1  # and no stale dangling run
    assert got == fresh_scan(small) == reference(small)


@pytest.mark.parametrize("seed", range(4))
def test_alternating_sizes(seed):
    streams = [bytes(build_stream(seed, packets=n)) for n in (2000, 3, 400)]
    streams.append(plain_stream(1))
    for data in streams + streams[::-1]:
        for sync in (False, True):
            got = segment_columns(columnar_scan(data, sync=sync))
            assert got == fresh_scan(data, sync) == reference(data, sync)


def test_arena_grows_and_stays_exported(monkeypatch):
    monkeypatch.setattr(columnar, "_arena", EMPTY_ARENA)
    columnar_scan(plain_stream(2))
    small = len(columnar._arena[0])
    columnar_scan(far_heavy_stream(500))
    buf, export, address, words = columnar._arena
    assert len(buf) > small
    assert len(export) == len(buf) == 8 * len(words)
    assert ctypes.addressof(export) == address
    assert words.obj is buf
    columnar_scan(plain_stream(2))
    assert columnar._arena[0] is buf


@pytest.mark.parametrize("bad, message", [
    (b"\x02\x00", "invalid TNT payload 0x0"),
    (b"\x0d\x09", "IP width 9 impossible"),
    (b"\xff", "header 0xff"),
])
def test_packet_error_after_a_good_scan(bad, message):
    good = far_heavy_stream(300)
    columnar_scan(good)
    data = plain_stream(4) + bad
    with pytest.raises(PacketError) as caught:
        columnar_scan(data)
    with pytest.raises(PacketError) as expected:
        columnar_scan_reference(data)
    assert str(caught.value) == str(expected.value)
    assert message in str(caught.value)
    if "offset" in str(expected.value):
        assert f"offset {len(plain_stream(4))}" in str(caught.value)
    # The failed scan leaves nothing behind for the next one.
    assert segment_columns(columnar_scan(good)) == reference(good)
    small = plain_stream(3)
    assert segment_columns(columnar_scan(small)) == reference(small)
