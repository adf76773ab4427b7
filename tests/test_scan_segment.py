"""What a scan's segment keeps: its columns outlive the scan arena, and
runs too long for a register signature take the sentinel path.

The C kernel writes into one reused arena and the wrapper builds each
list from it, so a segment the tail walk keeps in ``_last_walk`` must
not change when a later, larger scan overwrites the arena.  A TNT run
longer than ``SIG_MAX_BITS`` bits (before a TIP, or dangling past the
last one) has no register signature: both scanners read it from their
packed TNT bitstream, which they keep for nothing else.  Each case runs
with the kernel (skipped where it does not build) and with the
pure-Python scan, and is held to the per-byte oracle
(``tests/scan_reference.py``) and the packet-oracle tail walk
(``tests/test_columnar.py::reference_walk``).
"""

import random

import pytest

from repro.ipt import columnar, scan_kernel
from repro.ipt.columnar import SIG_MAX_BITS, columnar_scan
from repro.ipt.packets import (
    PSBEND_BYTE,
    PSB_PATTERN,
    TIP_HEADER,
    encode_ip_packet,
    encode_tnt,
)
from repro.monitor import fastpath
from tests import test_columnar
from tests.scan_reference import columnar_scan_reference
from tests.test_columnar import build_stream, build_tail_stream
from tests.test_scan_parity import (
    KERNEL_AVAILABLE,
    assert_tri_parity,
    segment_columns,
)

WALK = test_columnar.TestOnePassTailWalk


@pytest.fixture(params=["kernel", "python"])
def scanner(request, monkeypatch):
    """Run the test with one scanner: the C kernel or the Python scan."""
    if request.param == "kernel":
        if not KERNEL_AVAILABLE:
            pytest.skip("C scan kernel not buildable here")
        monkeypatch.setattr(columnar, "_arena", columnar._arena)
    else:
        monkeypatch.setattr(scan_kernel, "load", lambda: None)
    return request.param


def tnt_bits(rng, count):
    """TNT packets carrying exactly ``count`` random branch outcomes."""
    out = bytearray()
    while count:
        width = rng.randint(1, min(6, count))
        out += encode_tnt(tuple(rng.random() < 0.5 for _ in range(width)))
        count -= width
    return bytes(out)


def run_segment(seed, runs, dangling):
    """One PSB segment: per entry of ``runs`` a TNT run of that many
    bits closed by a TIP, then a dangling run of ``dangling`` bits."""
    rng = random.Random(seed)
    out = bytearray(PSB_PATTERN)
    out.append(PSBEND_BYTE)
    last_ip = 0
    for index, bits in enumerate(runs):
        out += tnt_bits(rng, bits)
        encoded, last_ip = encode_ip_packet(
            TIP_HEADER, 0x400000 + 16 * (index + 1), last_ip
        )
        out += encoded
    out += tnt_bits(rng, dangling)
    return bytes(out)


class TestKeptColumnsSurviveArenaReuse:
    """A larger scan into the same arena (grown beforehand, so it is
    overwritten, not replaced) leaves every kept segment as it was."""

    def test_columns_survive_a_larger_scan(self, scanner):
        small = build_stream(3, packets=30)
        large = build_stream(4, packets=3000) + run_segment(4, [90], 70)
        columnar_scan(build_stream(5, packets=6000))  # grow the arena
        arena = columnar._arena
        kept = columnar_scan(small)
        before = segment_columns(kept)
        columnar_scan(large)
        assert columnar._arena is arena
        assert segment_columns(kept) == before
        assert before == segment_columns(columnar_scan(small))
        assert before == segment_columns(columnar_scan_reference(small))

    def test_kept_walk_segment_after_a_larger_scan(self, scanner, monkeypatch):
        """A walk keeps the segments it scanned; a larger scan then
        overwrites the arena; the next walk, over a longer snapshot of
        the same stream, takes the kept segments and still matches the
        packet-oracle walk."""
        data = build_tail_stream(21, segments=9)
        offsets = test_columnar.psb_offsets(data)
        checker = WALK.walk_checker(10**6, (False, False))
        columnar_scan(build_stream(5, packets=6000))  # grow the arena
        arena = columnar._arena
        WALK().assert_walk(checker, data[:offsets[5]])
        kept = dict(checker._last_walk)
        assert len(kept) == 5
        columnar_scan(build_stream(9, packets=4000))
        assert columnar._arena is arena
        scanned = []
        real = fastpath.columnar_scan

        def spy(segment, *args):
            scanned.append(bytes(segment))
            return real(segment, *args)

        monkeypatch.setattr(fastpath, "columnar_scan", spy)
        WALK().assert_walk(checker, data)
        assert not set(scanned) & set(kept)
        assert all(checker._last_walk[key] is seg
                   for key, seg in kept.items())


class TestSentinelRuns:
    """Runs past ``SIG_MAX_BITS`` bits, before a TIP and dangling, in
    every combination: the scanners must read the packed bitstream
    whenever either one needs it."""

    @pytest.mark.parametrize("runs, dangling", [
        ([3, 63], 0),            # a record sentinel, no dangling run
        ([63, 4], 5),            # a record sentinel, a short dangling run
        ([5, 62], 63),           # only the dangling run is a sentinel
        ([200, 1], 130),         # both
        ([62, 62], 62),          # the in-register edge everywhere
        ([], 700),               # no record, a long dangling run
    ])
    def test_both_scanners_match_the_oracle(self, runs, dangling):
        """Reference, Python scan and kernel (where it builds) build
        one segment; the oracle reads every run from its bit range."""
        data = run_segment(len(runs) + dangling, runs, dangling)
        assert_tri_parity(data)
        seg = columnar_scan_reference(data)
        assert [sig.bit_length() - 1 for sig in seg.sig_column()] == runs
        assert seg.trailing.bit_length() - 1 == dangling

    @pytest.mark.parametrize("dangling", [SIG_MAX_BITS, 63, 250])
    @pytest.mark.parametrize("head", [0, 2, 63])
    def test_walk_stitches_a_long_run(self, scanner, dangling, head):
        """A segment's long dangling run is folded onto the next
        segment's first record (itself after a run of ``head`` bits)."""
        data = (
            run_segment(1, [4, 70], dangling)
            + run_segment(2, [head, 3], 0)
        )
        checker = WALK.walk_checker(10**6, (False, False))
        tail, _ = WALK().assert_walk(checker, data)
        ips, sigs, _ = tail.window(tail.count)
        assert [sig.bit_length() - 1 for sig in sigs] == [
            4, 70, dangling + head, 3,
        ]
