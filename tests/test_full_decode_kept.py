"""Kept part walks: a warm full decoder against a fresh one.

:meth:`~repro.ipt.full_decoder.FullDecoder.decode` walks a window one
part (one scanned PSB segment) at a time and keeps each part's walk,
keyed by the part's bytes and the ip the walk entered it at, until the
next decode.  Every case here decodes a sequence of windows that share
parts — sliding and growing windows over PSB segments of generated
programs, and the slow-path windows of the four servers — with one warm
decoder, and each window again with a fresh decoder (and, where named,
the per-instruction oracle ``tests/full_decoder_reference.py``).  Edges,
``insn_count``, ``end_ip``, ``exhausted``, the ``TraceMismatch`` text
and the ``ipt.full_decode.*`` counters must agree; only
``ipt.full_decode.kept_insns`` tells the two apart.
"""

import pytest

from repro import telemetry
from repro.binary import Loader
from repro.cpu import Machine, Memory, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.cpu.blocks import BlockStore
from repro.ipt import FullDecoder
from repro.ipt.columnar import FAR_HEAD, columnar_scan, psb_offsets
from repro.ipt.packets import TIP_HEADER, encode_ip_packet
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import R0, R1, R2, SP
from repro.workloads.programgen import generate_program
from tests.full_decoder_reference import ReferenceFullDecoder
from tests.packet_reference import PacketKind, fast_decode
from tests.test_full_decode_differential import (
    CODE_BASE,
    COUNTERS,
    LIBS,
    _encoder,
    _run,
    anchored,
    result_of,
)


def decoded(decoder, parts):
    """A decode's fields (or its mismatch text), the counters the fresh
    and warm decoders share, and ``kept_insns``."""
    with telemetry.capture() as tel:
        result = result_of(decoder, parts)
        m = tel.metrics
        counters = tuple(m.counter(f"ipt.full_decode.{name}").total()
                         for name in COUNTERS)
        kept = m.counter("ipt.full_decode.kept_insns").total()
    return result, counters, kept


def replay(memory, windows, oracle=False):
    """Decode ``windows`` in order with one warm decoder, each also with
    a fresh decoder (and the oracle); returns the warm decoder's
    ``kept_insns`` per window."""
    warm = FullDecoder(memory)
    kept = []
    for parts in windows:
        want, counters, none_kept = decoded(FullDecoder(memory), parts)
        assert none_kept == 0
        got, warm_counters, taken = decoded(warm, parts)
        assert (got, warm_counters) == (want, counters)
        if oracle:
            reference = ReferenceFullDecoder(memory)
            assert result_of(reference, parts) == want
        kept.append(taken)
    return kept


def segments(data):
    """``(segment, stream_base)`` per PSB segment of a trace, as the tail
    walk scans them (from each PSB to the next)."""
    bounds = psb_offsets(data)
    assert bounds and bounds[0] == 0
    bounds.append(len(data))
    return [(columnar_scan(data[begin:end]), begin)
            for begin, end in zip(bounds, bounds[1:])]


def sliding(segs, width):
    """Windows of ``width`` segments, their start moving one at a time."""
    return [segs[i:i + width] for i in range(len(segs) - width + 1)]


def growing(segs, width):
    """Windows that end one segment later each time and start ``width``
    segments back (the tail walk's pattern): each shares its start with
    the one before until the start moves."""
    return [segs[max(0, end - width):end] for end in range(1, len(segs) + 1)]


def traced_program(seed, psb_period=4):
    """(memory, trace bytes) of generated program ``seed`` run
    bare-metal, its code filed under a block store (the loader's)."""
    image = Loader(LIBS).load(generate_program(seed))
    image.memory.map_region(0x7FFD0000, 0x30000, PROT_READ | PROT_WRITE)
    machine = Machine(image.memory)
    machine.ip = image.entry_address
    machine.set_reg(SP, 0x7FFFFF00)
    data = _run(machine, _encoder(psb_period), max_steps=3_000_000)
    return image.memory, data


LOOP = [
    A.mov(R0, 0),
    Label("loop"),
    A.addi(R0, 1),
    Label("body"),
    A.mov(R1, 7),
    A.mov(R2, 9),
    A.cmpi(R0, 300),
    A.jcc(Cond.LT, "loop"),
    A.halt(),
]


def traced_loop(psb_period=16):
    """(memory, trace, symbols) of :data:`LOOP` on a page filed under a
    block store, so its chained runs are remembered."""
    code, symbols = asm(LOOP, base=CODE_BASE)
    memory = Memory()
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE, code)
    memory.attach_blocks(CODE_BASE, 0x1000, BlockStore())
    memory.map_region(0x7C000, 0x4000, PROT_READ | PROT_WRITE)
    machine = Machine(memory)
    machine.ip = CODE_BASE
    machine.set_reg(SP, 0x7FFF8)
    return memory, _run(machine, _encoder(psb_period)), symbols


@pytest.mark.parametrize("seed", range(4))
def test_sliding_and_growing_windows_of_generated_programs(seed):
    memory, data = traced_program(seed)
    segs = segments(data)
    assert len(segs) > 4
    kept = []
    for width in (1, 2, 3, 5):
        kept += replay(memory, sliding(segs, width), oracle=width == 3)
        kept += replay(memory, growing(segs, width))
    # The same window twice takes every part it can from the first.
    whole = replay(memory, [segs, segs, segs[1:], segs])
    assert whole[0] == 0 and whole[1] > 0
    assert sum(kept) > 0


@pytest.fixture(scope="module", params=["nginx", "exim", "vsftpd",
                                        "openssh"])
def server_windows(request):
    """A protected server's slow-path inputs, one per fast-path check in
    check order: ``(memory, [parts, ...])``."""
    from repro.experiments.common import run_server
    from repro.loadgen import mix_requests
    from repro.monitor.fastpath import FastPathChecker
    from repro.monitor.policy import FlowGuardPolicy

    windows = []
    original = FastPathChecker.check

    def recording(checker, data):
        result = original(checker, data)
        windows.append(result.slow_path_source())
        return result

    mp = pytest.MonkeyPatch()
    mp.setattr(FastPathChecker, "check", recording)
    try:
        run = run_server(
            request.param,
            mix_requests(request.param, 4, seed=1, mix="varied"),
            protected=True,
            policy=FlowGuardPolicy(cache_slow_path_negatives=False),
        )
    finally:
        mp.undo()
    assert not run.monitor.detections
    assert len(windows) >= 8
    return run.proc.machine.memory, windows


def test_server_check_windows(server_windows):
    """Every fast-path check's slow-path input, in check order: a warm
    decoder takes parts from the window before and decodes each as a
    fresh one does."""
    memory, windows = server_windows
    assert sum(replay(memory, windows)) > 0


def test_one_part_entered_at_different_ips():
    """Windows that open with a part anchoring a walk at one of a
    generated program's first instructions (a PSB+ FUP alone) enter
    the same segments behind it at the ip where that walk ran out of
    packets, which differs with the anchor (most of them then desync):
    a part kept from one entry ip is never taken for another."""
    memory, data = traced_program(0)
    segs = segments(data)
    starts, ip = [], FAR_HEAD.unpack_from(segs[0][0].far)[0]
    for _ in range(40):
        starts.append(ip)
        ip = FullDecoder(memory)._entry(ip)[0][2]
    warm = FullDecoder(memory)
    kept, entries = 0, set()
    for start in starts + starts[::-1] + starts:
        anchor = anchored(start)
        for first in (1, 2):
            head = (columnar_scan(anchor), segs[first][1] - len(anchor))
            entries.add(FullDecoder(memory).decode([head]).end_ip)
            parts = [head] + segs[first:first + 2]
            want = decoded(FullDecoder(memory), parts)
            got = decoded(warm, parts)
            assert got[:2] == want[:2], hex(start)
            kept += got[2]
    assert kept > 0 and len(entries) > 1


def test_mprotect_between_windows_drops_kept_parts():
    """A code-epoch move drops every kept part.  Code patched under an
    mprotect (one MOV turned into as many NOPs as its bytes) then walks
    as a fresh decoder walks it, with no instruction taken from the
    parts kept before."""
    memory, data, symbols = traced_loop()
    segs = segments(data)
    assert len(segs) > 3
    warm = FullDecoder(memory)
    decoded(warm, segs)
    assert decoded(warm, segs)[2] > 0
    decoded(warm, segs)
    epoch = memory.code_epoch
    memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    assert memory.code_epoch > epoch
    want = decoded(FullDecoder(memory), segs)
    assert decoded(warm, segs) == want  # kept_insns 0 too
    assert decoded(warm, segs)[2] > 0

    mov, _ = asm([A.mov(R1, 7)])
    memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_WRITE)
    memory.write_raw(symbols["body"], asm([A.nop()])[0] * len(mov))
    memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    patched = decoded(FullDecoder(memory), segs)
    assert patched[0][1] > want[0][1]  # more instructions walked
    assert decoded(warm, segs) == patched
    assert result_of(ReferenceFullDecoder(memory), segs) == patched[0]


@pytest.mark.parametrize("middle", [False, True], ids=["last", "middle"])
def test_part_that_raised_is_walked_again(middle):
    """A window whose second part (one TIP) does not follow from its
    first (which ends at a JCC): the walk raises there.  A second decode
    takes the first part from the first decode, walks the second again,
    and raises the same mismatch as a fresh decoder and the oracle.  A
    part that raises before the window's last is walked again with the
    rest of the window in one piece."""
    memory, data, _ = traced_loop()
    segs = segments(data)
    tip, _ = encode_ip_packet(TIP_HEADER, CODE_BASE, 0)
    window = [segs[0], (columnar_scan(tip), len(data))]
    if middle:
        window.append(segs[1])
    want = decoded(FullDecoder(memory), window)
    assert want[0][0] == "mismatch" and "found tip" in want[0][1]
    assert result_of(ReferenceFullDecoder(memory), window) == want[0]
    warm = FullDecoder(memory)
    walks = []
    walk = warm._walk

    def counting(*args):
        walks.append(args[1])
        return walk(*args)

    warm._walk = counting
    assert decoded(warm, window) == want
    first = len(walks)
    assert first == (3 if middle else 2)
    # A decode that raises counts nothing, kept parts included: the
    # walks show that the first part was taken.
    assert decoded(warm, window) == want
    assert len(walks) - first == first - 1


def test_budget_ending_inside_a_kept_part():
    """Every budget across a three-part window, each decode after a full
    one that kept every part: the walk stops where a fresh walk stops."""
    memory, data, _ = traced_loop()
    segs = segments(data)[:3]
    full = FullDecoder(memory).decode(segs)
    warm = FullDecoder(memory)
    for budget in range(full.insn_count + 2):
        warm.max_insns = 5_000_000
        decoded(warm, segs)
        warm.max_insns = budget
        fresh = FullDecoder(memory, max_insns=budget)
        want = decoded(fresh, segs)
        got = decoded(warm, segs)
        assert got[:2] == want[:2], budget
        if budget > full.insn_count:
            assert got[2] > 0


def test_first_part_without_an_anchor():
    """Tracing enabled mid-segment: the window's first part starts after
    its segment's PSB+ group, so it holds no anchor and contributes
    nothing; the walk anchors in the next part, whose walk is kept."""
    memory, data, _ = traced_loop()
    segs = segments(data)
    end = segs[1][1]
    packets = fast_decode(data[:end]).packets
    psbend = next(p for p in packets if p.kind is PacketKind.PSBEND)
    cut = next(p.offset for p in packets if p.offset > psbend.offset)
    headless = (columnar_scan(data[cut:end]), cut)
    assert headless[0].ip_column() or headless[0].trailing != 1
    window = [headless] + segs[1:3]
    kept = replay(memory, [window, window], oracle=True)
    assert kept[0] == 0 and kept[1] > 0
    assert result_of(FullDecoder(memory), window) == result_of(
        FullDecoder(memory), segs[1:3]
    )


def test_kept_walks_need_attested_code():
    """Code on a page no block store holds (decoded from memory at every
    visit) is never kept: a guest store may change it unseen."""
    code, _ = asm(LOOP, base=CODE_BASE)
    memory = Memory()
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE, code)
    machine = Machine(memory)
    machine.ip = CODE_BASE
    data = _run(machine, _encoder(16))
    segs = segments(data)
    assert len(segs) > 3
    assert replay(memory, [segs, segs]) == [0, 0]
