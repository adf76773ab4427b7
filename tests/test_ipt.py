"""IPT model tests: packets, ToPA, encoder, fast & full decoders."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import BranchEvent, CoFIKind, Executor, Machine, Memory
from repro.cpu import PROT_EXEC, PROT_READ, PROT_WRITE
from repro.ipt import (
    FullDecoder,
    IPTConfig,
    IPTEncoder,
    PSB_PATTERN,
    PacketError,
    ToPA,
    ToPARegion,
    TraceMismatch,
    columnar_decode_parallel,
    columnar_scan,
    sync_to_psb,
)
from repro.ipt.packets import compress_ip, encode_tnt
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import R0, R1, R2, R3, SP
from tests.packet_reference import (
    PacketKind,
    decode_tnt_payload,
    decompress_ip,
    fast_decode,
)
from tests.test_full_decode_differential import anchored, parts


def scanned(data):
    """A full-decoder input over one scanned stream."""
    return [(columnar_scan(data), 0)]


def plain_config(**kw):
    config = IPTConfig(**kw)
    from repro.ipt.msr import RTIT_CTL

    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    return config


def big_topa():
    return ToPA([ToPARegion(1 << 20)])


class TestPacketPrimitives:
    def test_tnt_roundtrip(self):
        bits = (True, False, True, True, False, True)
        raw = encode_tnt(bits)
        assert len(raw) == 2
        assert decode_tnt_payload(raw[1]) == bits

    def test_tnt_rejects_empty_and_oversize(self):
        with pytest.raises(PacketError):
            encode_tnt(())
        with pytest.raises(PacketError):
            encode_tnt((True,) * 7)

    def test_tnt_payload_validation(self):
        with pytest.raises(PacketError):
            decode_tnt_payload(0)
        with pytest.raises(PacketError):
            decode_tnt_payload(0x80)

    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_tnt_roundtrip_property(self, bits):
        assert decode_tnt_payload(encode_tnt(tuple(bits))[1]) == tuple(bits)

    def test_ip_compression_short(self):
        width, payload = compress_ip(0x400123, 0x400456)
        assert width == 2
        assert decompress_ip(payload, 0x400456) == 0x400123

    def test_ip_compression_cross_module(self):
        width, _ = compress_ip(0x7F0000000123, 0x400456)
        assert width == 6

    @given(
        st.integers(0, 2**47 - 1),
        st.integers(0, 2**47 - 1),
    )
    def test_ip_compression_property(self, target, last):
        width, payload = compress_ip(target, last)
        assert decompress_ip(payload, last) == target
        assert width in (1, 2, 4, 6, 8)


class TestToPA:
    def test_two_region_pmi_and_wrap(self):
        hits = []
        topa = ToPA(
            [ToPARegion(16), ToPARegion(16, interrupt=True)],
            pmi_callback=lambda: hits.append(1),
        )
        topa.write(bytes(range(30)))
        assert not topa.wrapped
        assert hits == []
        topa.write(bytes([99, 98, 97]))  # crosses the interrupt region end
        assert hits == [1]
        assert topa.wrapped

    def test_snapshot_linear(self):
        topa = ToPA([ToPARegion(8), ToPARegion(8)])
        topa.write(b"abcdef")
        assert topa.snapshot() == b"abcdef"
        topa.write(b"ghijkl")
        assert topa.snapshot() == b"abcdefghijkl"

    def test_snapshot_after_wrap_oldest_first(self):
        topa = ToPA([ToPARegion(4), ToPARegion(4)])
        topa.write(b"01234567")  # exactly full -> wrapped
        topa.write(b"AB")
        snap = topa.snapshot()
        assert len(snap) == 8
        assert snap == b"234567AB"

    def test_stop_region(self):
        topa = ToPA([ToPARegion(4, stop=True)])
        topa.write(b"abcdefgh")
        topa.write(b"ijkl")
        assert topa.snapshot() == b"abcd"  # output frozen at the stop
        assert topa.total_bytes_written == 4

    def test_flowguard_default_is_16k(self):
        topa = ToPA.flowguard_default()
        assert topa.capacity == 16384

    def test_clear(self):
        topa = ToPA([ToPARegion(8)])
        topa.write(b"xy")
        topa.clear()
        assert topa.snapshot() == b""


def run_traced(items, psb_period=512, topa=None, config=None):
    """Assemble+run a snippet with an IPT encoder attached.

    Returns (executor, encoder, ground_truth_events, symbols).
    """
    code, symbols = asm(items, base=0x400000)
    mem = Memory()
    mem.map_region(0x400000, max(len(code), 1), PROT_READ | PROT_EXEC)
    mem.write_raw(0x400000, code)
    mem.map_region(0x7FFF0000, 0x10000, PROT_READ | PROT_WRITE)
    machine = Machine(mem)
    machine.ip = 0x400000
    machine.set_reg(SP, 0x7FFFFF00)
    cpu = Executor(machine)
    config = config or plain_config()
    config.psb_period = psb_period
    encoder = IPTEncoder(config, output=topa or big_topa())
    events = []
    cpu.add_listener(events.append)
    cpu.add_listener(encoder.on_branch)
    cpu.run(1_000_000)
    encoder.flush()
    return cpu, encoder, events, symbols


LOOP_SNIPPET = [
    A.mov(R0, 0),
    Label("loop"),
    A.addi(R0, 1),
    A.cmpi(R0, 20),
    A.jcc(Cond.LT, "loop"),
    A.lea(R2, "fin"),
    A.jmpr(R2),
    A.nop(),
    Label("fin"),
    A.halt(),
]


class TestEncoder:
    def test_table2_style_stream(self):
        """Conditional -> TNT bit; indirect -> TIP; direct -> nothing."""
        _, encoder, events, symbols = run_traced(LOOP_SNIPPET)
        result = fast_decode(encoder.output.snapshot())
        kinds = [p.kind for p in result.packets]
        # One PSB group at start.
        assert kinds[0] is PacketKind.PSB
        assert PacketKind.FUP in kinds[:3]
        tnts = [p for p in result.packets if p.kind is PacketKind.TNT]
        tips = [p for p in result.packets if p.kind is PacketKind.TIP]
        # 20 conditional outcomes -> 19 taken + 1 not-taken, in 4 packets.
        bits = [b for p in tnts for b in p.bits]
        assert len(bits) == 20
        assert bits == [True] * 19 + [False]
        # Exactly one indirect jump.
        assert len(tips) == 1
        assert tips[0].ip == symbols["fin"]

    def test_direct_branches_produce_no_output(self):
        items = [
            A.jmp("a"),
            Label("a"),
            A.call("b"),
            A.halt(),
            Label("b"),
            A.ret(),
        ]
        _, encoder, events, _ = run_traced(items)
        result = fast_decode(encoder.output.snapshot())
        # Only the ret generates a TIP; no packets for jmp/call.
        tips = [p for p in result.packets if p.kind is PacketKind.TIP]
        assert len(tips) == 1
        direct = [e for e in events
                  if e.kind in (CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL)]
        assert len(direct) == 2

    def test_compression_under_one_tip_per_branch(self):
        """<1 bit per retired instruction on branchy code (§2)."""
        cpu, encoder, _, _ = run_traced(LOOP_SNIPPET)
        trace_bits = 8 * encoder.output.total_bytes_written
        # Discount the PSB group (fixed overhead, amortised in practice).
        assert trace_bits / cpu.insn_count < 8

    def test_cr3_filtering(self):
        config = plain_config()
        from repro.ipt.msr import RTIT_CTL

        config.write_ctl(config.ctl | RTIT_CTL.CR3_FILTER)
        config.cr3_match = 0x5000
        topa = big_topa()
        encoder = IPTEncoder(config, output=topa,
                             current_cr3=lambda: 0x6000)
        encoder.on_branch(
            BranchEvent(CoFIKind.INDIRECT_JMP, 0x400000, 0x400010)
        )
        assert topa.total_bytes_written == 0  # filtered out
        encoder.current_cr3 = lambda: 0x5000
        encoder.on_branch(
            BranchEvent(CoFIKind.INDIRECT_JMP, 0x400000, 0x400010)
        )
        assert topa.total_bytes_written > 0

    def test_disabled_encoder_emits_nothing(self):
        config = IPTConfig()  # TraceEn clear
        topa = big_topa()
        encoder = IPTEncoder(config, output=topa)
        encoder.on_branch(
            BranchEvent(CoFIKind.INDIRECT_JMP, 0x400000, 0x400010)
        )
        assert topa.total_bytes_written == 0

    def test_psb_period_inserts_sync_points(self):
        _, encoder, _, _ = run_traced(
            [
                A.mov(R0, 0),
                Label("loop"),
                A.addi(R0, 1),
                A.lea(R2, "next"),
                A.jmpr(R2),
                Label("next"),
                A.cmpi(R0, 400),
                A.jcc(Cond.LT, "loop"),
                A.halt(),
            ],
            psb_period=64,
        )
        data = encoder.output.snapshot()
        count = 0
        pos = 0
        while True:
            found = sync_to_psb(data[pos:])
            if found < 0:
                break
            count += 1
            pos += found + len(PSB_PATTERN)
        assert count > 3

    def test_far_transfer_group(self):
        items = [A.mov(R0, 5), A.syscall(), A.halt()]
        _, encoder, _, _ = run_traced(items)
        result = fast_decode(encoder.output.snapshot())
        kinds = [p.kind for p in result.packets]
        i = kinds.index(PacketKind.PSBEND)
        assert kinds[i + 1 : i + 4] == [
            PacketKind.FUP,
            PacketKind.TIP_PGD,
            PacketKind.TIP_PGE,
        ]


class TestFastDecode:
    def test_sync_after_wrap(self):
        topa = ToPA([ToPARegion(128), ToPARegion(128)])
        _, encoder, _, _ = run_traced(
            [
                A.mov(R0, 0),
                Label("loop"),
                A.addi(R0, 1),
                A.lea(R2, "next"),
                A.jmpr(R2),
                Label("next"),
                A.cmpi(R0, 300),
                A.jcc(Cond.LT, "loop"),
                A.halt(),
            ],
            psb_period=64,
            topa=topa,
        )
        assert topa.wrapped
        data = topa.snapshot()
        seg = columnar_scan(data, sync=True)
        assert seg.pkt_count and seg.ip_column()
        synced = sync_to_psb(data)
        assert synced >= 0 and data[synced:].startswith(PSB_PATTERN)
        assert seg.rec_offsets[0] > synced

    def test_tip_records_carry_tnt_context(self):
        _, encoder, _, symbols = run_traced(LOOP_SNIPPET)
        seg = columnar_scan(encoder.output.snapshot())
        assert seg.ip_column() == [symbols["fin"]]
        # a 20-branch TNT run, packed behind the signature's 1-prefix
        assert seg.sig_column()[0].bit_length() - 1 == 20

    def test_parallel_decode_equivalent(self):
        _, encoder, _, _ = run_traced(
            [
                A.mov(R0, 0),
                Label("loop"),
                A.addi(R0, 1),
                A.lea(R2, "next"),
                A.jmpr(R2),
                Label("next"),
                A.cmpi(R0, 200),
                A.jcc(Cond.LT, "loop"),
                A.halt(),
            ],
            psb_period=64,
        )
        data = encoder.output.snapshot()
        serial = columnar_scan(data)
        parallel = columnar_decode_parallel(data)
        # A PSB resets IP compression: the segments decode to the
        # serial scan's packets and TIP targets.
        columns = [seg for seg, _ in parallel.columns]
        assert sum(seg.pkt_count for seg in columns) == serial.pkt_count
        assert [ip for seg in columns for ip in seg.ip_column()] == (
            serial.ip_column()
        )
        assert parallel.segments > 1
        assert parallel.critical_path_cycles < serial.cycles

    def test_garbage_raises(self):
        with pytest.raises(PacketError):
            columnar_scan(b"\xde\xad\xbe\xef")

    def test_truncated_tail_tolerated(self):
        _, encoder, _, _ = run_traced(LOOP_SNIPPET)
        data = encoder.output.snapshot()
        result = columnar_scan(data[:-1])
        assert result.truncated


class TestFullDecode:
    def _decode_against_truth(self, items, psb_period=512):
        cpu, encoder, events, symbols = run_traced(items, psb_period)
        decoder = FullDecoder(cpu.machine.memory)
        full = decoder.decode(scanned(encoder.output.snapshot()))
        truth = [
            (e.kind, e.src, e.dst)
            for e in events
        ]
        got = [(e.kind, e.src, e.dst) for e in full.edges]
        return truth, got, full, cpu

    def test_reconstructs_exact_flow(self):
        truth, got, full, cpu = self._decode_against_truth(LOOP_SNIPPET)
        assert got == truth
        assert full.insn_count > 0

    def test_reconstruction_with_calls_and_syscall(self):
        items = [
            A.mov(R1, 3),
            A.call("work"),
            A.mov(R0, 1),
            A.syscall(),
            A.halt(),
            Label("work"),
            A.cmpi(R1, 0),
            A.jcc(Cond.EQ, "done"),
            A.subi(R1, 1),
            A.jmp("work"),
            Label("done"),
            A.ret(),
        ]
        truth, got, _, _ = self._decode_against_truth(items)
        # Direct branches before the first packet-producing event leave
        # no trace (Table 3), so decoding anchors at the first PSB: the
        # reconstruction is an exact *suffix* of the ground truth.
        assert got == truth[len(truth) - len(got):]
        assert len(got) >= len(truth) - 2
        assert got[-1][0] is CoFIKind.FAR_TRANSFER

    def test_reconstruction_across_psb(self):
        items = [
            A.mov(R0, 0),
            Label("loop"),
            A.addi(R0, 1),
            A.lea(R2, "next"),
            A.jmpr(R2),
            Label("next"),
            A.cmpi(R0, 100),
            A.jcc(Cond.LT, "loop"),
            A.halt(),
        ]
        truth, got, _, _ = self._decode_against_truth(items, psb_period=64)
        assert got == truth

    def test_decode_cost_exceeds_trace_cost(self):
        """The central §2 asymmetry: decoding >> tracing."""
        cpu, encoder, _, _ = run_traced(LOOP_SNIPPET)
        full = FullDecoder(cpu.machine.memory).decode(
            scanned(encoder.output.snapshot())
        )
        assert full.cycles > 20 * encoder.cycles

    def test_mismatched_binary_raises(self):
        cpu, encoder, _, _ = run_traced(LOOP_SNIPPET)
        source = scanned(encoder.output.snapshot())
        wrong_memory = Memory()
        wrong_memory.map_region(0x400000, 0x1000, PROT_READ | PROT_EXEC)
        code, _ = asm([A.halt()])
        wrong_memory.write_raw(0x400000, code)
        with pytest.raises(TraceMismatch):
            FullDecoder(wrong_memory).decode(source)

    def test_empty_packets(self):
        decoder = FullDecoder(Memory())
        result = decoder.decode([])
        assert result.edges == []
        assert result.insn_count == 0


REMAP_OLD = [A.mov(R0, 1), A.mov(R1, 2), A.halt()]
REMAP_NEW = [A.jmp("t"), A.mov(R0, 1), Label("t"), A.halt()]


class TestFullDecodeAfterRemap:
    """Code re-mapped through mprotect must not be decoded from a stale
    cache: the decoder drops what it disassembled when the memory's
    code epoch moves."""

    BASE = 0x500000

    @staticmethod
    def _decode(decoder, base=BASE):
        result = decoder.decode(parts(anchored(base)))
        return result.insn_count, [(e.kind, e.src) for e in result.edges]

    def test_remapped_code_decodes_fresh(self):
        memory = Memory()
        memory.map_region(self.BASE, 0x1000, PROT_READ | PROT_EXEC)
        memory.write_raw(self.BASE, asm(REMAP_OLD, base=self.BASE)[0])
        decoder = FullDecoder(memory)
        assert self._decode(decoder) == (3, [])
        memory.protect(self.BASE, 0x1000, PROT_READ | PROT_WRITE)
        memory.write(self.BASE, asm(REMAP_NEW, base=self.BASE)[0])
        memory.protect(self.BASE, 0x1000, PROT_READ | PROT_EXEC)
        want = (2, [(CoFIKind.DIRECT_JMP, self.BASE)])
        assert self._decode(FullDecoder(memory)) == want
        assert self._decode(decoder) == want

    def test_mprotect_syscall_invalidates(self):
        from repro.lang import Const, Func, Program, Return
        from repro.osmodel import Kernel, Sys

        prog = Program("remap")
        prog.add_func(Func("main", [], [Return(Const(0))]))
        prog.set_entry("main")
        kernel = Kernel()
        kernel.register_program("remap", prog.build())
        proc = kernel.spawn("remap")
        machine = proc.machine

        def syscall(nr, *args):
            machine.set_reg(R0, nr)
            for reg, value in zip((R1, R2, R3), args):
                machine.set_reg(reg, value)
            proc.executor.syscall_handler(machine)
            return machine.reg(R0)

        base = syscall(Sys.MMAP, 0, 0x1000, PROT_READ | PROT_WRITE)
        machine.memory.write(base, asm(REMAP_OLD, base=base)[0])
        assert syscall(Sys.MPROTECT, base, 0x1000, PROT_READ | PROT_EXEC) == 0
        decoder = FullDecoder(machine.memory)
        assert self._decode(decoder, base) == (3, [])
        assert syscall(Sys.MPROTECT, base, 0x1000, PROT_READ | PROT_WRITE) == 0
        machine.memory.write(base, asm(REMAP_NEW, base=base)[0])
        assert syscall(Sys.MPROTECT, base, 0x1000, PROT_READ | PROT_EXEC) == 0
        assert self._decode(decoder, base) == (
            2, [(CoFIKind.DIRECT_JMP, base)]
        )


class TestToPAEdgeCases:
    """Ring-wrap corner cases the fleet's per-process rings rely on."""

    def test_pmi_fires_exactly_at_ring_wrap(self):
        fired = []
        topa = ToPA(
            [ToPARegion(16), ToPARegion(16, interrupt=True)],
            pmi_callback=lambda: fired.append(topa.total_bytes_written),
        )
        payload = bytes(range(32))
        topa.write(payload)
        # The interrupt region fills on the very byte that fills the
        # ring: exactly one PMI, and nothing has been overwritten yet.
        assert fired == [32]
        assert topa.wrapped
        assert topa.snapshot() == payload
        # The next byte is the first drop-oldest overwrite.
        topa.write(b"\xaa")
        assert topa.snapshot() == payload[1:] + b"\xaa"
        assert fired == [32]  # no second PMI until the region refills

    def test_overflow_during_syscall_keeps_group_atomic(self):
        # A syscall emits a multi-packet far-transfer group.  Size the
        # ring so the PMI lands inside that group: the group finishes
        # emitting (PMI skid), overflowing the ring, and the snapshot
        # holds the newest capacity-many bytes.
        items = [A.mov(R0, 5), A.syscall(), A.halt()]
        _, reference, _, _ = run_traced(items)
        full = reference.output.snapshot()

        fired = []
        topa = ToPA(
            [ToPARegion(8), ToPARegion(8, interrupt=True)],
            pmi_callback=lambda: fired.append(topa.total_bytes_written),
        )
        run_traced(items, topa=topa)
        assert topa.total_bytes_written == len(full)
        assert len(full) > topa.capacity
        assert fired[0] == topa.capacity  # PMI at the interrupt fill
        skid = topa.total_bytes_written - fired[0]
        assert skid > 0  # bytes kept landing after the PMI
        assert topa.wrapped
        assert topa.snapshot() == full[-topa.capacity:]
