"""Tests for the slow path: shadow stack + fine-grained forward edges.

``TestShadowStack`` covers the per-edge shadow stack of the policy
oracle (``tests/slowpath_reference.py``); the engine's inlined stack is
held to it by ``tests/test_slowpath_differential.py``.
"""

import pytest

from repro.analysis import ControlFlowGraph, Edge, EdgeKind
from repro.analysis.cfg import BasicBlock
from repro.cpu import BranchEvent, CoFIKind, Memory
from repro.ipt.columnar import columnar_scan
from repro.ipt.full_decoder import TraceMismatch, _ColumnWalk
from repro.ipt.packets import pack_tnt_sig
from repro.monitor.slowpath import (
    _DIRECT_CALL_LEN,
    _INDIRECT_CALL_LEN,
    SlowPathEngine,
)
from tests.slowpath_reference import ShadowStack, ShadowStackViolation


class TestShadowStack:
    def test_matched_call_ret(self):
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.DIRECT_CALL, 0x100, 0x200))
        shadow.feed(BranchEvent(CoFIKind.RET, 0x210, 0x100 + _DIRECT_CALL_LEN))
        assert shadow.checked_returns == 1
        assert shadow.depth == 0

    def test_indirect_call_return_length(self):
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.INDIRECT_CALL, 0x100, 0x300))
        shadow.feed(
            BranchEvent(CoFIKind.RET, 0x310, 0x100 + _INDIRECT_CALL_LEN)
        )
        assert shadow.checked_returns == 1

    def test_hijacked_return_raises(self):
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.DIRECT_CALL, 0x100, 0x200))
        with pytest.raises(ShadowStackViolation) as exc:
            shadow.feed(BranchEvent(CoFIKind.RET, 0x210, 0xBAD))
        assert exc.value.expected == 0x100 + _DIRECT_CALL_LEN
        assert exc.value.actual == 0xBAD

    def test_nested_calls_lifo(self):
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.DIRECT_CALL, 0x100, 0x200))
        shadow.feed(BranchEvent(CoFIKind.DIRECT_CALL, 0x200, 0x300))
        shadow.feed(BranchEvent(CoFIKind.RET, 0x310, 0x200 + _DIRECT_CALL_LEN))
        shadow.feed(BranchEvent(CoFIKind.RET, 0x210, 0x100 + _DIRECT_CALL_LEN))
        assert shadow.checked_returns == 2

    def test_window_start_unknown_returns_tolerated(self):
        """A ret before any call in the window cannot be checked."""
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.RET, 0x100, 0x200))
        assert shadow.unknown_returns == 1
        assert shadow.checked_returns == 0

    def test_non_call_edges_ignored(self):
        shadow = ShadowStack()
        shadow.feed(BranchEvent(CoFIKind.COND_BRANCH, 0x100, 0x110))
        shadow.feed(BranchEvent(CoFIKind.DIRECT_JMP, 0x110, 0x120))
        assert shadow.depth == 0


def make_cfg_with_indirect(branch_addr, allowed_targets,
                           kind=EdgeKind.INDIRECT_CALL):
    cfg = ControlFlowGraph()
    block = BasicBlock(branch_addr & ~0xF, (branch_addr & ~0xF) + 0x20, "m")
    cfg.add_block(block)
    for target in allowed_targets:
        cfg.add_block(BasicBlock(target, target + 0x10, "m"))
        cfg.add_edge(Edge(block.start, target, kind, branch_addr))
    return cfg


class TestSlowPathForwardEdges:
    def _engine(self, cfg):
        return SlowPathEngine(Memory(), cfg)

    def test_indirect_call_inside_set_via_decoder(self):
        """End-to-end: a real traced run with an indirect call passes."""
        from repro.analysis import build_ocfg
        from repro.binary import Loader
        from repro.cpu import Executor, Machine
        from repro.cpu import PROT_READ, PROT_WRITE
        from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion
        from repro.ipt.msr import RTIT_CTL
        from repro.isa.registers import SP
        from repro.lang import (
            CallPtr, Const, Func, FuncRef, Let, Program, Return, Var,
        )

        prog = Program("t")
        prog.add_func(Func("target_fn", ["x"], [Return(Var("x"))]))
        prog.add_func(
            Func("main", [],
                 [Let("f", FuncRef("target_fn")),
                  Return(CallPtr(Var("f"), [Const(3)]))])
        )
        prog.set_entry("main")
        image = Loader().load(prog.build())
        image.memory.map_region(0x7FFE0000, 0x10000,
                                PROT_READ | PROT_WRITE)
        machine = Machine(image.memory)
        machine.ip = image.entry_address
        machine.set_reg(SP, 0x7FFEFF00)
        cpu = Executor(machine)
        config = IPTConfig()
        config.write_ctl(
            RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER
        )
        encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 16)]))
        cpu.add_listener(encoder.on_branch)
        cpu.run(100_000)
        encoder.flush()
        source = [(columnar_scan(encoder.output.snapshot()), 0)]
        engine = SlowPathEngine(image.memory, build_ocfg(image))
        result = engine.check(source)
        assert result.ok, result.reason
        assert result.insns_decoded > 0
        assert result.cycles > 0

    def test_forward_edge_violation_detected(self):
        """Synthetic packets steering an indirect call off-CFG."""
        # Reuse the same program but tamper with the O-CFG so the real
        # target is no longer allowed.
        from repro.analysis import build_ocfg
        from repro.binary import Loader
        from repro.cpu import Executor, Machine
        from repro.cpu import PROT_READ, PROT_WRITE
        from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion
        from repro.ipt.msr import RTIT_CTL
        from repro.isa.registers import SP
        from repro.lang import (
            CallPtr, Const, Func, FuncRef, Let, Program, Return, Var,
        )

        prog = Program("t")
        prog.add_func(Func("target_fn", ["x"], [Return(Var("x"))]))
        prog.add_func(
            Func("main", [],
                 [Let("f", FuncRef("target_fn")),
                  Return(CallPtr(Var("f"), [Const(3)]))])
        )
        prog.set_entry("main")
        image = Loader().load(prog.build())
        image.memory.map_region(0x7FFE0000, 0x10000,
                                PROT_READ | PROT_WRITE)
        machine = Machine(image.memory)
        machine.ip = image.entry_address
        machine.set_reg(SP, 0x7FFEFF00)
        cpu = Executor(machine)
        config = IPTConfig()
        config.write_ctl(
            RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER
        )
        encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 16)]))
        cpu.add_listener(encoder.on_branch)
        cpu.run(100_000)
        encoder.flush()
        source = [(columnar_scan(encoder.output.snapshot()), 0)]

        ocfg = build_ocfg(image)
        # Empty every indirect-call target set: the observed call is now
        # a forward-edge violation.
        for branch in list(ocfg.indirect_targets):
            ocfg.indirect_targets[branch] = set()
        engine = SlowPathEngine(image.memory, ocfg)
        result = engine.check(source)
        assert not result.ok
        assert "violation" in result.reason

    def test_upcall_cost_always_charged(self):
        from repro import costs

        engine = SlowPathEngine(Memory(), ControlFlowGraph())
        result = engine.check([])
        assert result.ok
        assert result.cycles >= costs.SLOWPATH_UPCALL_CYCLES

    def test_desync_reported_not_raised(self):
        from repro.ipt.packets import TIP_PGE_HEADER, encode_ip_packet

        engine = SlowPathEngine(Memory(), ControlFlowGraph())
        pge, _ = encode_ip_packet(TIP_PGE_HEADER, 0xDEAD, 0)
        result = engine.check([(columnar_scan(pge), 0)])
        assert not result.ok
        assert "desync" in result.reason



CODE = 0x400000
SUPPRESSED_KINDS = ["tip", "fup", "tip.pge"]


def far_or_tip_case(kind, suppressed=True):
    """(memory, trace bytes, offset of the IP-suppressed packet) for a
    snippet whose walk needs the target of a ``kind`` packet ("tip",
    "fup" or "tip.pge"); ``suppressed`` withholds that target."""
    from repro.cpu import PROT_EXEC, PROT_READ
    from repro.ipt.packets import (
        FUP_HEADER,
        PSBEND_BYTE,
        PSB_PATTERN,
        TIP_HEADER,
        TIP_PGD_HEADER,
        TIP_PGE_HEADER,
        encode_ip_packet,
    )
    from repro.isa import A, Label, asm
    from repro.isa.registers import R2

    if kind == "tip":
        code, symbols = asm(
            [A.lea(R2, "t"), A.jmpr(R2), Label("t"), A.halt()], base=CODE
        )
        walk = [(TIP_HEADER, symbols["t"], True)]
    else:
        code, symbols = asm([A.syscall(), Label("r"), A.halt()], base=CODE)
        walk = [
            (FUP_HEADER, CODE, kind == "fup"),
            (TIP_PGD_HEADER, None, False),
            (TIP_PGE_HEADER, symbols["r"], kind == "tip.pge"),
        ]
    memory = Memory()
    memory.map_region(CODE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE, code)
    stream = bytearray(PSB_PATTERN)
    packet, last_ip = encode_ip_packet(FUP_HEADER, CODE, 0)
    stream += packet
    stream.append(PSBEND_BYTE)
    offset = None
    for header, ip, withheld in walk:
        if withheld and suppressed:
            offset = len(stream)
            ip = None
        packet, last_ip = encode_ip_packet(header, ip, last_ip)
        stream += packet
    return memory, bytes(stream), offset


def scanned(data):
    return [(columnar_scan(data), 0)]


class TestSuppressedIP:
    """An IP-suppressed TIP, TIP.PGE or FUP where the walk needs a
    target is a desync, not the end of the stream: the slow path must
    not confirm a window it never decoded."""

    @pytest.mark.parametrize("kind", SUPPRESSED_KINDS)
    def test_cursor_raises(self, kind):
        _, data, offset = far_or_tip_case(kind)
        cursor = _ColumnWalk(scanned(data))
        assert cursor.initial_ip() == CODE
        with pytest.raises(TraceMismatch) as info:
            if kind == "tip":
                cursor.next_tip()
            else:
                cursor.next_far_resume(CODE)
        assert str(info.value) == f"IP-suppressed {kind} at offset {offset}"

    @pytest.mark.parametrize("kind", SUPPRESSED_KINDS)
    def test_slow_path_fails_closed(self, kind):
        memory, data, offset = far_or_tip_case(kind)
        engine = SlowPathEngine(memory, ControlFlowGraph())
        result = engine.check(
            scanned(data), [CODE, CODE + 0x10], [1, pack_tnt_sig((True,))]
        )
        assert not result.ok
        assert result.reason == (
            f"decoder desync: IP-suppressed {kind} at offset {offset}"
        )
        assert result.confirmed_pairs == []

    @pytest.mark.parametrize("kind", SUPPRESSED_KINDS)
    def test_intact_trace_decodes_to_halt(self, kind):
        from repro.ipt.full_decoder import FullDecoder

        memory, data, _ = far_or_tip_case(kind, suppressed=False)
        result = FullDecoder(memory).decode(scanned(data))
        assert len(result.edges) == 1
        assert result.insn_count == (3 if kind == "tip" else 2)
        assert result.exhausted


class TestDecodeBudget:
    """A window the decoder's instruction budget cuts off was verified
    only up to the cut: the slow path fails it like a desync, confirms
    nothing, and still charges every instruction it walked."""

    def window(self):
        from repro.isa import A, Cond, Label
        from repro.isa.registers import R0
        from tests.test_full_decode_differential import traced_snippet

        memory, data = traced_snippet([
            A.mov(R0, 0), Label("loop"), A.addi(R0, 1), A.cmpi(R0, 40),
            A.jcc(Cond.LT, "loop"), A.halt(),
        ])
        # Three pairs the fast path would hand over for promotion.
        ips = [CODE, CODE + 0x10, CODE + 0x20]
        sigs = [1, pack_tnt_sig((True,)), pack_tnt_sig((False,))]
        return memory, scanned(data), ips, sigs

    def test_full_budget_confirms_the_window(self):
        memory, source, ips, sigs = self.window()
        result = SlowPathEngine(memory, ControlFlowGraph()).check(
            source, ips, sigs
        )
        assert result.ok and len(result.confirmed_pairs) == 2
        assert result.insns_decoded > 50

    def test_cut_window_fails_and_charges_its_walk(self):
        from repro import costs

        memory, source, ips, sigs = self.window()
        engine = SlowPathEngine(memory, ControlFlowGraph())
        engine._decoder.max_insns = 50
        decoded = engine._decoder.decode(source)
        assert decoded.exhausted is False and decoded.insn_count == 50
        result = engine.check(source, ips, sigs)
        assert not result.ok
        assert result.reason == (
            f"decode budget exhausted at {decoded.end_ip:#x} after 50 "
            f"instructions"
        )
        assert result.confirmed_pairs == []
        assert result.insns_decoded == 50
        assert result.cycles == (
            costs.SLOWPATH_UPCALL_CYCLES
            + 50 * costs.FULL_DECODE_CYCLES_PER_INSN
        )
