"""Tests for ITC-CFG construction, credits, search index, serialization.

Includes the paper's Figure 3 reconstruction example, the Figure 4 AIA
derogation example, and the §4.2 soundness theorem as an end-to-end
property: every pair of consecutive TIP packets in a real trace is an
ITC-CFG edge.
"""

import pytest

from repro import costs

from repro.analysis import (
    ControlFlowGraph,
    Edge,
    EdgeKind,
    aia_itc,
    aia_itc_with_tnt,
    aia_ocfg,
    build_ocfg,
    flowguard_aia,
)
from repro.analysis.cfg import BasicBlock
from repro.binary import Loader
from repro.cpu import Executor, Machine, PROT_READ, PROT_WRITE
from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion, columnar_scan
from repro.ipt.msr import RTIT_CTL
from repro.ipt.packets import unpack_tnt_sig
from repro.itccfg import (
    CreditLabeledITC,
    CreditLevel,
    FlowSearchIndex,
    ITCCFG,
    ITCEdge,
    build_itccfg,
    itccfg_from_dict,
    itccfg_memory_bytes,
    itccfg_to_dict,
)
from repro.itccfg.credits import UnknownEdge
from repro.isa.registers import SP
from repro.lang import (
    Assign,
    Call,
    CallPtr,
    Const,
    Func,
    FuncRef,
    If,
    Let,
    Program,
    Rel,
    Return,
    Switch,
    Var,
    While,
)
from tests.searchindex_reference import check_pair


def figure3_ocfg():
    """A 10-block O-CFG consistent with the Figure 3 narrative:

    - IT-BBs are exactly {2, 3, 5, 7, 9, 10},
    - BB-3 reaches BB-9 through direct edges + one indirect (via BB-6),
    - BB-3 reaches BB-10 through direct edges only,
    - BB-2 reaches BB-7 via one indirect hop (through BB-4).
    """
    bb = {i: 0x1000 * i for i in range(1, 11)}
    cfg = ControlFlowGraph()
    for i, start in bb.items():
        cfg.add_block(BasicBlock(start, start + 0x10, "app", f"bb{i}"))

    def direct(s, d):
        cfg.add_edge(Edge(bb[s], bb[d], EdgeKind.DIRECT_JMP, bb[s] + 8))

    def indirect(s, d):
        cfg.add_edge(Edge(bb[s], bb[d], EdgeKind.INDIRECT_JMP, bb[s] + 8))

    indirect(1, 2)
    indirect(1, 3)
    direct(2, 4)
    indirect(4, 7)
    indirect(2, 5)
    direct(3, 6)
    indirect(6, 9)
    direct(6, 10)
    indirect(5, 10)
    return cfg, bb


class TestFigure3:
    def test_it_bb_extraction(self):
        cfg, bb = figure3_ocfg()
        itc = build_itccfg(cfg)
        assert itc.nodes == {bb[i] for i in (2, 3, 5, 7, 9, 10)}

    def test_edge_via_indirect_hop(self):
        cfg, bb = figure3_ocfg()
        itc = build_itccfg(cfg)
        # BB-3 -> BB-9: direct to BB-6, then indirect to BB-9.
        assert itc.has_edge(bb[3], bb[9])

    def test_no_edge_without_indirect_hop(self):
        cfg, bb = figure3_ocfg()
        itc = build_itccfg(cfg)
        # BB-3 -> BB-10 is a purely direct path: no TIP would be
        # generated, so no ITC edge.
        assert not itc.has_edge(bb[3], bb[10])

    def test_bb2_to_bb7(self):
        cfg, bb = figure3_ocfg()
        itc = build_itccfg(cfg)
        assert itc.has_edge(bb[2], bb[7])
        assert itc.has_edge(bb[2], bb[5])

    def test_non_it_bbs_have_no_nodes(self):
        cfg, bb = figure3_ocfg()
        itc = build_itccfg(cfg)
        for i in (1, 4, 6, 8):
            assert bb[i] not in itc.nodes


class TestFigure4AIADerogation:
    def make(self):
        """X (IT) -> BB1 -> cond -> BB2|BB3; BB2 ~> {4,5}; BB3 ~> {5,6}."""
        addr = {name: 0x1000 * (i + 1) for i, name in
                enumerate(["W", "X", "B1", "B2", "B3", "B4", "B5", "B6"])}
        cfg = ControlFlowGraph()
        for name, start in addr.items():
            cfg.add_block(BasicBlock(start, start + 0x10, "app", name))
        a = addr
        cfg.add_edge(Edge(a["W"], a["X"], EdgeKind.INDIRECT_JMP, a["W"] + 8))
        cfg.add_edge(Edge(a["X"], a["B1"], EdgeKind.DIRECT_JMP, a["X"] + 8))
        cfg.add_edge(Edge(a["B1"], a["B2"], EdgeKind.COND_TAKEN, a["B1"] + 8))
        cfg.add_edge(Edge(a["B1"], a["B3"], EdgeKind.FALLTHROUGH, a["B1"] + 8))
        cfg.add_edge(Edge(a["B2"], a["B4"], EdgeKind.INDIRECT_JMP, a["B2"] + 8))
        cfg.add_edge(Edge(a["B2"], a["B5"], EdgeKind.INDIRECT_JMP, a["B2"] + 8))
        cfg.add_edge(Edge(a["B3"], a["B5"], EdgeKind.INDIRECT_JMP, a["B3"] + 8))
        cfg.add_edge(Edge(a["B3"], a["B6"], EdgeKind.INDIRECT_JMP, a["B3"] + 8))
        return cfg, addr

    def test_derogation_and_tnt_repair(self):
        cfg, addr = self.make()
        itc = build_itccfg(cfg)
        # In the ITC-CFG, node X sees all of {B4, B5, B6}: out-degree 3.
        assert itc.successors(addr["X"]) == {
            addr["B4"], addr["B5"], addr["B6"]
        }
        x_out = len(itc.successors(addr["X"]))
        assert x_out == 3
        # The two underlying indirect branches each allow only 2 targets:
        # grouping by branch (what TNT information pins down) recovers
        # the O-CFG precision.
        per_branch = aia_itc_with_tnt(itc)
        groups = {}
        for e in itc.edges:
            groups.setdefault((e.src, e.branch_addr), set()).add(e.dst)
        x_groups = {k: v for k, v in groups.items() if k[0] == addr["X"]}
        assert all(len(v) == 2 for v in x_groups.values())
        assert per_branch < aia_itc(itc) or len(itc.nodes) > 1

    def test_flowguard_formula(self):
        assert flowguard_aia(1.0, 2.0, 10.0) == 2.0
        assert flowguard_aia(0.0, 2.0, 10.0) == 10.0
        assert flowguard_aia(0.5, 2.0, 10.0) == 6.0
        with pytest.raises(ValueError):
            flowguard_aia(1.5, 1.0, 1.0)


class TestCredits:
    def make_labeled(self):
        itc = ITCCFG()
        itc.nodes = {0x100, 0x200, 0x300}
        itc.add_edge(ITCEdge(0x100, 0x200, 0x110))
        itc.add_edge(ITCEdge(0x200, 0x300, 0x210))
        itc.add_edge(ITCEdge(0x100, 0x300, 0x120))
        return CreditLabeledITC(itc=itc)

    def test_observe_trace_labels_edges(self):
        labeled = self.make_labeled()
        count = labeled.observe_trace(
            [(0x100, ()), (0x200, (True,)), (0x300, (False, True))]
        )
        assert count == 2
        assert labeled.credit_of(0x100, 0x200) is CreditLevel.HIGH
        assert labeled.credit_of(0x100, 0x300) is CreditLevel.LOW
        assert labeled.tnt_matches(0x200, 0x300, (False, True))
        assert not labeled.tnt_matches(0x200, 0x300, (True, True))
        assert 0x100 in labeled.trained_entry_nodes

    def test_observe_unknown_edge_strict(self):
        labeled = self.make_labeled()
        with pytest.raises(UnknownEdge):
            labeled.observe_pair(0x300, 0x100, ())

    def test_observe_unknown_edge_lenient(self):
        labeled = self.make_labeled()
        labeled.observe_pair(0x300, 0x100, (), strict=False)
        assert labeled.credit_of(0x300, 0x100) is CreditLevel.LOW

    def test_trained_ratio(self):
        labeled = self.make_labeled()
        assert labeled.trained_ratio() == 0.0
        labeled.observe_pair(0x100, 0x200, ())
        assert labeled.trained_ratio() == pytest.approx(1 / 3)

    def test_promote_caches_slow_path_negative(self):
        labeled = self.make_labeled()
        labeled.promote(0x100, 0x300, (True,))
        assert labeled.credit_of(0x100, 0x300) is CreditLevel.HIGH
        assert labeled.tnt_matches(0x100, 0x300, (True,))

    def test_promote_records_an_empty_run(self):
        # The slow path confirms pairs with no TNT bits between their
        # TIPs; the edge must trust that run and no other.
        labeled = self.make_labeled()
        labeled.promote(0x100, 0x300, ())
        assert labeled.credit_of(0x100, 0x300) is CreditLevel.HIGH
        assert labeled.tnt_matches(0x100, 0x300, ())
        assert not labeled.tnt_matches(0x100, 0x300, (True,))


class TestSearchIndex:
    def make_index(self):
        labeled = TestCredits().make_labeled()
        labeled.observe_trace([(0x100, ()), (0x200, (True,))])
        return FlowSearchIndex(labeled)

    def test_hot_cache_hit(self):
        index = self.make_index()
        result = check_pair(index, 0x100, 0x200, (True,))
        assert result.violation is None
        assert result.low_credit == []
        # a single hash probe
        assert index.cycles == costs.CREDIT_CACHE_PROBE_CYCLES

    def test_cold_edge_binary_search(self):
        index = self.make_index()
        result = check_pair(index, 0x100, 0x300)
        assert result.violation is None
        assert result.low_credit == [(0x100, 0x300)]
        assert index.cycles > costs.CREDIT_CACHE_PROBE_CYCLES

    def test_edge_not_in_graph(self):
        index = self.make_index()
        assert check_pair(index, 0x300, 0x100).violation == (0x300, 0x100)
        assert check_pair(index, 0xDEAD, 0xBEEF).violation == (
            0xDEAD, 0xBEEF
        )

    def test_tnt_mismatch_flagged(self):
        index = self.make_index()
        result = check_pair(index, 0x100, 0x200, (False,))
        assert result.violation is None
        assert result.low_credit == [(0x100, 0x200)]

    def test_cycle_accounting(self):
        index = self.make_index()
        before = index.cycles
        check_pair(index, 0x100, 0x300)
        assert index.cycles > before

    def test_memory_estimate_positive(self):
        index = self.make_index()
        assert index.memory_bytes() > 0


class TestSerialization:
    def test_roundtrip(self):
        labeled = TestCredits().make_labeled()
        labeled.observe_trace(
            [(0x100, ()), (0x200, (True, False)), (0x300, ())]
        )
        data = itccfg_to_dict(labeled)
        back = itccfg_from_dict(data)
        assert back.itc.nodes == labeled.itc.nodes
        assert {(e.src, e.dst) for e in back.itc.edges} == {
            (e.src, e.dst) for e in labeled.itc.edges
        }
        assert back.credit_of(0x100, 0x200) is CreditLevel.HIGH
        assert back.tnt_matches(0x200, 0x300, ())
        assert back.trained_entry_nodes == labeled.trained_entry_nodes

    def test_memory_bytes(self):
        labeled = TestCredits().make_labeled()
        assert itccfg_memory_bytes(labeled) > 0


def branchy_program():
    """A program with indirect calls, a switch, loops and lib-free flow."""
    prog = Program("branchy")
    prog.add_func(Func("h_add", ["a"], [Return(Var("a"))]))
    prog.add_func(
        Func("h_mul", ["a"], [Return(Var("a"))])
    )
    prog.add_func(
        Func(
            "dispatch",
            ["sel", "v"],
            [
                Let("fp", FuncRef("h_add")),
                If(
                    Rel("==", Var("sel"), Const(1)),
                    [Assign("fp", FuncRef("h_mul"))],
                ),
                Return(CallPtr(Var("fp"), [Var("v")])),
            ],
        )
    )
    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("i", Const(0)),
                Let("acc", Const(0)),
                While(
                    Rel("<", Var("i"), Const(6)),
                    [
                        Assign(
                            "acc",
                            Call("dispatch",
                                 [Var("i"), Var("acc")]),
                        ),
                        Switch(
                            Var("i"),
                            {
                                0: [Assign("acc", Const(5))],
                                1: [Assign("acc", Const(6))],
                                2: [Assign("acc", Const(7))],
                            },
                            default=[],
                        ),
                        Assign("i", BinOpLike("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("acc")),
            ],
        )
    )
    prog.set_entry("main")
    return prog


from repro.lang import BinOp as BinOpLike  # noqa: E402


class TestITCSoundness:
    """§4.2 theorem: consecutive TIPs always form ITC edges."""

    def trace_program(self, prog):
        image = Loader().load(prog.build())
        image.memory.map_region(
            0x7FFE0000, 0x20000, PROT_READ | PROT_WRITE
        )
        machine = Machine(image.memory)
        machine.ip = image.entry_address
        machine.set_reg(SP, 0x7FFFFF00)
        cpu = Executor(machine)
        config = IPTConfig()
        config.write_ctl(
            RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER
        )
        encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 20)]))
        cpu.add_listener(encoder.on_branch)
        cpu.run(2_000_000)
        encoder.flush()
        return image, encoder

    def test_consecutive_tips_are_itc_edges(self):
        prog = branchy_program()
        image, encoder = self.trace_program(prog)
        cfg = build_ocfg(image)
        itc = build_itccfg(cfg)
        ips = columnar_scan(encoder.output.snapshot()).ip_column()
        assert len(ips) >= 5
        for prev, cur in zip(ips, ips[1:]):
            # Every TIP lands on an IT-BB and every consecutive pair is
            # an ITC edge — the no-false-positive guarantee.
            assert itc.has_node(cur), hex(cur)
            assert itc.has_edge(prev, cur), (
                f"missing ITC edge {prev:#x} -> {cur:#x}"
            )

    def test_training_then_full_fast_path_match(self):
        prog = branchy_program()
        image, encoder = self.trace_program(prog)
        cfg = build_ocfg(image)
        itc = build_itccfg(cfg)
        labeled = CreditLabeledITC(itc=itc)
        seg = columnar_scan(encoder.output.snapshot())
        ips, sigs = seg.ip_column(), seg.sig_column()
        labeled.observe_trace(zip(ips, map(unpack_tnt_sig, sigs)))
        index = FlowSearchIndex(labeled)
        # Replaying the same trace must be all high-credit hits.
        result = index.check_batch(ips, sigs)
        assert result.checked == len(ips) - 1
        assert result.violation is None
        assert result.low_credit == []

    def test_aia_ordering_matches_table4_shape(self):
        """AIA(ITC w/o TNT) >= AIA(O-CFG) >= AIA(FlowGuard-trained)."""
        prog = branchy_program()
        image, encoder = self.trace_program(prog)
        cfg = build_ocfg(image)
        itc = build_itccfg(cfg)
        from repro.analysis import aia_fine

        ocfg_aia = aia_ocfg(cfg)
        itc_aia = aia_itc(itc)
        fine = aia_fine(cfg)
        assert itc_aia >= 0
        assert fine <= ocfg_aia
        fg = flowguard_aia(1.0, fine, itc_aia)
        assert fg <= ocfg_aia
