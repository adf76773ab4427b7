"""Tests for O-CFG construction and AIA metrics."""

import pytest

from repro.analysis import (
    CFGBuilder,
    ControlFlowGraph,
    Edge,
    EdgeKind,
    aia_fine,
    aia_ocfg,
    build_ocfg,
)
from repro.analysis.cfg import BasicBlock
from repro.binary import Loader, ModuleBuilder
from repro.isa import A, Cond, Label
from repro.isa.registers import R0, R1, R2
from repro.lang import (
    Call,
    CallPtr,
    Const,
    Func,
    FuncRef,
    Let,
    Program,
    Return,
    Switch,
    Var,
)


def _label(lm, name):
    """Absolute address of any code label of a loaded module."""
    return lm.base + lm.module.local_symbols[name]


def load_lang(prog, libraries=None, vdso=None):
    return Loader(libraries or {}, vdso=vdso).load(prog.build())


def simple_program():
    prog = Program("app")
    prog.add_func(Func("leaf", ["n"], [Return(Var("n"))]))
    prog.add_func(
        Func("main", [], [Return(Call("leaf", [Const(1)]))])
    )
    prog.set_entry("main")
    return prog


class TestBlockDiscovery:
    def test_blocks_cover_functions(self):
        image = load_lang(simple_program())
        cfg = build_ocfg(image)
        exe = image.executable
        for name, (start, end) in exe.module.function_ranges.items():
            entry_block = cfg.blocks.get(exe.base + start)
            assert entry_block is not None, f"no entry block for {name}"

    def test_block_at_lookup(self):
        image = load_lang(simple_program())
        cfg = build_ocfg(image)
        some_block = next(iter(cfg.blocks.values()))
        mid = (some_block.start + some_block.end - 1) // 2 + 1
        found = cfg.block_at(some_block.start)
        assert found is some_block
        assert cfg.block_at(0xDEADBEEF000) is None

    def test_call_splits_block(self):
        image = load_lang(simple_program())
        cfg = build_ocfg(image)
        exe = image.executable
        call_edges = [
            e for e in cfg.edges if e.kind is EdgeKind.DIRECT_CALL
        ]
        assert call_edges
        leaf_entry = _label(exe, "leaf")
        assert any(e.dst == leaf_entry for e in call_edges)


class TestReturnMatching:
    def test_ret_targets_are_return_sites(self):
        image = load_lang(simple_program())
        cfg = build_ocfg(image)
        ret_edges = [e for e in cfg.edges if e.kind is EdgeKind.RET]
        assert ret_edges
        # leaf's ret must go to the block right after main's call site.
        exe = image.executable
        leaf_block = cfg.block_at(_label(exe, "leaf"))
        leaf_rets = [e for e in ret_edges
                     if cfg.block_at(e.branch_addr).function == "leaf"]
        assert leaf_rets
        for edge in leaf_rets:
            target_fn = cfg.blocks[edge.dst].function
            assert target_fn in ("main", "_start")

    def test_uncalled_function_ret_has_no_targets(self):
        prog = Program("app")
        prog.add_func(Func("orphan", [], [Return(Const(0))]))
        prog.add_func(Func("main", [], [Return(Const(0))]))
        prog.set_entry("main")
        cfg = build_ocfg(load_lang(prog))
        ret_by_fn = {}
        for branch, targets in cfg.indirect_targets.items():
            block = cfg.block_at(branch)
            ret_by_fn.setdefault(block.function, set()).update(targets)
        # orphan is exported (address-taken), so indirect calls *could*
        # reach it: its ret targets are the indirect call sites' return
        # blocks, if any exist; here there are no indirect calls at all.
        assert ret_by_fn.get("orphan", set()) == set()


class TestPLTAndInterModule:
    def make_app_with_lib(self):
        lib = Program("libx.so")
        lib.add_func(Func("libfn", ["n"], [Return(Var("n"))]))
        app = Program("app")
        app.import_symbol("libfn")
        app.add_needed("libx.so")
        app.add_func(Func("main", [], [Return(Call("libfn", [Const(2)]))]))
        app.set_entry("main")
        return app, {"libx.so": lib.build()}

    def test_plt_stub_has_single_indirect_target(self):
        app, libs = self.make_app_with_lib()
        image = load_lang(app, libs)
        cfg = build_ocfg(image)
        lib = image.by_name("libx.so")
        libfn_entry = lib.addr_of("libfn")
        plt_jmp_edges = [
            e for e in cfg.edges
            if e.kind is EdgeKind.INDIRECT_JMP and e.dst == libfn_entry
        ]
        assert len(plt_jmp_edges) == 1
        src_block = cfg.blocks[plt_jmp_edges[0].src]
        assert src_block.function == "libfn@plt"

    def test_cross_module_return_edge(self):
        """libfn's ret must target the executable's return site —
        the tail-call closure through the PLT stub."""
        app, libs = self.make_app_with_lib()
        image = load_lang(app, libs)
        cfg = build_ocfg(image)
        ret_edges = [
            e for e in cfg.edges
            if e.kind is EdgeKind.RET
            and cfg.block_at(e.branch_addr).function == "libfn"
        ]
        assert ret_edges
        assert any(
            cfg.blocks[e.dst].module == "app" for e in ret_edges
        )

    def test_vdso_blocks_included(self):
        vdso = ModuleBuilder("vdso")
        vdso.add_function("gettimeofday", [A.mov(R0, 0), A.ret()])
        app = Program("app")
        app.import_symbol("gettimeofday")
        app.add_func(
            Func("main", [], [Return(Call("gettimeofday", []))])
        )
        app.set_entry("main")
        image = load_lang(app, {}, vdso=vdso.build())
        cfg = build_ocfg(image)
        assert any(b.module == "vdso" for b in cfg.blocks.values())


class TestTypeArmor:
    def test_arity_detection(self):
        prog = Program("app")
        prog.add_func(Func("zero", [], [Return(Const(1))]))
        prog.add_func(Func("two", ["a", "b"],
                           [Return(Var("a"))]))
        prog.add_func(Func("main", [], [Return(Const(0))]))
        prog.set_entry("main")
        cfg = build_ocfg(load_lang(prog))
        assert cfg.function_arity["zero"] == 0
        assert cfg.function_arity["two"] == 2

    def test_indirect_call_targets_respect_arity(self):
        prog = Program("app")
        prog.add_func(Func("takes0", [], [Return(Const(1))]))
        prog.add_func(Func("takes1", ["a"], [Return(Var("a"))]))
        prog.add_func(
            Func("takes3", ["a", "b", "c"], [Return(Var("c"))])
        )
        prog.add_func(
            Func(
                "main",
                [],
                [
                    Let("fp", FuncRef("takes1")),
                    Return(CallPtr(Var("fp"), [Const(9)])),
                ],
            )
        )
        prog.set_entry("main")
        image = load_lang(prog)
        cfg = build_ocfg(image)
        exe = image.executable
        callr_branches = {
            e.branch_addr
            for e in cfg.edges
            if e.kind is EdgeKind.INDIRECT_CALL
            and cfg.block_at(e.branch_addr).function == "main"
        }
        assert len(callr_branches) == 1
        callr_targets = cfg.indirect_targets[callr_branches.pop()]
        # One argument prepared: arity-0 and arity-1 functions allowed,
        # arity-3 excluded.
        assert _label(exe, "takes1") in callr_targets
        assert _label(exe, "takes0") in callr_targets
        assert _label(exe, "takes3") not in callr_targets


class TestSwitchJumpTables:
    def test_switch_targets_bounded_to_function(self):
        prog = Program("app")
        prog.add_func(Func("other", [], [Return(Const(0))]))
        prog.add_func(
            Func(
                "main",
                [],
                [
                    Let("x", Const(2)),
                    Switch(
                        Var("x"),
                        {
                            0: [Return(Const(10))],
                            1: [Return(Const(11))],
                            2: [Return(Const(12))],
                        },
                        default=[Return(Const(-1))],
                    ),
                ],
            )
        )
        prog.set_entry("main")
        image = load_lang(prog)
        cfg = build_ocfg(image)
        jmp_edges = [
            e for e in cfg.edges if e.kind is EdgeKind.INDIRECT_JMP
        ]
        assert jmp_edges
        main_block = cfg.block_at(jmp_edges[0].branch_addr)
        assert main_block.function == "main"
        for edge in jmp_edges:
            assert cfg.blocks[edge.dst].function == "main"


class TestAIAMetrics:
    def test_aia_empty(self):
        assert aia_ocfg(ControlFlowGraph()) == 0.0

    def test_aia_counts_targets_per_branch(self):
        cfg = ControlFlowGraph()
        for start in (0x100, 0x200, 0x300, 0x400):
            cfg.add_block(BasicBlock(start, start + 0x10, "m"))
        cfg.add_edge(Edge(0x100, 0x200, EdgeKind.INDIRECT_CALL, 0x108))
        cfg.add_edge(Edge(0x100, 0x300, EdgeKind.INDIRECT_CALL, 0x108))
        cfg.add_edge(Edge(0x200, 0x400, EdgeKind.RET, 0x208))
        assert aia_ocfg(cfg) == pytest.approx((2 + 1) / 2)

    def test_aia_fine_single_target_returns(self):
        cfg = ControlFlowGraph()
        for start in (0x100, 0x200, 0x300, 0x400):
            cfg.add_block(BasicBlock(start, start + 0x10, "m"))
        cfg.add_edge(Edge(0x100, 0x200, EdgeKind.RET, 0x108))
        cfg.add_edge(Edge(0x100, 0x300, EdgeKind.RET, 0x108))
        cfg.add_edge(Edge(0x100, 0x400, EdgeKind.RET, 0x108))
        # Shadow stack reduces the 3-target return to a single target.
        assert aia_fine(cfg) == 1.0
        assert aia_ocfg(cfg) == 3.0

    def test_stats_split_exec_lib(self):
        cfg = ControlFlowGraph()
        cfg.add_block(BasicBlock(0x100, 0x110, "app"))
        cfg.add_block(BasicBlock(0x200, 0x210, "libc.so"))
        stats = cfg.stats()
        assert stats["exec_blocks"] == 1
        assert stats["lib_blocks"] == 1
