"""A SPECCPU-2006-like suite: 12 C-benchmark analogues (Figure 5c, §2).

Each program reproduces the *branch personality* that drives the
paper's per-benchmark results — most importantly h264ref, whose core is
"a loop with many indirect calls" generating far more trace than the
others, and lbm/milc, almost branch-free arithmetic kernels that trace
nearly nothing.

All programs are CPU-bound: a data-seeded kernel loop, one final write
of the result, exit.  ``build_spec_program(name, scale)`` controls the
iteration count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.binary.module import Module
from repro.workloads.libsim import libsim_program
from repro.lang import (
    AddrOf,
    Assign,
    BinOp,
    Call,
    CallPtr,
    Const,
    Func,
    Global,
    If,
    Let,
    Load,
    LocalArray,
    Program,
    Rel,
    Return,
    Switch,
    Var,
    While,
)

_LIB_IMPORTS = ["exit", "write", "utoa", "checksum", "memcpy", "malloc"]


def _seed_bytes(n: int, seed: int = 7) -> bytes:
    value = seed
    out = bytearray()
    for _ in range(n):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(value & 0xFF)
    return bytes(out)


def _report_and_exit(result_var: str) -> List:
    """Write the result digits to stdout, then return it."""
    return [
        LocalArray("outbuf", 32),
        Let("outn", Call("utoa", [Var(result_var), AddrOf("outbuf")])),
        Call("write", [Const(1), AddrOf("outbuf"), Var("outn")]),
        Return(Var(result_var)),
    ]


def _loop(var: str, count, body: List) -> List:
    """for var in range(count): body"""
    bound = count if isinstance(count, (Const, Var, BinOp)) else Const(count)
    return [
        Let(var, Const(0)),
        While(
            Rel("<", Var(var), bound),
            body + [Assign(var, BinOp("+", Var(var), Const(1)))],
        ),
    ]


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def _perlbench(prog: Program, scale: int) -> None:
    """Bytecode-interpreter loop: switch-heavy, data-driven branching."""
    ops = _seed_bytes(256, seed=3)
    prog.add_data("bytecode", bytes(b % 5 for b in ops))
    prog.add_func(
        Func(
            "interp",
            ["rounds"],
            [
                Let("acc", Const(1)),
                Let("pc", Const(0)),
                Let("op", Const(0)),
                Let("steps", BinOp("*", Var("rounds"), Const(256))),
                Let("i", Const(0)),
                While(
                    Rel("<", Var("i"), Var("steps")),
                    [
                        Assign("op", Load(
                            BinOp("+", Global("bytecode"),
                                  BinOp("%", Var("pc"), Const(256))),
                            byte=True)),
                        Switch(
                            Var("op"),
                            {
                                0: [Assign("acc", BinOp("+", Var("acc"),
                                                        Const(3)))],
                                1: [Assign("acc", BinOp("*", Var("acc"),
                                                        Const(2)))],
                                2: [Assign("acc", BinOp("^", Var("acc"),
                                                        Var("pc")))],
                                3: [Assign("acc", BinOp(">>", Var("acc"),
                                                        Const(1)))],
                                4: [
                                    If(Rel(">", Var("acc"), Const(1000)),
                                       [Assign("acc", Const(1))])
                                ],
                            },
                            default=[],
                        ),
                        Assign("acc", BinOp("&", Var("acc"),
                                            Const(0xFFFFFF))),
                        Assign("pc", BinOp("+", Var("pc"), Const(1))),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("acc")),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("interp", [Const(scale)]))]
             + _report_and_exit("r"))
    )


def _bzip2(prog: Program, scale: int) -> None:
    """Run-length/transform loops over a block: conditional-heavy."""
    prog.add_data("block", _seed_bytes(512, seed=11))
    prog.add_func(
        Func(
            "compress_pass",
            ["rounds"],
            [
                Let("matches", Const(0)),
                Let("prev", Const(0)),
                Let("cur", Const(0)),
                Let("r", Const(0)),
                While(
                    Rel("<", Var("r"), Var("rounds")),
                    [
                        Let("i", Const(0)),
                        While(
                            Rel("<", Var("i"), Const(512)),
                            [
                                Assign("cur", Load(
                                    BinOp("+", Global("block"), Var("i")),
                                    byte=True)),
                                If(
                                    Rel("==", Var("cur"), Var("prev")),
                                    [Assign("matches",
                                            BinOp("+", Var("matches"),
                                                  Const(1)))],
                                    [
                                        If(
                                            Rel(">", Var("cur"),
                                                Const(128)),
                                            [Assign("matches",
                                                    BinOp("+",
                                                          Var("matches"),
                                                          Const(0)))],
                                        )
                                    ],
                                ),
                                Assign("prev", Var("cur")),
                                Assign("i", BinOp("+", Var("i"),
                                                  Const(1))),
                            ],
                        ),
                        Assign("r", BinOp("+", Var("r"), Const(1))),
                    ],
                ),
                Return(Var("matches")),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("compress_pass", [Const(scale * 4)]))]
             + _report_and_exit("r"))
    )


def _gcc(prog: Program, scale: int) -> None:
    """Recursive tree walk + switch: call/return heavy."""
    prog.add_data("tree", _seed_bytes(128, seed=17))
    prog.add_func(
        Func(
            "eval_node",
            ["index", "depth"],
            [
                If(Rel("<=", Var("depth"), Const(0)),
                   [Return(Const(1))]),
                Let("kind", BinOp("%", Load(
                    BinOp("+", Global("tree"),
                          BinOp("%", Var("index"), Const(128))),
                    byte=True), Const(3))),
                Let("left", Call("eval_node",
                                 [BinOp("*", Var("index"), Const(2)),
                                  BinOp("-", Var("depth"), Const(1))])),
                Let("right", Call("eval_node",
                                  [BinOp("+",
                                         BinOp("*", Var("index"),
                                               Const(2)), Const(1)),
                                   BinOp("-", Var("depth"), Const(1))])),
                Switch(
                    Var("kind"),
                    {
                        0: [Return(BinOp("+", Var("left"), Var("right")))],
                        1: [Return(BinOp("^", Var("left"), Var("right")))],
                        2: [Return(BinOp("&",
                                         BinOp("*", Var("left"),
                                               Const(3)),
                                         Const(0xFFFF)))],
                    },
                    default=[Return(Var("left"))],
                ),
            ],
        )
    )
    prog.add_func(
        Func(
            "main", [],
            _loop("round", Const(scale * 2),
                  [Let("r", Call("eval_node", [Const(1), Const(8)]))])
            + [Assign("r", BinOp("&", Var("r"), Const(0xFFFF)))]
            + _report_and_exit("r"),
        )
    )


def _mcf(prog: Program, scale: int) -> None:
    """Pointer-chasing over an in-data linked structure: load-bound."""
    # 128 nodes of 8 bytes each: a permutation cycle.
    import struct

    nodes = list(range(128))
    order = nodes[1:] + nodes[:1]
    table = b"".join(struct.pack("<Q", order[i]) for i in range(128))
    prog.add_data("links", table)
    prog.add_func(
        Func(
            "chase",
            ["steps"],
            [
                Let("node", Const(0)),
                Let("hops", Const(0)),
                Let("i", Const(0)),
                While(
                    Rel("<", Var("i"), Var("steps")),
                    [
                        Assign("node", Load(
                            BinOp("+", Global("links"),
                                  BinOp("*", Var("node"), Const(8))))),
                        Assign("hops", BinOp("+", Var("hops"), Const(1))),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(BinOp("+", Var("node"), Var("hops"))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("chase", [Const(scale * 2000)]))]
             + _report_and_exit("r"))
    )


def _milc(prog: Program, scale: int) -> None:
    """Lattice arithmetic: long multiply/add runs, few branches."""
    prog.add_func(
        Func(
            "su3_mult",
            ["rounds"],
            [
                Let("acc", Const(1)),
                Let("x", Const(1103515245)),
                Let("i", Const(0)),
                Let("total", BinOp("*", Var("rounds"), Const(512))),
                While(
                    Rel("<", Var("i"), Var("total")),
                    [
                        Assign("x", BinOp("&",
                                          BinOp("+",
                                                BinOp("*", Var("x"),
                                                      Const(75)),
                                                Const(74)),
                                          Const(0xFFFFFFF))),
                        Assign("acc", BinOp("&",
                                            BinOp("+", Var("acc"),
                                                  BinOp("*", Var("x"),
                                                        Const(3))),
                                            Const(0xFFFFFFF))),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(BinOp("&", Var("acc"), Const(0xFFFF))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("su3_mult", [Const(scale * 2)]))]
             + _report_and_exit("r"))
    )


def _gobmk(prog: Program, scale: int) -> None:
    """Depth-limited game search: recursion + dense conditionals."""
    prog.add_data("board", _seed_bytes(64, seed=23))
    prog.add_func(
        Func(
            "evaluate",
            ["pos"],
            [
                Let("v", Load(BinOp("+", Global("board"),
                                    BinOp("%", Var("pos"), Const(64))),
                              byte=True)),
                If(Rel(">", Var("v"), Const(200)), [Return(Const(9))]),
                If(Rel(">", Var("v"), Const(128)), [Return(Const(3))]),
                If(Rel(">", Var("v"), Const(64)), [Return(Const(1))]),
                Return(Const(0)),
            ],
        )
    )
    prog.add_func(
        Func(
            "search",
            ["pos", "depth"],
            [
                If(Rel("<=", Var("depth"), Const(0)),
                   [Return(Call("evaluate", [Var("pos")]))]),
                Let("best", Const(0)),
                Let("move", Const(0)),
                While(
                    Rel("<", Var("move"), Const(3)),
                    [
                        Let("score",
                            Call("search",
                                 [BinOp("+",
                                        BinOp("*", Var("pos"), Const(3)),
                                        Var("move")),
                                  BinOp("-", Var("depth"), Const(1))])),
                        If(Rel(">", Var("score"), Var("best")),
                           [Assign("best", Var("score"))]),
                        Assign("move", BinOp("+", Var("move"), Const(1))),
                    ],
                ),
                Return(Var("best")),
            ],
        )
    )
    prog.add_func(
        Func(
            "main", [],
            _loop("round", Const(scale),
                  [Let("r", Call("search", [Const(1), Const(7)]))])
            + _report_and_exit("r"),
        )
    )


def _hmmer(prog: Program, scale: int) -> None:
    """Profile-HMM style dynamic programming: max-compare loops."""
    prog.add_data("seq", _seed_bytes(256, seed=29))
    prog.add_func(
        Func(
            "viterbi_pass",
            ["rounds"],
            [
                Let("m", Const(0)),
                Let("d", Const(0)),
                Let("best", Const(0)),
                Let("r", Const(0)),
                While(
                    Rel("<", Var("r"), Var("rounds")),
                    [
                        Let("i", Const(0)),
                        While(
                            Rel("<", Var("i"), Const(256)),
                            [
                                Let("e", Load(BinOp("+", Global("seq"),
                                                    Var("i")), byte=True)),
                                Assign("m", BinOp("+", Var("m"), Var("e"))),
                                Assign("d", BinOp("+", Var("d"), Const(7))),
                                If(Rel(">", Var("d"), Var("m")),
                                   [Assign("m", Var("d"))]),
                                If(Rel(">", Var("m"), Var("best")),
                                   [Assign("best", Var("m"))]),
                                Assign("m", BinOp("%", Var("m"),
                                                  Const(65521))),
                                Assign("i", BinOp("+", Var("i"),
                                                  Const(1))),
                            ],
                        ),
                        Assign("r", BinOp("+", Var("r"), Const(1))),
                    ],
                ),
                Return(BinOp("&", Var("best"), Const(0xFFFF))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("viterbi_pass", [Const(scale * 3)]))]
             + _report_and_exit("r"))
    )


def _sjeng(prog: Program, scale: int) -> None:
    """Chess-engine style: recursion + switch over move kinds."""
    prog.add_data("moves", bytes(b % 4 for b in _seed_bytes(128, seed=31)))
    prog.add_func(
        Func(
            "negamax",
            ["pos", "depth"],
            [
                If(
                    Rel("<=", Var("depth"), Const(0)),
                    [
                        # Leaf evaluation: a burst of scoring arithmetic
                        # per node (piece-square sums), keeping sjeng
                        # compute-bound between control transfers.
                        Let("score", Var("pos")),
                        Let("k", Const(0)),
                        While(
                            Rel("<", Var("k"), Const(24)),
                            [
                                Assign("score",
                                       BinOp("&",
                                             BinOp("+",
                                                   BinOp("*", Var("score"),
                                                         Const(13)),
                                                   Var("k")),
                                             Const(0xFFFF))),
                                Assign("k", BinOp("+", Var("k"),
                                                  Const(1))),
                            ],
                        ),
                        Return(BinOp("%", Var("score"), Const(64))),
                    ],
                ),
                Let("kind", Load(BinOp("+", Global("moves"),
                                       BinOp("%", Var("pos"), Const(128))),
                                 byte=True)),
                Let("sub", Call("negamax",
                                [BinOp("+",
                                       BinOp("*", Var("pos"), Const(2)),
                                       Const(1)),
                                 BinOp("-", Var("depth"), Const(1))])),
                Switch(
                    Var("kind"),
                    {
                        0: [Return(BinOp("+", Var("sub"), Const(1)))],
                        1: [Return(BinOp("-", Const(64), Var("sub")))],
                        2: [Return(BinOp("^", Var("sub"), Const(21)))],
                        3: [Return(BinOp(">>", Var("sub"), Const(1)))],
                    },
                    default=[Return(Var("sub"))],
                ),
            ],
        )
    )
    prog.add_func(
        Func(
            "main", [],
            _loop("round", Const(scale * 8),
                  [Let("r", Call("negamax", [Const(3), Const(9)]))])
            + _report_and_exit("r"),
        )
    )


def _libquantum(prog: Program, scale: int) -> None:
    """Quantum-register bit manipulation: shift/xor loops."""
    prog.add_func(
        Func(
            "toffoli_pass",
            ["rounds"],
            [
                Let("reg", Const(0x12345)),
                Let("i", Const(0)),
                Let("total", BinOp("*", Var("rounds"), Const(1024))),
                While(
                    Rel("<", Var("i"), Var("total")),
                    [
                        Assign("reg", BinOp("^", Var("reg"),
                                            BinOp("<<", Var("reg"),
                                                  Const(3)))),
                        Assign("reg", BinOp("&", Var("reg"),
                                            Const(0xFFFFFF))),
                        If(
                            Rel("==", BinOp("&", Var("reg"), Const(1)),
                                Const(1)),
                            [Assign("reg", BinOp(">>", Var("reg"),
                                                 Const(1)))],
                        ),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(BinOp("&", Var("reg"), Const(0xFFFF))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("toffoli_pass", [Const(scale)]))]
             + _report_and_exit("r"))
    )


def _h264ref(prog: Program, scale: int) -> None:
    """The outlier: a macroblock loop with *many indirect calls* — the
    prediction-mode dispatch runs through a function-pointer table on
    every iteration, generating far more TIP traffic than any other
    benchmark (~90% more trace at runtime, §7.2.1)."""
    prog.add_data("mb_modes", bytes(b % 4 for b in _seed_bytes(256, seed=37)))
    for mode, op in enumerate(["+", "^", "*", "-"]):
        prog.add_func(
            Func(
                f"predict_mode{mode}",
                ["px"],
                [Return(BinOp("&", BinOp(op, Var("px"),
                                         Const(mode + 3)),
                              Const(0xFFFF)))],
            )
        )
    prog.add_pointer_table(
        "predictors",
        [f"predict_mode{mode}" for mode in range(4)],
    )
    prog.add_func(
        Func(
            "encode_frame",
            ["rounds"],
            [
                Let("px", Const(7)),
                Let("r", Const(0)),
                While(
                    Rel("<", Var("r"), Var("rounds")),
                    [
                        Let("mb", Const(0)),
                        While(
                            Rel("<", Var("mb"), Const(256)),
                            [
                                Let("mode", Load(
                                    BinOp("+", Global("mb_modes"),
                                          Var("mb")), byte=True)),
                                Let("fp", Load(
                                    BinOp("+", Global("predictors"),
                                          BinOp("*", Var("mode"),
                                                Const(8))))),
                                # Indirect call on every macroblock.
                                Assign("px", CallPtr(Var("fp"),
                                                     [Var("px")])),
                                Assign("mb", BinOp("+", Var("mb"),
                                                   Const(1))),
                            ],
                        ),
                        Assign("r", BinOp("+", Var("r"), Const(1))),
                    ],
                ),
                Return(Var("px")),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("encode_frame", [Const(scale * 3)]))]
             + _report_and_exit("r"))
    )


def _lbm(prog: Program, scale: int) -> None:
    """Lattice-Boltzmann stencil: almost branch-free arithmetic."""
    prog.add_func(
        Func(
            "stream_collide",
            ["rounds"],
            [
                Let("a", Const(3)),
                Let("b", Const(5)),
                Let("c", Const(7)),
                Let("i", Const(0)),
                Let("total", BinOp("*", Var("rounds"), Const(1024))),
                While(
                    Rel("<", Var("i"), Var("total")),
                    [
                        Assign("a", BinOp("&", BinOp("+",
                                                     BinOp("*", Var("a"),
                                                           Const(3)),
                                                     Var("b")),
                                          Const(0xFFFFF))),
                        Assign("b", BinOp("&", BinOp("+",
                                                     BinOp("*", Var("b"),
                                                           Const(5)),
                                                     Var("c")),
                                          Const(0xFFFFF))),
                        Assign("c", BinOp("&", BinOp("+",
                                                     BinOp("*", Var("c"),
                                                           Const(7)),
                                                     Var("a")),
                                          Const(0xFFFFF))),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(BinOp("&", BinOp("+", Var("a"),
                                        BinOp("+", Var("b"), Var("c"))),
                             Const(0xFFFF))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("stream_collide", [Const(scale)]))]
             + _report_and_exit("r"))
    )


def _sphinx3(prog: Program, scale: int) -> None:
    """Speech decoding: arithmetic scoring plus a moderate rate of
    indirect calls (senone scoring dispatch)."""
    prog.add_data("frames", _seed_bytes(128, seed=41))
    prog.add_func(
        Func("score_a", ["x"],
             [Return(BinOp("&", BinOp("*", Var("x"), Const(5)),
                           Const(0xFFFF)))])
    )
    prog.add_func(
        Func("score_b", ["x"],
             [Return(BinOp("&", BinOp("+", Var("x"), Const(77)),
                           Const(0xFFFF)))])
    )
    prog.add_pointer_table("scorers", ["score_a", "score_b"])
    prog.add_func(
        Func(
            "decode",
            ["rounds"],
            [
                Let("acc", Const(1)),
                Let("r", Const(0)),
                While(
                    Rel("<", Var("r"), Var("rounds")),
                    [
                        Let("i", Const(0)),
                        While(
                            Rel("<", Var("i"), Const(128)),
                            [
                                Let("f", Load(BinOp("+", Global("frames"),
                                                    Var("i")), byte=True)),
                                Assign("acc", BinOp("&",
                                                    BinOp("+",
                                                          BinOp("*",
                                                                Var("acc"),
                                                                Const(31)),
                                                          Var("f")),
                                                    Const(0xFFFFFF))),
                                # Every 8th frame goes through the
                                # scorer dispatch.
                                If(
                                    Rel("==", BinOp("%", Var("i"),
                                                    Const(8)), Const(0)),
                                    [
                                        Let("fp", Load(
                                            BinOp("+", Global("scorers"),
                                                  BinOp("*",
                                                        BinOp("&",
                                                              Var("f"),
                                                              Const(1)),
                                                        Const(8))))),
                                        Assign("acc",
                                               CallPtr(Var("fp"),
                                                       [Var("acc")])),
                                    ],
                                ),
                                Assign("i", BinOp("+", Var("i"),
                                                  Const(1))),
                            ],
                        ),
                        Assign("r", BinOp("+", Var("r"), Const(1))),
                    ],
                ),
                Return(BinOp("&", Var("acc"), Const(0xFFFF))),
            ],
        )
    )
    prog.add_func(
        Func("main", [],
             [Let("r", Call("decode", [Const(scale * 4)]))]
             + _report_and_exit("r"))
    )


_GENERATORS: Dict[str, Callable[[Program, int], None]] = {
    "perlbench": _perlbench,
    "bzip2": _bzip2,
    "gcc": _gcc,
    "mcf": _mcf,
    "milc": _milc,
    "gobmk": _gobmk,
    "hmmer": _hmmer,
    "sjeng": _sjeng,
    "libquantum": _libquantum,
    "h264ref": _h264ref,
    "lbm": _lbm,
    "sphinx3": _sphinx3,
}

SPEC_NAMES = tuple(_GENERATORS)


@lru_cache(maxsize=None)
def build_spec_program(name: str, scale: int = 1) -> Module:
    """Build one suite member at the given iteration scale."""
    generator = _GENERATORS.get(name)
    if generator is None:
        raise KeyError(f"unknown SPEC-like benchmark: {name}")
    prog = libsim_program(name, _LIB_IMPORTS)
    generator(prog, scale)
    prog.set_entry("main")
    return prog.build()


SPEC_BUILDERS: Dict[str, Callable[[], Module]] = {
    name: (lambda n=name: build_spec_program(n)) for name in SPEC_NAMES
}
