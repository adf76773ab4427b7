"""Linux-utility workloads (§7.2.1, Figure 5b).

Run-once-and-exit programs: tar / dd / make / scp analogues, plus the
launcher used in the paper's experiment — a parent that forks, has the
child call ``ptrace(PTRACE_TRACEME)`` and ``execve`` the utility, so
the monitor can read the child's fresh CR3 at the exec stop and attach
CR3-filtered tracing before the utility runs.

The utilities take their inputs from fixed VFS paths (argv passing is
outside the kernel model); drivers seed the filesystem first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

from repro.binary.module import Module
from repro.workloads.libsim import libsim_program
from repro.lang import (
    AddrOf,
    Assign,
    BinOp,
    Break,
    Call,
    CallPtr,
    Const,
    Func,
    Global,
    If,
    Let,
    Load,
    LocalArray,
    Rel,
    Return,
    Store,
    Var,
    While,
)
from repro.osmodel.syscalls import O_CREAT, O_WRONLY, PTRACE_TRACEME

_LIB_IMPORTS = [
    "exit", "read", "write", "open", "close", "strlen", "strncmp",
    "memcpy", "memset", "atoi", "utoa", "read_line", "checksum",
    "fork", "wait", "ptrace", "execve", "unlink", "write_str",
]


#: Input/output paths the utilities operate on.
TAR_INPUTS = ("/in/a.txt", "/in/b.txt", "/in/c.txt")
TAR_OUTPUT = "/out/archive.tar"
DD_INPUT = "/in/data.bin"
DD_OUTPUT = "/out/data.img"
MAKE_INPUT = "/in/Makefile"
MAKE_OUTPUT = "/out/build.log"
SCP_INPUT = "/in/payload.bin"
SCP_OUTPUT = "/out/payload.copy"


@lru_cache(maxsize=None)
def build_tar() -> Module:
    """Concatenate the input files with 16-byte size headers."""
    prog = libsim_program("tar", _LIB_IMPORTS)
    for index, path in enumerate(TAR_INPUTS):
        prog.add_string(f"in{index}", path)
    prog.add_string("outpath", TAR_OUTPUT)

    prog.add_func(
        Func(
            "append_file",
            ["out", "path"],
            [
                Let("fd", Call("open", [Var("path"), Const(0)])),
                If(Rel("<", Var("fd"), Const(0)), [Return(Const(-1))]),
                LocalArray("header", 16),
                LocalArray("chunk", 1024),
                Let("total", Const(0)),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("read", [Var("fd"),
                                                  AddrOf("chunk"),
                                                  Const(1024)])),
                        If(
                            Rel(">", Var("n"), Const(0)),
                            [
                                Call("write", [Var("out"), AddrOf("chunk"),
                                               Var("n")]),
                                Assign("total", BinOp("+", Var("total"),
                                                      Var("n"))),
                            ],
                        ),
                    ],
                ),
                Call("close", [Var("fd")]),
                Let("hn", Call("utoa", [Var("total"), AddrOf("header")])),
                Store(BinOp("+", AddrOf("header"), Var("hn")), Const(10),
                      byte=True),
                Call("write", [Var("out"), AddrOf("header"),
                               BinOp("+", Var("hn"), Const(1))]),
                Return(Var("total")),
            ],
        )
    )

    body = [
        Let("out", Call("open", [Global("outpath"),
                                 Const(O_CREAT | O_WRONLY)])),
        If(Rel("<", Var("out"), Const(0)), [Return(Const(1))]),
        Let("total", Const(0)),
    ]
    for index in range(len(TAR_INPUTS)):
        body.append(
            Assign(
                "total",
                BinOp("+", Var("total"),
                      Call("append_file", [Var("out"),
                                           Global(f"in{index}")])),
            )
        )
    body.extend([Call("close", [Var("out")]), Return(Const(0))])
    prog.add_func(Func("main", [], body))
    prog.set_entry("main")
    return prog.build()


@lru_cache(maxsize=None)
def build_dd() -> Module:
    """Block copy: small branch count, few syscalls per block (the
    near-zero-overhead point of Figure 5b)."""
    prog = libsim_program("dd", _LIB_IMPORTS)
    prog.add_string("inpath", DD_INPUT)
    prog.add_string("outpath", DD_OUTPUT)
    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("src", Call("open", [Global("inpath"), Const(0)])),
                If(Rel("<", Var("src"), Const(0)), [Return(Const(1))]),
                Let("dst", Call("open", [Global("outpath"),
                                         Const(O_CREAT | O_WRONLY)])),
                LocalArray("block", 4096),
                Let("blocks", Const(0)),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("read", [Var("src"),
                                                  AddrOf("block"),
                                                  Const(4096)])),
                        If(
                            Rel(">", Var("n"), Const(0)),
                            [
                                Call("write", [Var("dst"), AddrOf("block"),
                                               Var("n")]),
                                Assign("blocks", BinOp("+", Var("blocks"),
                                                       Const(1))),
                            ],
                        ),
                    ],
                ),
                Call("close", [Var("src")]),
                Call("close", [Var("dst")]),
                Return(Const(0)),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


@lru_cache(maxsize=None)
def build_make() -> Module:
    """Parse a rule file; dispatch each rule through a handler table."""
    prog = libsim_program("make", _LIB_IMPORTS)
    prog.add_string("inpath", MAKE_INPUT)
    prog.add_string("outpath", MAKE_OUTPUT)
    prog.add_string("t_compile", "compile")
    prog.add_string("t_link", "link")
    prog.add_string("msg_cc", "CC  ")
    prog.add_string("msg_ld", "LD  ")
    prog.add_string("msg_skip", "??  ")

    prog.add_func(
        Func(
            "emit",
            ["log", "tag", "line"],
            [
                Call("write", [Var("log"), Var("tag"),
                               Call("strlen", [Var("tag")])]),
                Call("write", [Var("log"), Var("line"),
                               Call("strlen", [Var("line")])]),
                Return(Const(0)),
            ],
        )
    )
    prog.add_func(
        Func(
            "rule_compile",
            ["log", "line"],
            [Return(Call("emit", [Var("log"), Global("msg_cc"),
                                  Var("line")]))],
        )
    )
    prog.add_func(
        Func(
            "rule_link",
            ["log", "line"],
            [Return(Call("emit", [Var("log"), Global("msg_ld"),
                                  Var("line")]))],
        )
    )
    prog.add_pointer_table("rules", ["rule_compile", "rule_link"])

    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("src", Call("open", [Global("inpath"), Const(0)])),
                If(Rel("<", Var("src"), Const(0)), [Return(Const(1))]),
                Let("log", Call("open", [Global("outpath"),
                                         Const(O_CREAT | O_WRONLY)])),
                LocalArray("line", 128),
                Let("n", Const(0)),
                Let("idx", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("n", Call("read_line",
                                         [Var("src"), AddrOf("line"),
                                          Const(128)])),
                        If(Rel("<=", Var("n"), Const(0)), [Break()]),
                        Assign("idx", Const(-1)),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("t_compile"),
                                            Const(7)]), Const(0)),
                            [Assign("idx", Const(0))],
                        ),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("t_link"),
                                            Const(4)]), Const(0)),
                            [Assign("idx", Const(1))],
                        ),
                        If(
                            Rel(">=", Var("idx"), Const(0)),
                            [
                                Let("fp",
                                    Load(BinOp("+", Global("rules"),
                                               BinOp("*", Var("idx"),
                                                     Const(8))))),
                                CallPtr(Var("fp"),
                                        [Var("log"), AddrOf("line")]),
                            ],
                            [Call("emit", [Var("log"), Global("msg_skip"),
                                           AddrOf("line")])],
                        ),
                    ],
                ),
                Call("close", [Var("src")]),
                Call("close", [Var("log")]),
                Return(Const(0)),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


@lru_cache(maxsize=None)
def build_scp() -> Module:
    """Copy with checksum verification (cond-heavy inner loop)."""
    prog = libsim_program("scp", _LIB_IMPORTS)
    prog.add_string("inpath", SCP_INPUT)
    prog.add_string("outpath", SCP_OUTPUT)
    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("src", Call("open", [Global("inpath"), Const(0)])),
                If(Rel("<", Var("src"), Const(0)), [Return(Const(1))]),
                Let("dst", Call("open", [Global("outpath"),
                                         Const(O_CREAT | O_WRONLY)])),
                LocalArray("block", 256),
                Let("acc", Const(0)),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("read", [Var("src"),
                                                  AddrOf("block"),
                                                  Const(256)])),
                        If(
                            Rel(">", Var("n"), Const(0)),
                            [
                                Assign(
                                    "acc",
                                    BinOp("^", Var("acc"),
                                          Call("checksum",
                                               [AddrOf("block"),
                                                Var("n")])),
                                ),
                                Call("write", [Var("dst"), AddrOf("block"),
                                               Var("n")]),
                            ],
                        ),
                    ],
                ),
                Call("close", [Var("src")]),
                Call("close", [Var("dst")]),
                Return(BinOp("&", Var("acc"), Const(0x7F))),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


@lru_cache(maxsize=None)
def build_launcher(utility: str) -> Module:
    """The Figure 5b harness: fork; child PTRACE_TRACEME + execve."""
    prog = libsim_program(f"launch-{utility}", _LIB_IMPORTS)
    prog.add_string("target", utility)
    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("pid", Call("fork", [])),
                If(
                    Rel("==", Var("pid"), Const(0)),
                    [
                        # Child: request tracing so the parent (and the
                        # monitor) observe the post-exec CR3, then exec.
                        Call("ptrace", [Const(PTRACE_TRACEME)]),
                        Call("execve", [Global("target")]),
                        Return(Const(127)),  # exec failed
                    ],
                ),
                Return(Call("wait", [])),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


UTILITY_BUILDERS: Dict[str, Callable[[], Module]] = {
    "tar": build_tar,
    "dd": build_dd,
    "make": build_make,
    "scp": build_scp,
}


def seed_utility_inputs(fs) -> None:
    """Populate the VFS inputs the utilities expect."""
    size = 16384
    payload = bytes((i * 37 + 11) & 0xFF for i in range(size))
    for path in TAR_INPUTS:
        fs.create(path, payload[: size // 4])
    fs.create(DD_INPUT, payload)
    fs.create(
        MAKE_INPUT,
        b"compile main.c\ncompile util.c\nlink app\nnote done\n",
    )
    fs.create(SCP_INPUT, payload[: size // 2])
