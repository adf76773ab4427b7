"""``libsim.so`` — the shared C library analogue.

Provides syscall wrappers, string/memory routines and a bump allocator.
Like a real libc it is also the attacker's gadget quarry:

- ``strcpy``/``memcpy`` are unbounded (the classic overflow primitives),
- ``setcontext`` restores argument registers from the stack and returns
  — the canonical register-control ROP gadget,
- ``sigreturn`` is a raw ``mov r0, NR; syscall; ret`` trampoline, the
  SROP entry point (its ``syscall; ret`` tail doubles as a
  syscall-anything gadget once registers are controlled).

All applications link against one shared instance, so gadget addresses
are identical across protected programs — as with a system libc.
"""

from __future__ import annotations

from functools import lru_cache

from repro.binary.module import Module
from repro.isa.assembler import A
from repro.isa.registers import R0, R1, R2, R3, R4
from repro.lang import (
    Assign,
    BinOp,
    Break,
    Call,
    Const,
    Func,
    Global,
    If,
    Let,
    Load,
    Program,
    Rel,
    Return,
    Store,
    SyscallExpr,
    Var,
    While,
)
from repro.osmodel.process import HEAP_BASE
from repro.osmodel.syscalls import Sys


def _wrapper(name: str, nr: Sys, params: list) -> Func:
    """A syscall wrapper: ``name(params...) -> syscall(nr, params...)``."""
    return Func(
        name, params,
        [Return(SyscallExpr(int(nr), [Var(p) for p in params]))],
    )


_HEAP_POOL = 1 << 20  # 1 MiB bump-allocator pool


def libsim_program(name: str, imports) -> Program:
    """A new program linked against ``libsim.so``, importing
    ``imports`` from it."""
    prog = Program(name)
    prog.add_needed("libsim.so")
    for symbol in imports:
        prog.import_symbol(symbol)
    return prog


@lru_cache(maxsize=None)
def build_libsim() -> Module:
    """Build (and memoise) the shared library image."""
    lib = Program("libsim.so")

    # -- syscall wrappers -------------------------------------------------
    lib.add_func(_wrapper("exit", Sys.EXIT, ["code"]))
    lib.add_func(_wrapper("read", Sys.READ, ["fd", "buf", "n"]))
    lib.add_func(_wrapper("write", Sys.WRITE, ["fd", "buf", "n"]))
    lib.add_func(_wrapper("open", Sys.OPEN, ["path", "flags"]))
    lib.add_func(_wrapper("close", Sys.CLOSE, ["fd"]))
    lib.add_func(_wrapper("mmap", Sys.MMAP, ["hint", "size", "prot"]))
    lib.add_func(_wrapper("mprotect", Sys.MPROTECT, ["addr", "size", "prot"]))
    lib.add_func(_wrapper("execve", Sys.EXECVE, ["path"]))
    lib.add_func(_wrapper("fork", Sys.FORK, []))
    lib.add_func(_wrapper("wait", Sys.WAIT, []))
    lib.add_func(_wrapper("sigaction", Sys.SIGACTION, ["sig", "handler"]))
    lib.add_func(_wrapper("socket", Sys.SOCKET, []))
    lib.add_func(_wrapper("bind", Sys.BIND, ["fd"]))
    lib.add_func(_wrapper("listen", Sys.LISTEN, ["fd"]))
    lib.add_func(_wrapper("accept", Sys.ACCEPT, ["fd"]))
    lib.add_func(_wrapper("recv", Sys.RECV, ["fd", "buf", "n"]))
    lib.add_func(_wrapper("send", Sys.SEND, ["fd", "buf", "n"]))
    lib.add_func(_wrapper("ptrace", Sys.PTRACE, ["req"]))
    lib.add_func(_wrapper("getpid", Sys.GETPID, []))
    lib.add_func(_wrapper("brk", Sys.BRK, ["addr"]))
    lib.add_func(_wrapper("unlink", Sys.UNLINK, ["path"]))
    lib.add_func(_wrapper("kill", Sys.KILL, ["pid", "sig"]))
    # Fallback for images loaded without a VDSO (the VDSO's definition
    # takes precedence when present, §4.1).
    lib.add_func(_wrapper("gettimeofday", Sys.GETTIMEOFDAY, []))

    # sigreturn must not touch the stack before the syscall: the kernel
    # reads the signal frame at SP.  (Raw assembly, no prologue.)
    lib.builder.add_function(
        "sigreturn",
        [
            A.mov(R0, int(Sys.SIGRETURN)),
            A.syscall(),
            A.ret(),
        ],
    )

    # setcontext: restores the argument registers from the stack — the
    # libc-style register-control gadget every ROP chain wants.
    lib.builder.add_function(
        "setcontext",
        [
            A.pop(R1),
            A.pop(R2),
            A.pop(R3),
            A.pop(R4),
            A.ret(),
        ],
    )

    # -- string / memory routines -------------------------------------------

    lib.add_func(
        Func(
            "memcpy",
            ["dst", "src", "n"],
            [
                Let("i", Const(0)),
                While(
                    Rel("<", Var("i"), Var("n")),
                    [
                        Store(
                            BinOp("+", Var("dst"), Var("i")),
                            Load(BinOp("+", Var("src"), Var("i")),
                                 byte=True),
                            byte=True,
                        ),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("dst")),
            ],
        )
    )

    lib.add_func(
        Func(
            "memset",
            ["dst", "value", "n"],
            [
                Let("i", Const(0)),
                While(
                    Rel("<", Var("i"), Var("n")),
                    [
                        Store(BinOp("+", Var("dst"), Var("i")),
                              Var("value"), byte=True),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("dst")),
            ],
        )
    )

    lib.add_func(
        Func(
            "strlen",
            ["s"],
            [
                Let("i", Const(0)),
                While(
                    Rel("!=", Load(BinOp("+", Var("s"), Var("i")),
                                   byte=True), Const(0)),
                    [Assign("i", BinOp("+", Var("i"), Const(1)))],
                ),
                Return(Var("i")),
            ],
        )
    )

    lib.add_func(
        Func(
            "strcmp",
            ["a", "b"],
            [
                Let("i", Const(0)),
                Let("ca", Const(0)),
                Let("cb", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("ca", Load(BinOp("+", Var("a"), Var("i")),
                                          byte=True)),
                        Assign("cb", Load(BinOp("+", Var("b"), Var("i")),
                                          byte=True)),
                        If(
                            Rel("!=", Var("ca"), Var("cb")),
                            [Return(BinOp("-", Var("ca"), Var("cb")))],
                        ),
                        If(Rel("==", Var("ca"), Const(0)),
                           [Return(Const(0))]),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
            ],
        )
    )

    lib.add_func(
        Func(
            "strncmp",
            ["a", "b", "n"],
            [
                Let("i", Const(0)),
                Let("ca", Const(0)),
                Let("cb", Const(0)),
                While(
                    Rel("<", Var("i"), Var("n")),
                    [
                        Assign("ca", Load(BinOp("+", Var("a"), Var("i")),
                                          byte=True)),
                        Assign("cb", Load(BinOp("+", Var("b"), Var("i")),
                                          byte=True)),
                        If(
                            Rel("!=", Var("ca"), Var("cb")),
                            [Return(BinOp("-", Var("ca"), Var("cb")))],
                        ),
                        If(Rel("==", Var("ca"), Const(0)),
                           [Return(Const(0))]),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Const(0)),
            ],
        )
    )

    # Unbounded strcpy: the canonical overflow primitive.
    lib.add_func(
        Func(
            "strcpy",
            ["dst", "src"],
            [
                Let("i", Const(0)),
                Let("c", Const(1)),
                While(
                    Rel("!=", Var("c"), Const(0)),
                    [
                        Assign("c", Load(BinOp("+", Var("src"), Var("i")),
                                         byte=True)),
                        Store(BinOp("+", Var("dst"), Var("i")), Var("c"),
                              byte=True),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("dst")),
            ],
        )
    )

    lib.add_func(
        Func(
            "atoi",
            ["s"],
            [
                Let("value", Const(0)),
                Let("i", Const(0)),
                Let("c", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("c", Load(BinOp("+", Var("s"), Var("i")),
                                         byte=True)),
                        If(Rel("<", Var("c"), Const(48)), [Break()]),
                        If(Rel(">", Var("c"), Const(57)), [Break()]),
                        Assign(
                            "value",
                            BinOp("+", BinOp("*", Var("value"), Const(10)),
                                  BinOp("-", Var("c"), Const(48))),
                        ),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("value")),
            ],
        )
    )

    lib.add_func(
        Func(
            "utoa",
            ["value", "buf"],
            [
                # Writes decimal digits; returns the length.
                If(
                    Rel("==", Var("value"), Const(0)),
                    [
                        Store(Var("buf"), Const(48), byte=True),
                        Store(Var("buf"), Const(0), offset=1, byte=True),
                        Return(Const(1)),
                    ],
                ),
                Let("n", Const(0)),
                Let("v", Var("value")),
                While(
                    Rel(">", Var("v"), Const(0)),
                    [
                        Assign("v", BinOp("/", Var("v"), Const(10))),
                        Assign("n", BinOp("+", Var("n"), Const(1))),
                    ],
                ),
                Let("i", Var("n")),
                Assign("v", Var("value")),
                While(
                    Rel(">", Var("i"), Const(0)),
                    [
                        Assign("i", BinOp("-", Var("i"), Const(1))),
                        Store(
                            BinOp("+", Var("buf"), Var("i")),
                            BinOp("+", Const(48),
                                  BinOp("%", Var("v"), Const(10))),
                            byte=True,
                        ),
                        Assign("v", BinOp("/", Var("v"), Const(10))),
                    ],
                ),
                Store(BinOp("+", Var("buf"), Var("n")), Const(0), byte=True),
                Return(Var("n")),
            ],
        )
    )

    lib.add_func(
        Func(
            "read_line",
            ["fd", "buf", "maxlen"],
            [
                # Bounded line reader: stops at '\n' or maxlen-1 bytes.
                Let("i", Const(0)),
                Let("got", Const(0)),
                Let("c", Const(0)),
                While(
                    Rel("<", Var("i"),
                        BinOp("-", Var("maxlen"), Const(1))),
                    [
                        Assign(
                            "got",
                            SyscallExpr(
                                int(Sys.READ),
                                [Var("fd"),
                                 BinOp("+", Var("buf"), Var("i")),
                                 Const(1)],
                            ),
                        ),
                        If(Rel("<=", Var("got"), Const(0)), [Break()]),
                        Assign("c", Load(BinOp("+", Var("buf"), Var("i")),
                                         byte=True)),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                        If(Rel("==", Var("c"), Const(10)), [Break()]),
                    ],
                ),
                Store(BinOp("+", Var("buf"), Var("i")), Const(0), byte=True),
                Return(Var("i")),
            ],
        )
    )

    lib.add_func(
        Func(
            "checksum",
            ["buf", "n"],
            [
                Let("acc", Const(0)),
                Let("i", Const(0)),
                While(
                    Rel("<", Var("i"), Var("n")),
                    [
                        Assign(
                            "acc",
                            BinOp(
                                "^",
                                BinOp("*", Var("acc"), Const(31)),
                                Load(BinOp("+", Var("buf"), Var("i")),
                                     byte=True),
                            ),
                        ),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                    ],
                ),
                Return(Var("acc")),
            ],
        )
    )

    # -- bump allocator -----------------------------------------------------

    lib.add_zeros("__heap_next", 8)
    lib.add_func(
        Func(
            "malloc",
            ["n"],
            [
                Let("next", Load(Global("__heap_next"))),
                If(
                    Rel("==", Var("next"), Const(0)),
                    [
                        SyscallExpr(int(Sys.BRK),
                                    [Const(HEAP_BASE + _HEAP_POOL)]),
                        Assign("next", Const(HEAP_BASE)),
                    ],
                ),
                Let("result", Var("next")),
                Store(
                    Global("__heap_next"),
                    BinOp("+", Var("next"),
                          BinOp("&", BinOp("+", Var("n"), Const(15)),
                                Const(~7 & 0xFFFFFFFF))),
                ),
                Return(Var("result")),
            ],
        )
    )
    lib.add_func(Func("free", ["p"], [Return(Const(0))]))

    # A tail-call pair exercising the §4.1 tail-call handling: puts()
    # computes the length then *jumps* to write_str's body.
    lib.add_func(
        Func(
            "write_str",
            ["fd", "s"],
            [
                Let("n", Call("strlen", [Var("s")])),
                Return(SyscallExpr(int(Sys.WRITE),
                                   [Var("fd"), Var("s"), Var("n")])),
            ],
        )
    )
    lib.builder.add_function(
        "puts",
        [
            # Tail call: mov r2 <- r1 (string), r1 <- 1 (stdout), then a
            # direct jump to write_str.  write_str's ret returns to
            # puts' caller.
            A.movr(R2, R1),
            A.mov(R1, 1),
            A.jmp("write_str"),
        ],
    )

    return lib.build()
