"""Tests for the kernel model: syscalls, fork/exec, signals, interception."""

import pytest

from repro.cpu.memory import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.cpu.machine import to_signed
from repro.lang import (
    AddrOf,
    Asm,
    Assign,
    BinOp,
    Call,
    Const,
    Func,
    Global,
    If,
    Let,
    LocalArray,
    Load,
    Program,
    Rel,
    Return,
    Store,
    SyscallExpr,
    Var,
    While,
)
from repro.osmodel import (
    Kernel,
    O_CREAT,
    O_WRONLY,
    PTRACE_TRACEME,
    ProcessState,
    SIGKILL,
    SIGUSR1,
    StepOutcome,
    Sys,
)
from repro.osmodel.kernel import EFAULT
from repro.osmodel.process import (
    HEAP_BASE,
    STACK_TOP,
    FDKind,
    FileDescriptor,
)
from repro.isa.registers import R0, R1, R2, R3


def sys_(nr, *args):
    return SyscallExpr(int(nr), list(args))


def build_kernel(main_body, name="prog", extra_funcs=(), data=None):
    prog = Program(name)
    for key, value in (data or {}).items():
        if isinstance(value, str):
            prog.add_string(key, value)
        else:
            prog.add_data(key, value)
    for func in extra_funcs:
        prog.add_func(func)
    prog.add_func(Func("main", [], main_body))
    prog.set_entry("main")
    kernel = Kernel()
    kernel.register_program(name, prog.build())
    return kernel


class TestBasics:
    def test_exit_code(self):
        kernel = build_kernel([Return(Const(17))])
        proc = kernel.spawn("prog")
        assert kernel.run(proc) is ProcessState.EXITED
        assert proc.exit_code == 17

    def test_write_stdout(self):
        body = [
            Let("n", sys_(Sys.WRITE, Const(1), Global("msg"), Const(5))),
            Return(Var("n")),
        ]
        kernel = build_kernel(body, data={"msg": "hello"})
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.stdout == bytearray(b"hello")
        assert proc.exit_code == 5

    def test_read_stdin(self):
        body = [
            LocalArray("buf", 16),
            Let("n", sys_(Sys.READ, Const(0), AddrOf("buf"), Const(16))),
            ExprLike := sys_(Sys.WRITE, Const(1), AddrOf("buf"), Var("n")),
            Return(Var("n")),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog", stdin=b"abc")
        kernel.run(proc)
        assert proc.exit_code == 3
        assert proc.stdout == bytearray(b"abc")

    def test_getpid(self):
        kernel = build_kernel([Return(sys_(Sys.GETPID))])
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == proc.pid

    def test_unknown_syscall_einval(self):
        kernel = build_kernel([Return(SyscallExpr(999, []))])
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -22

    def test_unregistered_program(self):
        kernel = Kernel()
        with pytest.raises(Exception):
            kernel.spawn("ghost")


class TestFiles:
    def test_open_write_read_roundtrip(self):
        body = [
            Let("fd", sys_(Sys.OPEN, Global("path"),
                           Const(O_CREAT | O_WRONLY))),
            sys_(Sys.WRITE, Var("fd"), Global("content"), Const(4)),
            sys_(Sys.CLOSE, Var("fd")),
            Return(Const(0)),
        ]
        kernel = build_kernel(
            body, data={"path": "/tmp/out", "content": "data"}
        )
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert kernel.fs.contents("/tmp/out") == b"data"

    def test_open_missing_enoent(self):
        body = [Return(sys_(Sys.OPEN, Global("path"), Const(0)))]
        kernel = build_kernel(body, data={"path": "/no/file"})
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -2

    def test_read_existing_file(self):
        body = [
            LocalArray("buf", 8),
            Let("fd", sys_(Sys.OPEN, Global("path"), Const(0))),
            Let("n", sys_(Sys.READ, Var("fd"), AddrOf("buf"), Const(8))),
            Return(Load(AddrOf("buf"), byte=True)),
        ]
        kernel = build_kernel(body, data={"path": "/etc/x"})
        kernel.fs.create("/etc/x", b"Zfile")
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == ord("Z")

    def test_unlink(self):
        body = [Return(sys_(Sys.UNLINK, Global("path")))]
        kernel = build_kernel(body, data={"path": "/gone"})
        kernel.fs.create("/gone", b"x")
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 0
        assert not kernel.fs.exists("/gone")

    def test_bad_fd(self):
        kernel = build_kernel(
            [Return(sys_(Sys.WRITE, Const(99), Const(0), Const(0)))]
        )
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -9


class TestSockets:
    def test_accept_recv_send(self):
        body = [
            LocalArray("buf", 32),
            Let("lfd", sys_(Sys.SOCKET)),
            sys_(Sys.BIND, Var("lfd")),
            sys_(Sys.LISTEN, Var("lfd")),
            Let("cfd", sys_(Sys.ACCEPT, Var("lfd"))),
            If(Rel("<", Var("cfd"), Const(0)), [Return(Const(1))]),
            Let("n", sys_(Sys.RECV, Var("cfd"), AddrOf("buf"), Const(32))),
            sys_(Sys.SEND, Var("cfd"), AddrOf("buf"), Var("n")),
            sys_(Sys.CLOSE, Var("cfd")),
            Return(Const(0)),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        conn = proc.push_connection(b"ping")
        kernel.run(proc)
        assert proc.exit_code == 0
        assert bytes(conn.outbound) == b"ping"
        assert conn.closed

    def test_accept_empty_queue_eagain(self):
        body = [
            Let("lfd", sys_(Sys.SOCKET)),
            Return(sys_(Sys.ACCEPT, Var("lfd"))),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -11


class TestMemorySyscalls:
    def test_mmap_and_use(self):
        body = [
            Let("p", sys_(Sys.MMAP, Const(0), Const(8192), Const(3))),
            Store(Var("p"), Const(123)),
            Return(Load(Var("p"))),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 123

    def test_brk_grows_heap(self):
        from repro.osmodel.process import HEAP_BASE

        body = [
            Let("brk", sys_(Sys.BRK, Const(0))),
            sys_(Sys.BRK, Const(HEAP_BASE + 8192)),
            Store(Const(HEAP_BASE), Const(55)),
            Return(Load(Const(HEAP_BASE))),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 55

    def test_mprotect(self):
        body = [
            Let("p", sys_(Sys.MMAP, Const(0), Const(4096), Const(3))),
            Return(sys_(Sys.MPROTECT, Var("p"), Const(4096), Const(1))),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 0


class TestForkExec:
    def test_fork_wait(self):
        # child returns 7, parent returns child status + 1
        body = [
            Let("pid", sys_(Sys.FORK)),
            If(
                Rel("==", Var("pid"), Const(0)),
                [Return(Const(7))],
            ),
            Let("status", sys_(Sys.WAIT)),
            Return(Var("status")),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 7
        assert len(kernel.processes) == 2

    def test_execve_replaces_image(self):
        target = Program("other")
        target.add_func(Func("main", [], [Return(Const(99))]))
        target.set_entry("main")

        body = [
            Let("pid", sys_(Sys.FORK)),
            If(
                Rel("==", Var("pid"), Const(0)),
                [sys_(Sys.EXECVE, Global("path")), Return(Const(1))],
            ),
            Return(sys_(Sys.WAIT)),
        ]
        kernel = build_kernel(body, data={"path": "other"})
        kernel.register_program("other", target.build())
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 99

    def test_execve_changes_cr3_and_exec_stop_hook(self):
        target = Program("util")
        target.add_func(Func("main", [], [Return(Const(3))]))
        target.set_entry("main")

        body = [
            Let("pid", sys_(Sys.FORK)),
            If(
                Rel("==", Var("pid"), Const(0)),
                [
                    sys_(Sys.PTRACE, Const(PTRACE_TRACEME)),
                    sys_(Sys.EXECVE, Global("path")),
                    Return(Const(1)),
                ],
            ),
            Return(sys_(Sys.WAIT)),
        ]
        kernel = build_kernel(body, data={"path": "util"})
        kernel.register_program("util", target.build())
        observed = []
        kernel.exec_stop_hooks.append(
            lambda child: observed.append((child.name, child.cr3))
        )
        proc = kernel.spawn("prog")
        parent_cr3 = proc.cr3
        kernel.run(proc)
        assert proc.exit_code == 3
        assert len(observed) == 1
        name, cr3 = observed[0]
        assert name == "util"
        assert cr3 != parent_cr3  # execve allocated a fresh CR3

    def test_wait_without_children(self):
        kernel = build_kernel([Return(sys_(Sys.WAIT))])
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -2


class TestSignals:
    def test_sigkill_terminates(self):
        kernel = build_kernel([Return(Const(0))])
        proc = kernel.spawn("prog")
        kernel.kill_process(proc, SIGKILL)
        assert proc.state is ProcessState.KILLED
        assert proc.killed_by == SIGKILL

    def test_signal_handler_and_sigreturn(self):
        """Deliver SIGUSR1 to self; handler runs, sigreturn resumes."""
        from repro.lang import FuncRef

        handler = Func(
            "on_sig",
            ["sig", "frame"],
            [
                # Mark that we ran, then sigreturn with SP at the frame.
                sys_(Sys.WRITE, Const(1), Global("mark"), Const(1)),
                Asm([]),
                # Restore: set sp = frame, then sigreturn.
                # (done in raw asm below)
            ],
        )
        # Simpler: handler body in raw asm for exact SP control.
        from repro.isa.assembler import A
        from repro.isa.registers import R0 as AR0, R2 as AR2, SP as ASP

        handler = Func(
            "on_sig",
            ["sig", "frame"],
            [
                Asm(
                    [
                        A.movr(ASP, AR2),  # SP = signal frame
                        A.mov(AR0, int(Sys.SIGRETURN)),
                        A.syscall(),
                    ]
                )
            ],
        )
        body = [
            sys_(Sys.SIGACTION, Const(SIGUSR1), FuncRef("on_sig")),
            Let("x", Const(5)),
            sys_(Sys.KILL, Const(0), Const(SIGUSR1)),
            # Execution resumes here with locals intact.
            Return(BinOpLike := Var("x")),
        ]
        kernel = build_kernel(body, extra_funcs=[handler])
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == 5
        assert proc.state is ProcessState.EXITED

    def test_unhandled_signal_kills(self):
        body = [
            sys_(Sys.KILL, Const(0), Const(SIGUSR1)),
            Return(Const(0)),
        ]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.state is ProcessState.KILLED
        assert proc.killed_by == SIGUSR1


class TestInterception:
    def test_install_handler_wraps_original(self):
        """The FlowGuard mechanism: swap a syscall-table entry."""
        kernel = build_kernel(
            [
                sys_(Sys.WRITE, Const(1), Global("msg"), Const(2)),
                Return(Const(0)),
            ],
            data={"msg": "ok"},
        )
        log = []
        original = kernel.install_handler(
            Sys.WRITE,
            lambda k, p: (log.append(p.pid), original(k, p))[1],
        )
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert log == [proc.pid]
        assert proc.stdout == bytearray(b"ok")

    def test_patched_table_is_per_kernel(self):
        """The handler table is built from one class-level list, but
        each kernel owns its dict and binds its own handlers: patching
        one kernel leaves another's table as it was."""
        first, second = Kernel(), Kernel()
        before = dict(second.syscall_table)
        first.install_handler(Sys.WRITE, lambda k, p: -1)
        first.syscall_table[int(Sys.READ)] = lambda k, p: -2
        assert second.syscall_table == before
        assert second.syscall_table is not first.syscall_table
        assert second.syscall_table[int(Sys.WRITE)].__self__ is second
        assert Kernel().syscall_table.keys() == {int(nr) for nr in Sys}

    def test_interceptor_can_deny(self):
        kernel = build_kernel(
            [Return(sys_(Sys.UNLINK, Global("p")))], data={"p": "/x"}
        )
        kernel.fs.create("/x", b"")
        kernel.install_handler(Sys.UNLINK, lambda k, p: -1)
        proc = kernel.spawn("prog")
        kernel.run(proc)
        assert proc.exit_code == -1
        assert kernel.fs.exists("/x")


class TestFaults:
    def test_wild_store_becomes_sigsegv(self):
        body = [Store(Const(0xDEAD0000), Const(1)), Return(Const(0))]
        kernel = build_kernel(body)
        proc = kernel.spawn("prog")
        state = kernel.run(proc)
        assert state is ProcessState.KILLED
        assert proc.killed_by == 11
        assert proc.fault is not None


def syscall(kernel, proc, nr, *args):
    """Run syscall ``nr`` for ``proc`` through the kernel's dispatcher,
    as the SYSCALL instruction does; returns the signed result."""
    regs = proc.machine.regs
    regs[R0] = int(nr)
    for reg, arg in zip((R1, R2, R3), args):
        regs[reg] = arg
    kernel._dispatch_syscall(proc)
    return to_signed(regs[R0])


#: ``HEAP_BASE`` is unmapped until the first ``brk`` that grows the heap.
UNMAPPED = HEAP_BASE


class TestIOFaults:
    """Guest I/O whose buffer faults, spans pages or lies on a page the
    process still shares with its parent.  A read that faults returns
    ``EFAULT`` and keeps its input, as Linux does: a socket's bytes stay
    queued and a file's position does not move."""

    SOURCES = ["stdin", "conn", "file"]

    @staticmethod
    def reader(source, data):
        """An idle process that can read ``data`` from ``source``;
        returns the kernel, the process, the fd and a function telling
        what is left to read."""
        kernel = build_kernel([Return(Const(0))])
        proc = kernel.spawn("prog", stdin=data if source == "stdin" else b"")
        if source == "stdin":
            return kernel, proc, 0, lambda: bytes(proc.stdin_buffer)
        if source == "conn":
            conn = proc.push_connection(data)
            fd = proc.allocate_fd(FileDescriptor(FDKind.CONN, conn=conn))
            return kernel, proc, fd, lambda: bytes(conn.inbound)
        kernel.fs.create("/in", data)
        desc = FileDescriptor(FDKind.FILE, path="/in")
        fd = proc.allocate_fd(desc)
        return (kernel, proc, fd,
                lambda: kernel.fs.read_at("/in", desc.pos, 1 << 20))

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("target", ["read-only", "unmapped"])
    def test_a_faulting_read_keeps_its_input(self, source, target):
        kernel, proc, fd, left = self.reader(source, b"abc")
        if target == "read-only":
            buf = syscall(kernel, proc, Sys.MMAP, 0, PAGE_SIZE, PROT_READ)
        else:
            buf = UNMAPPED
        cycles = proc.executor.cycles
        assert syscall(kernel, proc, Sys.READ, fd, buf, 3) == EFAULT
        assert left() == b"abc"
        assert proc.executor.cycles == cycles
        good = STACK_TOP - 0x100
        assert syscall(kernel, proc, Sys.READ, fd, good, 3) == 3
        assert proc.machine.memory.read(good, 3) == b"abc"
        assert left() == b""

    def test_a_write_from_an_unmapped_buffer(self):
        kernel, proc, fd, _ = self.reader("conn", b"")
        conn = proc.fds[fd].conn
        assert syscall(kernel, proc, Sys.WRITE, 1, UNMAPPED, 4) == EFAULT
        assert syscall(kernel, proc, Sys.SEND, fd, UNMAPPED, 4) == EFAULT
        assert proc.stdout == b"" and conn.outbound == b""

    @pytest.mark.parametrize("source", SOURCES)
    def test_a_read_that_spans_two_pages(self, source):
        kernel, proc, fd, left = self.reader(source, b"abcdefgh")
        base = syscall(kernel, proc, Sys.MMAP, 0, 2 * PAGE_SIZE,
                       PROT_READ | PROT_WRITE)
        buf = base + PAGE_SIZE - 2
        assert syscall(kernel, proc, Sys.READ, fd, buf, 4) == 4
        memory = proc.machine.memory
        assert memory.read(buf, 4) == b"abcd"
        assert memory.read(base + PAGE_SIZE, 2) == b"cd"
        assert left() == b"efgh"
        # The second page read-only: nothing is copied, none consumed.
        memory.protect(base + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        assert syscall(kernel, proc, Sys.READ, fd, buf, 4) == EFAULT
        assert memory.read(buf, 4) == b"abcd"
        assert left() == b"efgh"

    def test_a_read_into_a_forked_childs_shared_stack_page(self):
        kernel, parent, _, _ = self.reader("stdin", b"child")
        buf = STACK_TOP - 0x100
        parent.machine.memory.write(buf, b"parent")
        pid = syscall(kernel, parent, Sys.FORK)
        child = kernel.processes[pid]
        memory = child.machine.memory
        pageno = buf // PAGE_SIZE
        assert memory.tables()[0][pageno] is \
            parent.machine.memory.tables()[0][pageno]
        assert syscall(kernel, child, Sys.READ, 0, buf, 5) == 5
        assert memory.read(buf, 6) == b"childt"
        assert parent.machine.memory.read(buf, 6) == b"parent"
        assert memory.tables()[0][pageno] is not \
            parent.machine.memory.tables()[0][pageno]


class TestKernelStep:
    """The resumable scheduling primitive the fleet scheduler runs on."""

    def _loop_kernel(self, bound=50):
        body = [
            Let("i", Const(0)),
            While(
                Rel("<", Var("i"), Const(bound)),
                [Assign("i", BinOp("+", Var("i"), Const(1)))],
            ),
            Return(Var("i")),
        ]
        return build_kernel(body)

    def test_budget_outcome_is_resumable(self):
        kernel = self._loop_kernel()
        proc = kernel.spawn("prog")
        outcomes = [kernel.step(proc, 25)]
        assert outcomes[0] is StepOutcome.BUDGET
        assert proc.state is ProcessState.RUNNABLE
        while outcomes[-1] is StepOutcome.BUDGET:
            outcomes.append(kernel.step(proc, 25))
        assert outcomes[-1] is StepOutcome.EXITED
        assert len(outcomes) > 2  # genuinely time-sliced
        assert proc.exit_code == 50

    def test_sliced_run_matches_single_run(self):
        solo = self._loop_kernel()
        whole = solo.spawn("prog")
        assert solo.run(whole) is ProcessState.EXITED

        sliced_kernel = self._loop_kernel()
        sliced = sliced_kernel.spawn("prog")
        while sliced_kernel.step(sliced, 7) is StepOutcome.BUDGET:
            pass
        assert sliced.state is ProcessState.EXITED
        assert sliced.exit_code == whole.exit_code
        assert sliced.executor.cycles == whole.executor.cycles

    def test_preempted_by_interrupt_line(self):
        kernel = self._loop_kernel()
        proc = kernel.spawn("prog")
        assert kernel.step(proc, 10) is StepOutcome.BUDGET
        proc.executor.stop_requested = True
        assert kernel.step(proc, 1_000_000) is StepOutcome.PREEMPTED
        assert proc.state is ProcessState.RUNNABLE
        # The interrupt is consumed; the process resumes where it was.
        assert not proc.executor.stop_requested
        while kernel.step(proc, 1000) is StepOutcome.BUDGET:
            pass
        assert proc.exit_code == 50

    def test_step_on_dead_processes(self):
        kernel = self._loop_kernel()
        proc = kernel.spawn("prog")
        while kernel.step(proc, 1000) is StepOutcome.BUDGET:
            pass
        assert kernel.step(proc, 1000) is StepOutcome.EXITED

        victim = kernel.spawn("prog")
        kernel.step(victim, 5)
        kernel.kill_process(victim, SIGKILL)
        assert kernel.step(victim, 1000) is StepOutcome.KILLED
