"""The kernel: spawning, syscall dispatch, signals, fork/execve/ptrace.

The syscall table is an ordinary dict from syscall number to handler;
:meth:`Kernel.install_handler` swaps an entry and returns the original —
the exact mechanism FlowGuard's kernel module uses in §5.2 ("temporarily
modifying the syscall table and installing one alternative syscall
handler").

Scheduling is deliberately simple: one process runs at a time, and a
``wait()`` runs the child to completion synchronously (with an exec-stop
for traced children so a monitor can read the fresh CR3 before the new
program runs, as in the paper's Linux-utility experiment).
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.binary.loader import Image, Loader
from repro.binary.module import Module
from repro.cpu.executor import CPUFault, Executor, HaltReason
from repro.cpu.machine import U64_MASK, Machine, to_signed
from repro.cpu.memory import (
    MemoryError_,
    PROT_READ,
    PROT_WRITE,
)
from repro.isa.registers import R0, R1, R2, R3, SP
from repro.osmodel.process import (
    FDKind,
    FileDescriptor,
    HEAP_BASE,
    MMAP_BASE,
    Process,
    ProcessState,
    STACK_SIZE,
    STACK_TOP,
)
from repro.osmodel.syscalls import (
    O_CREAT,
    O_TRUNC,
    O_WRONLY,
    PTRACE_TRACEME,
    SIGKILL,
    SIGSEGV,
    Sys,
)
from repro.osmodel.vfs import FileSystem

# errno-style results.
EAGAIN = -11
EBADF = -9
EFAULT = -14
ENOENT = -2
EINVAL = -22

SyscallHandler = Callable[["Kernel", Process], Optional[int]]

# The descriptor kinds the I/O handlers test, bound once: each
# ``FDKind.X`` lookup goes through the enum's metaclass (about 170 ns on
# CPython 3.11, against 15 ns for a global), and libsim's ``read_line``
# reads its input one byte per syscall.
_STDIN = FDKind.STDIN
_STDOUT = FDKind.STDOUT
_FILE = FDKind.FILE
_CONN = FDKind.CONN

# Signal frame: magic, 18 registers, ip, flags.
_FRAME_MAGIC = 0x5347464D41524B  # "SGFMARK"
_FRAME_WORDS = 21
FRAME_SIZE = 8 * _FRAME_WORDS


class KernelPanic(Exception):
    """Internal kernel invariant violation."""


class StepOutcome(enum.Enum):
    """Why one :meth:`Kernel.step` quantum ended."""

    EXITED = "exited"
    KILLED = "killed"
    PREEMPTED = "preempted"  # executor interrupt line (PMI, scheduler)
    BUDGET = "budget"  # instruction budget exhausted, still runnable


class Kernel:
    """The machine's single privileged agent."""

    #: ``(nr, handler method name)`` per syscall, built once per class;
    #: each kernel binds its own table from it.
    _SYSCALLS: List[Tuple[int, str]] = [
        (int(nr), f"_sys_{nr.name.lower()}") for nr in Sys
    ]

    def __init__(self) -> None:
        self.fs = FileSystem()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._next_cr3 = 0x1000
        self.programs: Dict[str, Tuple[Module, Loader]] = {}
        self.syscall_table: Dict[int, SyscallHandler] = {
            nr: getattr(self, name) for nr, name in self._SYSCALLS
        }
        # Called with (process,) when a traced child stops at execve;
        # this is where FlowGuard configures the CR3 filter.
        self.exec_stop_hooks: List[Callable[[Process], None]] = []
        # Called with (process,) whenever a process is spawned or
        # replaced by execve.
        self.spawn_hooks: List[Callable[[Process], None]] = []
        self._exec_stop_pending: Dict[int, bool] = {}

    # -- program registry ----------------------------------------------------

    def register_program(
        self,
        name: str,
        exe: Module,
        libraries: Optional[Dict[str, Module]] = None,
        vdso: Optional[Module] = None,
    ) -> None:
        """Make an executable spawnable / execve-able under ``name``."""
        self.programs[name] = (exe, Loader(libraries, vdso=vdso))

    # -- kernel-module API -----------------------------------------------------

    def install_handler(
        self, nr: int, handler: SyscallHandler
    ) -> SyscallHandler:
        """Replace a syscall-table entry; returns the original handler."""
        original = self.syscall_table[int(nr)]
        self.syscall_table[int(nr)] = handler
        return original

    def kill_process(self, proc: Process, sig: int = SIGKILL) -> None:
        """Terminate a process with a signal (monitor enforcement path)."""
        proc.state = ProcessState.KILLED
        proc.killed_by = sig
        proc.machine.halted = True

    # -- spawning ----------------------------------------------------------------

    def spawn(
        self,
        program: str,
        stdin: bytes = b"",
    ) -> Process:
        """Create a process running a registered program."""
        if program not in self.programs:
            raise KernelPanic(f"unregistered program: {program}")
        exe, loader = self.programs[program]
        image = loader.load(exe)
        pid = self._next_pid
        self._next_pid += 1
        proc = self._make_process(pid, program, image)
        proc.feed_stdin(stdin)
        self.processes[pid] = proc
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("kernel.spawns").inc(program=program)
        for hook in self.spawn_hooks:
            hook(proc)
        return proc

    def _make_process(self, pid: int, name: str, image: Image) -> Process:
        memory = image.memory
        memory.map_demand_zero(
            STACK_TOP - STACK_SIZE, STACK_SIZE, PROT_READ | PROT_WRITE
        )
        machine = Machine(memory)
        machine.ip = image.entry_address
        machine.set_reg(SP, STACK_TOP - 64)
        executor = Executor(machine)
        cr3 = self._next_cr3
        self._next_cr3 += 0x1000
        proc = Process(
            pid=pid,
            name=name,
            image=image,
            machine=machine,
            executor=executor,
            cr3=cr3,
        )
        executor.syscall_handler = self._make_dispatch(proc)
        return proc

    def _make_dispatch(self, proc: Process) -> Callable[[Machine], None]:
        def dispatch(machine: Machine) -> None:
            self._dispatch_syscall(proc)

        return dispatch

    # -- running --------------------------------------------------------------------

    def step(self, proc: Process, budget: int) -> StepOutcome:
        """Run a process for at most ``budget`` instructions.

        The resumable scheduling primitive: callers (``run``, the fleet
        scheduler) may invoke it repeatedly, interleaving quanta from
        different processes.  Hardware faults become a SIGSEGV
        termination, like a real kernel delivering an unhandleable
        fault — attack payloads that crash mid-chain are reported, not
        propagated as Python errors.  A ``PREEMPTED`` outcome means the
        executor's interrupt line was asserted mid-quantum (e.g. a ToPA
        PMI stalling the process); the process stays runnable.
        """
        if proc.state is ProcessState.KILLED:
            return StepOutcome.KILLED
        if not proc.alive:
            return StepOutcome.EXITED
        try:
            reason = proc.executor.run(budget)
        except CPUFault as fault:
            proc.fault = str(fault)
            self.kill_process(proc, SIGSEGV)
            return StepOutcome.KILLED
        plane = get_telemetry().plane
        if plane is not None:
            plane.on_step(proc)
        if reason is HaltReason.INTERRUPTED:
            return StepOutcome.PREEMPTED
        if reason is HaltReason.STEPS_EXHAUSTED:
            return StepOutcome.BUDGET
        if proc.state is ProcessState.KILLED:
            return StepOutcome.KILLED
        if proc.machine.halted and proc.state is ProcessState.RUNNABLE:
            # halt instruction without exit(): treat as clean exit.
            proc.state = ProcessState.EXITED
        return StepOutcome.EXITED

    def run(self, proc: Process, max_steps: int = 50_000_000) -> ProcessState:
        """Run a process until it exits, is killed, or exhausts steps."""
        self.step(proc, max_steps)
        return proc.state

    # -- syscall dispatch ------------------------------------------------------------

    def _dispatch_syscall(self, proc: Process) -> None:
        nr = proc.machine.regs[R0]
        tel = get_telemetry()
        if tel.enabled:
            try:
                name = Sys(nr).name.lower()
            except ValueError:
                name = f"nr{nr}"
            tel.metrics.counter("kernel.syscalls").inc(name=name)
        handler = self.syscall_table.get(nr)
        result = EINVAL if handler is None else handler(self, proc)
        if result is not None:
            # ``regs`` read again: execve and sigreturn replace it.
            proc.machine.regs[R0] = result & U64_MASK

    # -- memory helpers ----------------------------------------------------------------

    @staticmethod
    def _copy_in(proc: Process, addr: int, size: int) -> Optional[bytes]:
        try:
            return proc.machine.memory.read(addr, size)
        except MemoryError_:
            return None

    @staticmethod
    def _copy_out(proc: Process, addr: int, data: bytes) -> bool:
        try:
            proc.machine.memory.write(addr, data)
            return True
        except MemoryError_:
            return False

    @staticmethod
    def _read_path(proc: Process, addr: int) -> Optional[str]:
        try:
            raw = proc.machine.memory.read_cstring(addr)
        except MemoryError_:
            return None
        return raw.decode("utf-8", errors="replace")

    # -- syscall handlers -------------------------------------------------------------

    def _sys_exit(self, kernel: "Kernel", proc: Process) -> Optional[int]:
        proc.exit_code = to_signed(proc.machine.reg(R1))
        proc.state = ProcessState.EXITED
        proc.machine.halted = True
        return None

    def _sys_read(self, kernel: "Kernel", proc: Process) -> int:
        regs = proc.machine.regs
        fd = proc.fds.get(regs[R1])
        if fd is None:
            return EBADF
        size = regs[R3]
        kind = fd.kind
        if kind is _CONN:
            source = fd.conn.inbound
        elif kind is _STDIN:
            source = proc.stdin_buffer
        elif kind is _FILE:
            if not self.fs.exists(fd.path):
                return ENOENT
            source = None
        else:
            return EBADF
        data = (source[:size] if source is not None
                else self.fs.read_at(fd.path, fd.pos, size))
        if data and not self._copy_out(proc, regs[R2], data):
            return EFAULT
        # Consumed only once copied, so a read that faults loses no
        # input (as Linux's tcp_recvmsg and file reads).
        if source is not None:
            del source[:len(data)]
        else:
            fd.pos += len(data)
        proc.executor.cycles += len(data) * costs.KERNEL_IO_CYCLES_PER_BYTE
        return len(data)

    def _sys_write(self, kernel: "Kernel", proc: Process) -> int:
        regs = proc.machine.regs
        fd = proc.fds.get(regs[R1])
        if fd is None:
            return EBADF
        data = self._copy_in(proc, regs[R2], regs[R3])
        if data is None:
            return EFAULT
        proc.executor.cycles += len(data) * costs.KERNEL_IO_CYCLES_PER_BYTE
        kind = fd.kind
        if kind is _CONN:
            fd.conn.outbound.extend(data)
            return len(data)
        if kind is _STDOUT:
            proc.stdout.extend(data)
            return len(data)
        if kind is _FILE:
            if not fd.writable:
                return EBADF
            written = self.fs.write_at(fd.path, fd.pos, data)
            fd.pos += written
            return written
        return EBADF

    def _sys_open(self, kernel: "Kernel", proc: Process) -> int:
        path = self._read_path(proc, proc.machine.reg(R1))
        if path is None:
            return EFAULT
        flags = proc.machine.reg(R2)
        if not self.fs.exists(path):
            if not flags & O_CREAT:
                return ENOENT
            self.fs.create(path)
        elif flags & O_TRUNC:
            self.fs.truncate(path)
        fd = FileDescriptor(
            FDKind.FILE, path=path, writable=bool(flags & O_WRONLY)
        )
        return proc.allocate_fd(fd)

    def _sys_close(self, kernel: "Kernel", proc: Process) -> int:
        fd = proc.fds.pop(proc.machine.reg(R1), None)
        if fd is None:
            return EBADF
        if fd.kind is FDKind.CONN:
            fd.conn.closed = True
        return 0

    def _sys_mmap(self, kernel: "Kernel", proc: Process) -> int:
        size = proc.machine.reg(R2)
        prot = proc.machine.reg(R3) or (PROT_READ | PROT_WRITE)
        if size == 0:
            return EINVAL
        addr = proc.mmap_next
        aligned = (size + 4095) // 4096 * 4096
        proc.mmap_next += aligned + 4096  # guard gap
        proc.machine.memory.map_demand_zero(addr, aligned, prot)
        return addr

    def _sys_mprotect(self, kernel: "Kernel", proc: Process) -> int:
        addr = proc.machine.reg(R1)
        size = proc.machine.reg(R2)
        prot = proc.machine.reg(R3)
        try:
            proc.machine.memory.protect(addr, size, prot)
        except MemoryError_:
            return EINVAL
        return 0

    def _sys_execve(self, kernel: "Kernel", proc: Process) -> int:
        path = self._read_path(proc, proc.machine.reg(R1))
        if path is None:
            return EFAULT
        if path not in self.programs:
            return ENOENT
        exe, loader = self.programs[path]
        image = loader.load(exe)
        memory = image.memory
        memory.map_demand_zero(
            STACK_TOP - STACK_SIZE, STACK_SIZE, PROT_READ | PROT_WRITE
        )
        proc.image = image
        proc.machine.memory = memory
        proc.machine.regs = [0] * len(proc.machine.regs)
        proc.machine.set_reg(SP, STACK_TOP - 64)
        proc.machine.ip = image.entry_address
        proc.name = path
        # A fresh mm means a fresh CR3 — the detail the paper's ptrace
        # trick exists to observe.
        proc.cr3 = self._next_cr3
        self._next_cr3 += 0x1000
        if proc.traced:
            self._exec_stop_pending[proc.pid] = True
        for hook in self.spawn_hooks:
            hook(proc)
        return 0

    def _sys_fork(self, kernel: "Kernel", proc: Process) -> int:
        child_pid = self._next_pid
        self._next_pid += 1
        child = self._clone_process(proc, child_pid)
        self.processes[child_pid] = child
        proc.children.append(child_pid)
        for hook in self.spawn_hooks:
            hook(child)
        return child_pid

    def _clone_process(self, parent: Process, child_pid: int) -> Process:
        memory = parent.machine.memory.clone()
        machine = Machine(memory)
        machine.regs = list(parent.machine.regs)
        machine.ip = parent.machine.ip  # already past the syscall insn
        machine.zf, machine.sf = parent.machine.zf, parent.machine.sf
        machine.set_reg(R0, 0)  # fork returns 0 in the child
        image = parent.image.with_memory(memory)
        executor = Executor(machine)
        cr3 = self._next_cr3
        self._next_cr3 += 0x1000
        child = Process(
            pid=child_pid,
            name=parent.name,
            image=image,
            machine=machine,
            executor=executor,
            cr3=cr3,
            parent_pid=parent.pid,
        )
        child.stdin_buffer = bytearray(parent.stdin_buffer)
        executor.syscall_handler = self._make_dispatch(child)
        return child

    def _sys_wait(self, kernel: "Kernel", proc: Process) -> int:
        """Run the oldest unfinished child to completion, return status.

        Traced children stop at their next execve so exec-stop hooks (the
        monitor) can observe the post-exec CR3, then continue.
        """
        for child_pid in proc.children:
            child = self.processes.get(child_pid)
            if child is None or not child.alive:
                continue
            stopped_at_exec = self._run_until_exec_stop(child)
            if stopped_at_exec:
                for hook in self.exec_stop_hooks:
                    hook(child)
                self.run(child)
            return child.exit_code if child.killed_by is None else -child.killed_by
        return ENOENT  # no waitable children

    def _run_until_exec_stop(self, child: Process) -> bool:
        """Step a child; True if it stopped at a traced execve."""
        max_steps = 5_000_000
        while child.alive:
            if self._exec_stop_pending.pop(child.pid, False):
                return True
            try:
                child.executor.step()
            except CPUFault as fault:
                child.fault = str(fault)
                self.kill_process(child, SIGSEGV)
                return False
            max_steps -= 1
            if max_steps <= 0:
                return False
            if child.machine.halted:
                if child.state is ProcessState.RUNNABLE:
                    child.state = ProcessState.EXITED
                return False
        return False

    def _sys_gettimeofday(self, kernel: "Kernel", proc: Process) -> int:
        return int(proc.executor.cycles)

    def _sys_sigaction(self, kernel: "Kernel", proc: Process) -> int:
        sig = proc.machine.reg(R1)
        handler = proc.machine.reg(R2)
        proc.signal_handlers[sig] = handler
        return 0

    def _sys_sigreturn(self, kernel: "Kernel", proc: Process) -> Optional[int]:
        """Restore register state from the frame at SP.

        Like real kernels, the frame contents are *not* authenticated —
        this is precisely the weakness SROP (Bosman & Bos, S&P'14)
        exploits and that FlowGuard detects at the sigreturn endpoint.
        """
        frame_addr = proc.machine.reg(SP)
        raw = self._copy_in(proc, frame_addr, FRAME_SIZE)
        if raw is None:
            return EFAULT
        words = struct.unpack(f"<{_FRAME_WORDS}Q", raw)
        regs = list(words[1:19])
        ip = words[19]
        flags = words[20]
        proc.machine.regs = [r & 0xFFFFFFFFFFFFFFFF for r in regs]
        proc.machine.ip = ip
        proc.machine.zf = bool(flags & 1)
        proc.machine.sf = bool(flags & 2)
        return None  # r0 comes from the restored frame

    def deliver_signal(self, proc: Process, sig: int) -> None:
        """Deliver a signal: run the handler or terminate."""
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("kernel.signals").inc(sig=sig)
        handler = proc.signal_handlers.get(sig)
        if sig == SIGKILL or handler is None:
            self.kill_process(proc, sig)
            return
        m = proc.machine
        frame = struct.pack(
            f"<{_FRAME_WORDS}Q",
            _FRAME_MAGIC,
            *[r & 0xFFFFFFFFFFFFFFFF for r in m.regs],
            m.ip,
            (1 if m.zf else 0) | (2 if m.sf else 0),
        )
        sp_new = m.reg(SP) - FRAME_SIZE
        if not self._copy_out(proc, sp_new, frame):
            self.kill_process(proc, SIGSEGV)
            return
        m.set_reg(SP, sp_new)
        m.set_reg(R1, sig)
        m.set_reg(R2, sp_new)
        m.ip = handler

    def _sys_kill(self, kernel: "Kernel", proc: Process) -> int:
        target_pid = proc.machine.reg(R1)
        sig = proc.machine.reg(R2)
        target = self.processes.get(target_pid, proc if target_pid == 0 else None)
        if target is None:
            return ENOENT
        self.deliver_signal(target, sig)
        return 0

    # -- sockets -----------------------------------------------------------------------

    def _sys_socket(self, kernel: "Kernel", proc: Process) -> int:
        return proc.allocate_fd(FileDescriptor(FDKind.LISTEN))

    def _sys_bind(self, kernel: "Kernel", proc: Process) -> int:
        return 0

    def _sys_listen(self, kernel: "Kernel", proc: Process) -> int:
        return 0

    def _sys_accept(self, kernel: "Kernel", proc: Process) -> int:
        listen_fd = proc.fds.get(proc.machine.reg(R1))
        if listen_fd is None or listen_fd.kind is not FDKind.LISTEN:
            return EBADF
        if not proc.pending_connections:
            return EAGAIN
        conn = proc.pending_connections.pop(0)
        proc.accepted_connections.append(conn)
        return proc.allocate_fd(FileDescriptor(FDKind.CONN, conn=conn))

    def _sys_recv(self, kernel: "Kernel", proc: Process) -> int:
        return self._sys_read(kernel, proc)

    def _sys_send(self, kernel: "Kernel", proc: Process) -> int:
        return self._sys_write(kernel, proc)

    # -- misc ---------------------------------------------------------------------------

    def _sys_ptrace(self, kernel: "Kernel", proc: Process) -> int:
        if proc.machine.reg(R1) == PTRACE_TRACEME:
            proc.traced = True
            return 0
        return EINVAL

    def _sys_getpid(self, kernel: "Kernel", proc: Process) -> int:
        return proc.pid

    def _sys_brk(self, kernel: "Kernel", proc: Process) -> int:
        request = proc.machine.reg(R1)
        if request == 0:
            return proc.heap_brk
        if request < HEAP_BASE or request >= MMAP_BASE:
            return EINVAL
        if request > proc.heap_brk:
            proc.machine.memory.map_demand_zero(
                proc.heap_brk, request - proc.heap_brk, PROT_READ | PROT_WRITE
            )
        proc.heap_brk = request
        return proc.heap_brk

    def _sys_unlink(self, kernel: "Kernel", proc: Process) -> int:
        path = self._read_path(proc, proc.machine.reg(R1))
        if path is None:
            return EFAULT
        return 0 if self.fs.unlink(path) else ENOENT


class SyscallInterposer:
    """A kernel module that wraps endpoint syscalls (§5.2): FlowGuard's
    monitor and the baseline defenses.

    :meth:`install` swaps each syscall in ``endpoints`` for
    ``_make_wrapper(nr)`` and keeps the original handler, which the
    wrapper calls to let the syscall proceed; :meth:`uninstall` puts
    the originals back.
    """

    endpoints: FrozenSet[int]

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._originals: Dict[int, SyscallHandler] = {}
        self._installed = False

    def install(self) -> None:
        """Swap the endpoint syscall-table entries for wrappers."""
        if self._installed:
            return
        for nr in self.endpoints:
            self._originals[nr] = self.kernel.install_handler(
                nr, self._make_wrapper(nr)
            )
        self._installed = True

    def uninstall(self) -> None:
        """Restore the original syscall table."""
        for nr, original in self._originals.items():
            self.kernel.install_handler(nr, original)
        self._originals.clear()
        self._installed = False

    def _make_wrapper(self, nr: int) -> SyscallHandler:
        """The handler that replaces syscall ``nr``."""
        raise NotImplementedError
