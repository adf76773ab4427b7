"""The interpreter: fetch, decode, execute, retire CoFI events.

Each instruction is decoded once into a flat *predecoded entry* (see
:func:`predecode`) and executed by one dispatch loop,
:meth:`Executor._execute`, that :meth:`Executor.run` and
:meth:`Executor.step` share.  At a leader — after a CoFI or SYSCALL
retires — the loop runs the hot block entered there as one compiled
function with the guest registers in Python locals
(:mod:`repro.cpu.blocks`); everything a block does not cover runs one
instruction at a time.  While no listener subscribes to direct JMPs or
CALLs, the blocks are superblocks that run straight through those
CoFIs when their target is on the same page; the executor switches
between superblocks and basic blocks as listeners come and go.

Decoded code is shared between address spaces: on an icache miss the
executor takes the entry from the store of the module that owns the page
(:class:`repro.cpu.blocks.BlockStore`), once it has *attested* the page —
mapped EXEC and not WRITE, with bytes the store decoded.  Anything else
(code no module filed, an instruction that crosses into another page) is
fetched and decoded privately, and an instruction on a writable page is
decoded at every fetch and cached nowhere, so a store that rewrites code
takes effect at the next fetch, as on x86.

The icache, the block map and the attestations hold decoded code, so the
loop drops them whenever ``machine.memory`` is replaced (execve) or its
``code_epoch`` moves (an executable page re-mapped or re-protected,
including an mprotect that revokes EXEC).  It checks on entry and after
every call-out, the only times either can change.  Code patched in place
without a protection change needs :meth:`Executor.flush_icache`.

A listener that *takes runs* — an object with ``on_run(events)`` and
``run_room()`` beside the ``on_branch`` it subscribed, as the IPT encoder
has — is not called per event while it is the only subscriber of every
kind it takes.  The loop appends its events to a run instead, and hands
the run over before any other call-out, whenever the loop returns or
raises, and when the run reaches the room ``run_room()`` gave, reading
the room again then; with no room left, events go through ``on_branch``
one by one until a call-out makes room.  The taker promises that ``on_run``
is exactly ``on_branch`` applied to each event in turn, runs no foreign
code, reads nothing of the executor and keeps no reference to the list
it is given (the loop reuses it), so deferring changes nothing a
listener, a handler or the caller can observe.

Cycle accounting follows :mod:`repro.costs`; tracing hardware attached to
the event bus keeps its own cycle accounts which the experiment harnesses
combine with the CPU's.
"""

from __future__ import annotations

import enum
import struct
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple,
)

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.machine import Machine, U64_MASK, to_signed
from repro.cpu.memory import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_READ,
    PROT_WRITE,
    Memory,
    MemoryError_,
)
from repro.isa.encoding import (
    DecodeError,
    decode_at,
    instruction_length,
    operand_values,
)
from repro.isa.instructions import Insn, Op
from repro.isa.registers import SP, Cond

if TYPE_CHECKING:
    from repro.cpu.blocks import CodePage

Listener = Callable[[BranchEvent], None]

#: The order of the per-kind listener tuples in ``Executor._routes``:
#: the dispatch loop unpacks them into locals, one per kind, because
#: keying a dict by ``CoFIKind`` would pay ``Enum.__hash__`` (a Python
#: call) on every retired CoFI.
_ROUTE_KINDS = (
    CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL, CoFIKind.COND_BRANCH,
    CoFIKind.INDIRECT_JMP, CoFIKind.INDIRECT_CALL, CoFIKind.RET,
    CoFIKind.FAR_TRANSFER,
)
_ALL_KINDS = frozenset(_ROUTE_KINDS)
#: Per subscribed set of kinds, the ``_ROUTE_KINDS`` indices of its
#: kinds (filled on first sight of a set), so rerouting hashes no
#: ``CoFIKind``.
_ROUTE_INDICES: Dict[frozenset, Tuple[int, ...]] = {}
#: The kinds whose CoFIs a superblock runs through without publishing.
_JMP_ROUTE = _ROUTE_KINDS.index(CoFIKind.DIRECT_JMP)
_CALL_ROUTE = _ROUTE_KINDS.index(CoFIKind.DIRECT_CALL)
_new_event = tuple.__new__
#: The route of a kind whose events the loop appends to a run for the
#: listener that takes runs, instead of calling it (see
#: :meth:`Executor._reroute`).
_DEFER = (None,)

#: The block map's entry for a leader where no compiled block can run.
NO_BLOCK = ()

#: Jcc outcome per condition code, indexed by the flags word
#: ``2 * zf + sf`` (the form the dispatch loop keeps the flags in).
COND_TAKEN = {
    Cond.EQ: (False, False, True, True),
    Cond.NE: (True, True, False, False),
    Cond.LT: (False, True, False, False),
    Cond.LE: (False, True, True, True),
    Cond.GT: (True, False, False, False),
    Cond.GE: (True, False, True, True),
}

_SIGN = 1 << 63
_U64 = struct.Struct("<Q")

# Opcodes the dispatch loop tests, in the order it tests them: the
# dynamic frequency of the server workloads' instructions from before
# compiled blocks ran most of them.  The loop now interprets mostly
# SYSCALLs, which no block holds (4,355 of the 8,429 instructions it
# runs in an ``nginx-knee`` unit of 460,000), and the rest in about this
# order.  LEA predecodes to MOV_RI.  ``Executor._execute`` unpacks these
# into locals of the same names, in this order.
_DISPATCH_ORDER = (
    Op.LOAD, Op.PUSH, Op.POP, Op.MOV_RR, Op.MOV_RI, Op.STORE, Op.ADD,
    Op.JMP, Op.JCC, Op.CMP, Op.LOADB, Op.SYSCALL, Op.SUB, Op.RET,
    Op.SUBI, Op.CALL, Op.JMPR, Op.ADDI, Op.STOREB, Op.CMPI, Op.MUL,
    Op.CALLR, Op.MULI, Op.AND, Op.ANDI, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.DIV, Op.MOD, Op.HALT, Op.NOP,
)
_DISPATCH_INTS = tuple(int(op) for op in _DISPATCH_ORDER)


def fetch_insn(memory: Memory, ip: int) -> Tuple[Insn, int]:
    """Fetch (EXEC enforced) and decode the instruction at ``ip``: the
    instruction and its length.

    Raises :class:`MemoryError_` or :class:`DecodeError`.
    """
    op_byte = memory.fetch(ip, 1)[0]
    try:
        length = instruction_length(Op(op_byte))
    except ValueError as exc:
        raise DecodeError(f"invalid opcode {op_byte:#04x}") from exc
    return decode_at(memory.fetch(ip, length), 0)[0], length


class CPUFault(Exception):
    """A hardware fault: bad fetch, access violation, divide by zero."""

    def __init__(self, message: str, ip: int) -> None:
        super().__init__(f"{message} (ip={ip:#x})")
        self.ip = ip


class HaltReason(enum.Enum):
    HALTED = "halted"
    STEPS_EXHAUSTED = "steps_exhausted"
    INTERRUPTED = "interrupted"


def predecode(insn: Insn, ip: int, length: int) -> tuple:
    """The flat icache entry for ``insn`` decoded at ``ip``.

    Every entry is ``(op, cost, next_ip, operands...)``: ``op`` the
    opcode as a plain int, ``cost`` its cycle charge as a float.  The
    operands are the instruction's own, in encoding order, except where
    decode time can do the work once:

    - ``MOV_RI rd, value`` with the value masked to 64 bits; LEA
      predecodes to this form with its resolved address;
    - ``ANDI rd, imm`` with the immediate masked to 64 bits;
    - ``CMPI rd, imm, biased`` with the immediate as a 64-bit word and
      that word with its sign bit flipped (a signed compare of two words
      is an unsigned compare of their biased forms);
    - ``JMP``/``CALL target, event`` with the branch resolved and its
      :class:`BranchEvent` built;
    - ``JCC dsts, events``: destination and event for each flags word
      ``2 * zf + sf``;
    - ``SYSCALL base_cycles``: the kernel entry/exit charge.
    """
    op = insn.op
    cost = float(costs.INSN_CYCLES[op])
    next_ip = ip + length
    if op is Op.MOV_RI or op is Op.LEA:
        value = insn.imm if op is Op.MOV_RI else next_ip + insn.rel
        return (int(Op.MOV_RI), cost, next_ip, insn.rd, value & U64_MASK)
    if op is Op.ANDI:
        return (int(op), cost, next_ip, insn.rd, insn.imm & U64_MASK)
    if op is Op.CMPI:
        word = insn.imm & U64_MASK
        return (int(op), cost, next_ip, insn.rd, word, word ^ _SIGN)
    if op is Op.JMP or op is Op.CALL:
        target = next_ip + insn.rel
        kind = CoFIKind.DIRECT_JMP if op is Op.JMP else CoFIKind.DIRECT_CALL
        return (int(op), cost, next_ip, target,
                BranchEvent(kind, ip, target))
    if op is Op.JCC:
        target = next_ip + insn.rel
        taken = BranchEvent(CoFIKind.COND_BRANCH, ip, target, True)
        fallthrough = BranchEvent(CoFIKind.COND_BRANCH, ip, next_ip, False)
        outcomes = COND_TAKEN[Cond(insn.cc)]
        return (
            int(op), cost, next_ip,
            tuple(target if t else next_ip for t in outcomes),
            tuple(taken if t else fallthrough for t in outcomes),
        )
    if op is Op.SYSCALL:
        return (int(op), cost, next_ip, float(costs.SYSCALL_BASE_CYCLES))
    return (int(op), cost, next_ip) + operand_values(insn)


class Executor:
    """Interprets encoded instructions from a machine's memory.

    Contract with the code the loop calls out to (listeners, the syscall
    handler): ``cycles``, ``insn_count`` and the machine's ``ip`` and
    flags are current whenever it runs, and anything it changes —
    including replacing ``machine.regs`` or ``machine.memory``, and
    subscribing or removing listeners — is picked up before the next
    instruction.  A listener is called only for the CoFI kinds it
    subscribed to; a CoFI whose kind nobody subscribed to builds no
    event and makes no call-out.  A listener that takes runs gets its
    events in runs while it is their kinds' only subscriber (see the
    module docstring).
    """

    def __init__(
        self,
        machine: Machine,
        syscall_handler: Optional[Callable[[Machine], None]] = None,
    ) -> None:
        self.machine = machine
        self.syscall_handler = syscall_handler
        #: Subscribed listeners, in subscription order, and the kinds
        #: each one receives, as ``_ROUTE_KINDS`` indices.
        self.listeners: List[Listener] = []
        self._listener_kinds: List[Tuple[int, ...]] = []
        #: One tuple of listeners per kind, in ``_ROUTE_KINDS`` order.
        self._routes: Tuple[tuple, ...] = ((),) * len(_ROUTE_KINDS)
        #: While a listener that takes runs is the only subscriber of
        #: every kind it takes: the routes with those kinds set to
        #: :data:`_DEFER`, its ``on_run`` and its ``run_room``.
        self._runs: Optional[tuple] = None
        #: The events the loop has deferred and not yet handed over.
        self._run: List[BranchEvent] = []
        self.cycles = 0.0
        self.insn_count = 0
        #: Interrupt line: listeners (a ToPA PMI, a scheduler) assert it
        #: to stop :meth:`run` at the next instruction boundary.  The
        #: line auto-deasserts when the run loop observes it.
        self.stop_requested = False
        self._icache: Dict[int, tuple] = {}
        #: The block map: leader ip -> compiled block this address space
        #: may run (:mod:`repro.cpu.blocks`), or :data:`NO_BLOCK`.
        self._blocks: Dict[int, tuple] = {}
        #: Whether the block map holds superblocks: no listener wants
        #: direct JMPs or CALLs (see :meth:`_reroute`).
        self._chain = True
        #: Attested code pages: page number -> the store's page whose
        #: entries and blocks this address space runs, or None.
        self._code_pages: Dict[int, Optional["CodePage"]] = {}
        #: The memory and code epoch the caches were filled from.
        self._code_memory = machine.memory
        self._code_epoch = machine.memory.code_epoch

    # -- instrumentation ---------------------------------------------------

    def add_listener(
        self,
        listener: Listener,
        kinds: Optional[Iterable[CoFIKind]] = None,
    ) -> None:
        """Subscribe to retired CoFI events of ``kinds`` (None: every
        kind)."""
        kinds = _ALL_KINDS if kinds is None else frozenset(kinds)
        indices = _ROUTE_INDICES.get(kinds)
        if indices is None:
            indices = _ROUTE_INDICES[kinds] = tuple(
                index for index, kind in enumerate(_ROUTE_KINDS)
                if kind in kinds
            )
        self.listeners.append(listener)
        self._listener_kinds.append(indices)
        self._reroute()

    def remove_listener(self, listener: Listener) -> None:
        """Unsubscribe ``listener``; ``ValueError`` if it is not
        subscribed."""
        index = self.listeners.index(listener)
        del self.listeners[index]
        del self._listener_kinds[index]
        self._reroute()

    def _reroute(self) -> None:
        """Rebuild the per-kind routes.

        A listener that takes runs (see the module docstring) gets them
        while it is the only subscriber of every kind it takes;
        otherwise it is called per event, and the executor keeps no
        reference to it beyond ``listeners``.  Superblocks run through
        direct JMPs and CALLs without publishing them, so the block map
        switches between superblocks and basic blocks (and is dropped)
        when a listener for either kind comes or goes."""
        pairs = list(zip(self.listeners, self._listener_kinds))
        routes = [()] * len(_ROUTE_KINDS)
        for fn, indices in pairs:
            for index in indices:
                routes[index] += (fn,)
        self._routes = tuple(routes)
        chain = not (routes[_JMP_ROUTE] or routes[_CALL_ROUTE])
        self._runs = None
        for fn, indices in pairs:
            owner = getattr(fn, "__self__", None)
            on_run = getattr(owner, "on_run", None)
            if on_run is None or fn != getattr(owner, "on_branch", None):
                continue
            alone = (fn,)
            for index in indices:
                if routes[index] != alone:
                    break
            else:
                for index in indices:
                    routes[index] = _DEFER
                self._runs = (tuple(routes), on_run, owner.run_room)
                break
        if chain != self._chain:
            self._chain = chain
            self._blocks.clear()

    def flush_icache(self) -> None:
        """Drop decoded instructions, the block map and the attestations.

        The loop drops them by itself when ``machine.memory`` is replaced
        or its ``code_epoch`` moves; code patched in place (``write_raw``)
        needs this call.
        """
        self._icache.clear()
        self._blocks.clear()
        self._code_pages.clear()

    def _sync_code(self) -> int:
        """Flush if the machine's memory was replaced or its code
        re-mapped since the caches were filled; returns the epoch."""
        memory = self.machine.memory
        epoch = memory.code_epoch
        if memory is not self._code_memory or epoch != self._code_epoch:
            self.flush_icache()
            self._code_memory = memory
            self._code_epoch = epoch
        return epoch

    # -- fetch/decode -------------------------------------------------------

    def _code_page(self, pageno: int) -> Optional["CodePage"]:
        """The store's page this address space runs at ``pageno``,
        attested on first use; None when the page takes the private
        path."""
        try:
            return self._code_pages[pageno]
        except KeyError:
            memory = self.machine.memory
            store = memory.block_store(pageno << PAGE_SHIFT)
            page = self._code_pages[pageno] = (
                store.attest(memory, pageno) if store is not None else None
            )
            return page

    def _predecode(self, ip: int) -> tuple:
        page = self._code_page(ip >> PAGE_SHIFT)
        entry = page.entry(ip) if page is not None else None
        if entry is None:
            memory = self.machine.memory
            try:
                insn, length = fetch_insn(memory, ip)
            except (MemoryError_, DecodeError) as exc:
                raise CPUFault(f"fetch/decode fault: {exc}", ip) from exc
            entry = predecode(insn, ip, length)
            if memory.writable(ip, length):
                return entry  # a store may rewrite it before the next fetch
        self._icache[ip] = entry
        return entry

    def _block_at(self, ip: int):
        """The compiled block entered at leader ``ip`` — a superblock
        while no listener wants direct JMPs or CALLs — remembered in the
        block map once it is known; falsy when there is none (yet)."""
        page = self._code_page(ip >> PAGE_SHIFT)
        block = (page.block(ip, self._chain) if page is not None
                 else NO_BLOCK)
        if block is None:
            return NO_BLOCK
        self._blocks[ip] = block
        return block

    # -- execute ------------------------------------------------------------

    def step(self) -> None:
        """Execute a single instruction."""
        self._execute(1, False)

    def run(self, max_steps: int = 10_000_000) -> HaltReason:
        """Run until halt, interrupt, or ``max_steps`` retirements."""
        return self._execute(max_steps, True)

    def _halt_reason(self) -> HaltReason:
        if self.machine.halted:
            return HaltReason.HALTED
        if self.stop_requested:
            self.stop_requested = False
            return HaltReason.INTERRUPTED
        return HaltReason.STEPS_EXHAUSTED

    def _live_routes(self) -> Tuple[Tuple[tuple, ...], int]:
        """The routes the loop publishes through, and how many events it
        may defer before it hands its run over: the deferring routes
        while the run taker has room for an event, else the per-event
        ones (and 0)."""
        runs = self._runs
        if runs is not None:
            left = runs[2]()
            if left > 0:
                return runs[0], left
        return self._routes, 0

    def _hand_over(self) -> None:
        """Pass the deferred events to the run taker."""
        run = self._run
        self._runs[1](run)
        run.clear()

    def _write_back(self, ip: int, cycles: float, count: int, flags) -> None:
        """Store the dispatch loop's local state on the machine, and hand
        its deferred events over: the loop does this before it calls out
        and whenever it returns or raises."""
        m = self.machine
        m.ip = ip
        m.zf = flags >= 2
        m.sf = (flags & 1) == 1
        self.cycles = cycles
        self.insn_count = count
        if self._run:
            self._hand_over()

    def _fault(self, message: str, pc: int, ip: int, cycles: float,
               count: int, flags) -> CPUFault:
        self._write_back(ip, cycles, count, flags)
        return CPUFault(message, pc)

    def _execute(self, steps: int, lines: bool) -> Optional[HaltReason]:
        """The dispatch loop: retire up to ``steps`` instructions.

        With ``lines`` (``run``) the halt flag and interrupt line end the
        loop at an instruction boundary and the reason is returned;
        without (``step``) the instruction executes regardless.  Both
        can only change while the loop calls out (HALT aside), so they
        are tested on entry and after each call-out.

        At a leader — after a CoFI or SYSCALL retires — the loop runs
        compiled blocks (:mod:`repro.cpu.blocks`) for as long as one is
        known there and fits the remaining budget, publishing each
        block's CoFI as it would its own; everything else runs one
        instruction at a time.

        Events of deferred kinds go into ``self._run``; ``left`` counts
        the events that still fit the run taker's room, and the loop
        holds the deferring routes only while ``left`` is positive.
        """
        m = self.machine
        if lines and (m.halted or self.stop_requested):
            return self._halt_reason()
        (LOAD, PUSH, POP, MOV_RR, MOV_RI, STORE, ADD, JMP, JCC, CMP, LOADB,
         SYSCALL, SUB, RET, SUBI, CALL, JMPR, ADDI, STOREB, CMPI, MUL,
         CALLR, MULI, AND, ANDI, OR, XOR, SHL, SHR, DIV, MOD, HALT,
         NOP) = _DISPATCH_INTS
        MASK = U64_MASK
        SIGN = _SIGN
        SHIFT = PAGE_SHIFT
        OFFSET = PAGE_SIZE - 1
        LAST = PAGE_SIZE - 8  # a u64 at a higher offset crosses pages
        READ = PROT_READ
        WRITE = PROT_WRITE
        unpack = _U64.unpack_from
        pack = _U64.pack_into
        K_JMPR = CoFIKind.INDIRECT_JMP
        K_CALLR = CoFIKind.INDIRECT_CALL
        K_RET = CoFIKind.RET
        K_FAR = CoFIKind.FAR_TRANSFER
        event = _new_event
        Event = BranchEvent
        icache = self._icache
        blocks = self._blocks
        DEFER = _DEFER
        run = self._run
        run_append = run.append
        routes, left = self._live_routes()
        (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
         to_far) = routes
        regs = m.regs
        epoch = self._sync_code()
        mem = m.memory
        pages, prots = mem.tables()
        ip = m.ip
        fl = (m.zf << 1) | m.sf  # flags word: 2 * zf + sf
        cycles = self.cycles
        n = self.insn_count
        limit = n + steps
        while n < limit:
            pc = ip
            try:
                e = icache[pc]
            except KeyError:
                try:
                    e = self._predecode(pc)
                except CPUFault:
                    self._write_back(pc, cycles, n, fl)
                    raise
            op = e[0]
            cycles += e[1]
            n += 1
            ip = e[2]

            if op == LOAD:
                a = regs[e[4]] + e[5]
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & READ:
                    regs[e[3]] = unpack(pages[a >> SHIFT], o)[0]
                else:
                    try:
                        regs[e[3]] = mem.read_u64(a)
                    except MemoryError_ as exc:
                        raise self._fault(f"load fault: {exc}", pc, ip,
                                          cycles, n, fl) from exc
                continue
            elif op == PUSH:
                v = regs[e[3]]
                a = regs[SP] = (regs[SP] - 8) & MASK
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & WRITE:
                    pack(pages[a >> SHIFT], o, v)
                else:
                    try:
                        mem.write_u64(a, v)
                    except MemoryError_ as exc:
                        raise self._fault(f"stack push fault: {exc}", pc,
                                          ip, cycles, n, fl) from exc
                continue
            elif op == POP:
                a = regs[SP]
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & READ:
                    v = unpack(pages[a >> SHIFT], o)[0]
                else:
                    try:
                        v = mem.read_u64(a)
                    except MemoryError_ as exc:
                        raise self._fault(f"stack pop fault: {exc}", pc,
                                          ip, cycles, n, fl) from exc
                regs[SP] = (a + 8) & MASK
                regs[e[3]] = v
                continue
            elif op == MOV_RR:
                regs[e[3]] = regs[e[4]]
                continue
            elif op == MOV_RI:
                regs[e[3]] = e[4]
                continue
            elif op == STORE:
                a = regs[e[3]] + e[4]
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & WRITE:
                    pack(pages[a >> SHIFT], o, regs[e[5]])
                else:
                    try:
                        mem.write_u64(a, regs[e[5]])
                    except MemoryError_ as exc:
                        raise self._fault(f"store fault: {exc}", pc, ip,
                                          cycles, n, fl) from exc
                continue
            elif op == ADD:
                r = regs[e[3]] = (regs[e[3]] + regs[e[4]]) & MASK
                fl = r >> 63 if r else 2
                continue
            elif op == JMP:
                ip = e[3]
                out = to_jmp
                ev = e[4]
            elif op == JCC:
                ip = e[3][fl]
                out = to_jcc
                ev = e[4][fl]
            elif op == CMP:
                a = regs[e[3]]
                b = regs[e[4]]
                fl = 2 if a == b else (a ^ SIGN) < (b ^ SIGN)
                continue
            elif op == LOADB:
                a = regs[e[4]] + e[5]
                if prots.get(a >> SHIFT, 0) & READ:
                    regs[e[3]] = pages[a >> SHIFT][a & OFFSET]
                else:
                    try:
                        regs[e[3]] = mem.read_u8(a)
                    except MemoryError_ as exc:
                        raise self._fault(f"load fault: {exc}", pc, ip,
                                          cycles, n, fl) from exc
                continue
            elif op == SYSCALL:
                cycles += e[3]
                handler = self.syscall_handler
                if handler is not None:
                    # The handler may rewrite machine state (exit,
                    # execve, sigreturn), charge cycles, re-map code and
                    # subscribe listeners (execve protecting the new
                    # image).
                    self._write_back(ip, cycles, n, fl)
                    handler(m)
                    regs = m.regs
                    if m.memory is not mem or mem.code_epoch != epoch:
                        epoch = self._sync_code()
                        mem = m.memory
                        pages, prots = mem.tables()
                    ip = m.ip
                    fl = (m.zf << 1) | m.sf
                    cycles = self.cycles
                    limit += self.insn_count - n
                    n = self.insn_count
                    routes, left = self._live_routes()
                    (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
                     to_far) = routes
                out = to_far
                if out:
                    # Far transfer: destination reflects any handler
                    # redirection (e.g. sigreturn), matching what IPT
                    # would trace on resume.
                    ev = event(Event, (K_FAR, pc, ip, True))
                    if out is DEFER and lines and (m.halted
                                                   or self.stop_requested):
                        run_append(ev)  # the exit hands it over
                        break
                elif lines and (m.halted or self.stop_requested):
                    break
            elif op == SUB:
                r = regs[e[3]] = (regs[e[3]] - regs[e[4]]) & MASK
                fl = r >> 63 if r else 2
                continue
            elif op == RET:
                a = regs[SP]
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & READ:
                    ip = unpack(pages[a >> SHIFT], o)[0]
                else:
                    try:
                        ip = mem.read_u64(a)
                    except MemoryError_ as exc:
                        raise self._fault(f"stack pop fault: {exc}", pc,
                                          ip, cycles, n, fl) from exc
                regs[SP] = (a + 8) & MASK
                out = to_ret
                if out:
                    ev = event(Event, (K_RET, pc, ip, True))
            elif op == SUBI:
                r = regs[e[3]] = (regs[e[3]] - e[4]) & MASK
                fl = r >> 63 if r else 2
                continue
            elif op == CALL or op == CALLR:
                target = e[3] if op == CALL else regs[e[3]]
                a = regs[SP] = (regs[SP] - 8) & MASK
                o = a & OFFSET
                if o <= LAST and prots.get(a >> SHIFT, 0) & WRITE:
                    pack(pages[a >> SHIFT], o, ip)
                else:
                    try:
                        mem.write_u64(a, ip)
                    except MemoryError_ as exc:
                        raise self._fault(f"stack push fault: {exc}", pc,
                                          ip, cycles, n, fl) from exc
                ip = target
                if op == CALL:
                    out = to_call
                    ev = e[4]
                else:
                    out = to_callr
                    if out:
                        ev = event(Event, (K_CALLR, pc, target, True))
            elif op == JMPR:
                ip = regs[e[3]]
                out = to_jmpr
                if out:
                    ev = event(Event, (K_JMPR, pc, ip, True))
            elif op == ADDI:
                r = regs[e[3]] = (regs[e[3]] + e[4]) & MASK
                fl = r >> 63 if r else 2
                continue
            elif op == STOREB:
                a = regs[e[3]] + e[4]
                if prots.get(a >> SHIFT, 0) & WRITE:
                    pages[a >> SHIFT][a & OFFSET] = regs[e[5]] & 0xFF
                else:
                    try:
                        mem.write_u8(a, regs[e[5]])
                    except MemoryError_ as exc:
                        raise self._fault(f"store fault: {exc}", pc, ip,
                                          cycles, n, fl) from exc
                continue
            elif op == CMPI:
                a = regs[e[3]]
                fl = 2 if a == e[4] else (a ^ SIGN) < e[5]
                continue
            elif op == MUL or op == MULI:
                rhs = regs[e[4]] if op == MUL else e[4]
                r = regs[e[3]] = (regs[e[3]] * rhs) & MASK
                fl = r >> 63 if r else 2
                continue
            elif op == AND or op == ANDI:
                rhs = regs[e[4]] if op == AND else e[4]
                r = regs[e[3]] = regs[e[3]] & rhs
                fl = r >> 63 if r else 2
                continue
            elif op == OR:
                r = regs[e[3]] = regs[e[3]] | regs[e[4]]
                fl = r >> 63 if r else 2
                continue
            elif op == XOR:
                r = regs[e[3]] = regs[e[3]] ^ regs[e[4]]
                fl = r >> 63 if r else 2
                continue
            elif op == SHL:
                regs[e[3]] = (regs[e[3]] << (regs[e[4]] & 63)) & MASK
                continue
            elif op == SHR:
                regs[e[3]] = regs[e[3]] >> (regs[e[4]] & 63)
                continue
            elif op == DIV or op == MOD:
                divisor = to_signed(regs[e[4]])
                if divisor == 0:
                    raise self._fault("divide by zero", pc, ip, cycles, n,
                                      fl)
                dividend = to_signed(regs[e[3]])
                # Exact integer division, truncating toward zero.
                quot = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quot = -quot
                r = quot if op == DIV else dividend - quot * divisor
                regs[e[3]] = r & MASK
                continue
            elif op == HALT:
                m.halted = True
                break
            elif op == NOP:
                continue
            else:
                raise self._fault(f"unimplemented opcode {op:#04x}", pc, ip,
                                  cycles, n, fl)

            # A CoFI or SYSCALL retired, so ``ip`` is a leader.  Each
            # pass publishes the CoFI just retired (``ev``) if listeners
            # subscribed to its kind (``out``) — appended to the run if
            # its kind is deferred, else with the run handed over and the
            # machine state current, picking up whatever the listeners
            # changed — then runs the compiled block at the new leader,
            # if one is known and fits the budget.
            while True:
                if out is DEFER:
                    run_append(ev)
                    left -= 1
                    if not left:
                        self._hand_over()
                        routes, left = self._live_routes()
                        (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
                         to_far) = routes
                elif out:
                    if run:
                        self._hand_over()
                    m.ip = ip
                    m.zf = fl >= 2
                    m.sf = (fl & 1) == 1
                    self.cycles = cycles
                    self.insn_count = n
                    for listener in out:
                        listener(ev)
                    regs = m.regs
                    if m.memory is not mem or mem.code_epoch != epoch:
                        epoch = self._sync_code()
                        mem = m.memory
                        pages, prots = mem.tables()
                    ip = m.ip
                    fl = (m.zf << 1) | m.sf
                    cycles = self.cycles
                    limit += self.insn_count - n
                    n = self.insn_count
                    routes, left = self._live_routes()
                    (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
                     to_far) = routes
                    if lines and (m.halted or self.stop_requested):
                        self._write_back(ip, cycles, n, fl)
                        return self._halt_reason()
                if n >= limit:
                    break
                b = blocks.get(ip)
                if b is None:
                    b = self._block_at(ip)
                if not b or n + b[1] > limit:
                    break
                ip, cycles, fl, k = b[0](regs, pages, prots, cycles, fl)
                n += k
                if k != b[1] or b[2] < 0:
                    # It bailed, or ended before a SYSCALL or HALT: the
                    # loop takes over at ``ip``, which is no leader.
                    break
                out = routes[b[2]]
                if out:
                    ev = b[3]
                    ev = (ev[fl] if ev is not None
                          else event(Event, (b[4], b[5], ip, True)))

        self._write_back(ip, cycles, n, fl)
        if lines:
            return self._halt_reason()
        return None
