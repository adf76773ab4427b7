"""The interpreter: fetch, decode, execute, retire CoFI events.

Each instruction is decoded once per address into a flat *predecoded
entry* (see :func:`predecode`) and executed by one dispatch loop,
:meth:`Executor._execute`, that :meth:`Executor.run` and
:meth:`Executor.step` share.  Code pages are read-only under the W^X
assumption, so the cache needs no invalidation during a run;
:meth:`Executor.flush_icache` exists for loaders and mprotect that
re-map code.

Cycle accounting follows :mod:`repro.costs`; tracing hardware attached to
the event bus keeps its own cycle accounts which the experiment harnesses
combine with the CPU's.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.machine import Machine, U64_MASK, to_signed
from repro.cpu.memory import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_READ,
    PROT_WRITE,
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
_new_event = tuple.__new__

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

# Opcodes the dispatch loop tests, in the order it tests them: roughly
# descending dynamic frequency on the server workloads.  LEA predecodes
# to MOV_RI.  ``Executor._execute`` unpacks these into locals of the
# same names, in this order.
_DISPATCH_ORDER = (
    Op.LOAD, Op.PUSH, Op.POP, Op.MOV_RR, Op.MOV_RI, Op.STORE, Op.ADD,
    Op.JMP, Op.JCC, Op.CMP, Op.LOADB, Op.SYSCALL, Op.SUB, Op.RET,
    Op.SUBI, Op.CALL, Op.JMPR, Op.ADDI, Op.STOREB, Op.CMPI, Op.MUL,
    Op.CALLR, Op.MULI, Op.AND, Op.ANDI, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.DIV, Op.MOD, Op.HALT, Op.NOP,
)
_DISPATCH_INTS = tuple(int(op) for op in _DISPATCH_ORDER)


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
    event and makes no call-out.
    """

    def __init__(
        self,
        machine: Machine,
        syscall_handler: Optional[Callable[[Machine], None]] = None,
    ) -> None:
        self.machine = machine
        self.syscall_handler = syscall_handler
        #: Subscribed listeners, in subscription order, and the kinds
        #: each one receives.
        self.listeners: List[Listener] = []
        self._listener_kinds: List[frozenset] = []
        #: One tuple of listeners per kind, in ``_ROUTE_KINDS`` order.
        self._routes: Tuple[tuple, ...] = ((),) * len(_ROUTE_KINDS)
        self.cycles = 0.0
        self.insn_count = 0
        #: Interrupt line: listeners (a ToPA PMI, a scheduler) assert it
        #: to stop :meth:`run` at the next instruction boundary.  The
        #: line auto-deasserts when the run loop observes it.
        self.stop_requested = False
        self._icache: Dict[int, tuple] = {}

    # -- instrumentation ---------------------------------------------------

    def add_listener(
        self,
        listener: Listener,
        kinds: Optional[Iterable[CoFIKind]] = None,
    ) -> None:
        """Subscribe to retired CoFI events of ``kinds`` (None: every
        kind)."""
        self.listeners.append(listener)
        self._listener_kinds.append(
            _ALL_KINDS if kinds is None else frozenset(kinds)
        )
        self._reroute()

    def remove_listener(self, listener: Listener) -> None:
        """Unsubscribe ``listener``; ``ValueError`` if it is not
        subscribed."""
        index = self.listeners.index(listener)
        del self.listeners[index]
        del self._listener_kinds[index]
        self._reroute()

    def _reroute(self) -> None:
        pairs = list(zip(self.listeners, self._listener_kinds))
        self._routes = tuple(
            tuple(fn for fn, kinds in pairs if kind in kinds)
            for kind in _ROUTE_KINDS
        )

    def flush_icache(self) -> None:
        """Drop decoded-instruction cache (after remapping code pages)."""
        self._icache.clear()

    # -- fetch/decode -------------------------------------------------------

    def _predecode(self, ip: int) -> tuple:
        memory = self.machine.memory
        # Fetch a maximal instruction window; instructions are <= 10 bytes.
        try:
            op_byte = memory.fetch(ip, 1)[0]
            try:
                length = instruction_length(Op(op_byte))
            except ValueError as exc:
                raise DecodeError(f"invalid opcode {op_byte:#04x}") from exc
            insn, _ = decode_at(memory.fetch(ip, length), 0)
        except (MemoryError_, DecodeError) as exc:
            raise CPUFault(f"fetch/decode fault: {exc}", ip) from exc
        entry = self._icache[ip] = predecode(insn, ip, length)
        return entry

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

    def _write_back(self, ip: int, cycles: float, count: int, flags) -> None:
        """Store the dispatch loop's local state on the machine."""
        m = self.machine
        m.ip = ip
        m.zf = flags >= 2
        m.sf = (flags & 1) == 1
        self.cycles = cycles
        self.insn_count = count

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
        (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
         to_far) = self._routes
        regs = m.regs
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
                if not to_jmp:
                    continue
                ev = e[4]
                out = to_jmp
            elif op == JCC:
                ip = e[3][fl]
                if not to_jcc:
                    continue
                ev = e[4][fl]
                out = to_jcc
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
                    # execve, sigreturn) and charge cycles.
                    self._write_back(ip, cycles, n, fl)
                    handler(m)
                    regs = m.regs
                    if m.memory is not mem:
                        mem = m.memory
                        pages, prots = mem.tables()
                    ip = m.ip
                    fl = (m.zf << 1) | m.sf
                    cycles = self.cycles
                    limit += self.insn_count - n
                    n = self.insn_count
                    # The handler may subscribe listeners (execve
                    # protecting the new image).
                    (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
                     to_far) = self._routes
                if not to_far:
                    if lines and (m.halted or self.stop_requested):
                        break
                    continue
                # Far transfer: destination reflects any handler
                # redirection (e.g. sigreturn), matching what IPT would
                # trace on resume.
                ev = event(Event, (K_FAR, pc, ip, True))
                out = to_far
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
                if not to_ret:
                    continue
                ev = event(Event, (K_RET, pc, ip, True))
                out = to_ret
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
                    if not to_call:
                        continue
                    ev = e[4]
                    out = to_call
                else:
                    if not to_callr:
                        continue
                    ev = event(Event, (K_CALLR, pc, target, True))
                    out = to_callr
            elif op == JMPR:
                ip = regs[e[3]]
                if not to_jmpr:
                    continue
                ev = event(Event, (K_JMPR, pc, ip, True))
                out = to_jmpr
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

            # A CoFI retired with listeners subscribed to its kind
            # (``out``): publish its event with the machine state
            # current, then pick up whatever the listeners changed.
            m.ip = ip
            m.zf = fl >= 2
            m.sf = (fl & 1) == 1
            self.cycles = cycles
            self.insn_count = n
            for listener in out:
                listener(ev)
            regs = m.regs
            if m.memory is not mem:
                mem = m.memory
                pages, prots = mem.tables()
            ip = m.ip
            fl = (m.zf << 1) | m.sf
            cycles = self.cycles
            limit += self.insn_count - n
            n = self.insn_count
            (to_jmp, to_call, to_jcc, to_jmpr, to_callr, to_ret,
             to_far) = self._routes
            if lines and (m.halted or self.stop_requested):
                break

        self._write_back(ip, cycles, n, fl)
        if lines:
            return self._halt_reason()
        return None
