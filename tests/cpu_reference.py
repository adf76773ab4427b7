"""The per-instruction if-chain interpreter: the oracle for the CPU.

:class:`repro.cpu.executor.Executor` runs one predecoded dispatch loop.
This is the interpreter it replaced — decode to an :class:`Insn`, then
one ``if op is Op.X`` test per opcode, every register and flag access
through :class:`~repro.cpu.machine.Machine` — kept as the oracle the
loop is tested against in lock step (``tests/test_cpu_differential.py``).
It carries two fixes the loop made: DIV/MOD divide exactly, and a stack
fault reports the address of the faulting instruction.
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.executor import CPUFault, HaltReason
from repro.cpu.machine import Machine, U64_MASK, to_signed
from repro.cpu.memory import MemoryError_
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Insn, Op
from repro.isa.registers import SP, Cond


def cond_holds(cond: Cond, zf: bool, sf: bool) -> bool:
    """Evaluate condition ``cond`` against zero/sign flags."""
    if cond is Cond.EQ:
        return zf
    if cond is Cond.NE:
        return not zf
    if cond is Cond.LT:
        return sf and not zf
    if cond is Cond.LE:
        return sf or zf
    if cond is Cond.GT:
        return not sf and not zf
    return not sf or zf  # GE


class ReferenceExecutor:
    """Same surface as :class:`~repro.cpu.executor.Executor`."""

    def __init__(
        self,
        machine: Machine,
        syscall_handler: Optional[Callable[[Machine], None]] = None,
    ) -> None:
        self.machine = machine
        self.syscall_handler = syscall_handler
        self.listeners: List[Callable[[BranchEvent], None]] = []
        self.cycles = 0.0
        self.insn_count = 0
        self.stop_requested = False
        self._icache: Dict[int, Tuple[Insn, int]] = {}

    def add_listener(self, listener, kinds=None) -> None:
        """Subscribe ``listener``; ``kinds`` is accepted and ignored —
        the oracle delivers every kind, so a lock-step test can compare
        the loop's filtered delivery against the unfiltered stream."""
        self.listeners.append(listener)

    def remove_listener(self, listener) -> None:
        self.listeners.remove(listener)

    def flush_icache(self) -> None:
        self._icache.clear()

    def _emit(self, event: BranchEvent) -> None:
        for listener in self.listeners:
            listener(event)

    def _decode(self, ip: int) -> Tuple[Insn, int]:
        cached = self._icache.get(ip)
        if cached is not None:
            return cached
        try:
            window = self.machine.memory.fetch(ip, 1)
            op_byte = window[0]
            try:
                length = instruction_length(Op(op_byte))
            except ValueError as exc:
                raise DecodeError(f"invalid opcode {op_byte:#04x}") from exc
            raw = self.machine.memory.fetch(ip, length)
            insn, _ = decode_at(raw, 0)
        except (MemoryError_, DecodeError) as exc:
            raise CPUFault(f"fetch/decode fault: {exc}", ip) from exc
        self._icache[ip] = (insn, length)
        return insn, length

    def _push(self, value: int, ip: int) -> None:
        m = self.machine
        m.set_reg(SP, m.reg(SP) - 8)
        try:
            m.memory.write_u64(m.reg(SP), value)
        except MemoryError_ as exc:
            raise CPUFault(f"stack push fault: {exc}", ip) from exc

    def _pop(self, ip: int) -> int:
        m = self.machine
        try:
            value = m.memory.read_u64(m.reg(SP))
        except MemoryError_ as exc:
            raise CPUFault(f"stack pop fault: {exc}", ip) from exc
        m.set_reg(SP, m.reg(SP) + 8)
        return value

    def step(self) -> None:
        m = self.machine
        ip = m.ip
        insn, length = self._decode(ip)
        op = insn.op
        next_ip = ip + length
        self.cycles += costs.INSN_CYCLES[op]
        self.insn_count += 1
        m.ip = next_ip

        if op is Op.NOP:
            return
        if op is Op.HALT:
            m.halted = True
            return
        if op is Op.MOV_RI:
            m.set_reg(insn.rd, insn.imm)
            return
        if op is Op.MOV_RR:
            m.set_reg(insn.rd, m.reg(insn.rs))
            return
        if op is Op.LEA:
            m.set_reg(insn.rd, next_ip + insn.rel)
            return
        if op is Op.LOAD:
            try:
                m.set_reg(insn.rd, m.memory.read_u64(m.reg(insn.rb) + insn.off))
            except MemoryError_ as exc:
                raise CPUFault(f"load fault: {exc}", ip) from exc
            return
        if op is Op.STORE:
            try:
                m.memory.write_u64(m.reg(insn.rb) + insn.off, m.reg(insn.rs))
            except MemoryError_ as exc:
                raise CPUFault(f"store fault: {exc}", ip) from exc
            return
        if op is Op.LOADB:
            try:
                m.set_reg(insn.rd, m.memory.read_u8(m.reg(insn.rb) + insn.off))
            except MemoryError_ as exc:
                raise CPUFault(f"load fault: {exc}", ip) from exc
            return
        if op is Op.STOREB:
            try:
                m.memory.write_u8(m.reg(insn.rb) + insn.off, m.reg(insn.rs))
            except MemoryError_ as exc:
                raise CPUFault(f"store fault: {exc}", ip) from exc
            return
        if op is Op.PUSH:
            self._push(m.reg(insn.rs), ip)
            return
        if op is Op.POP:
            m.set_reg(insn.rd, self._pop(ip))
            return

        if op is Op.ADD or op is Op.ADDI:
            rhs = m.reg(insn.rs) if op is Op.ADD else insn.imm
            res = (m.reg(insn.rd) + rhs) & U64_MASK
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.SUB or op is Op.SUBI:
            rhs = m.reg(insn.rs) if op is Op.SUB else insn.imm
            res = (m.reg(insn.rd) - rhs) & U64_MASK
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.MUL or op is Op.MULI:
            rhs = m.reg(insn.rs) if op is Op.MUL else insn.imm
            res = (to_signed(m.reg(insn.rd)) * rhs) & U64_MASK
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.DIV or op is Op.MOD:
            divisor = to_signed(m.reg(insn.rs))
            if divisor == 0:
                raise CPUFault("divide by zero", ip)
            dividend = to_signed(m.reg(insn.rd))
            quot = abs(dividend) // abs(divisor)  # truncate toward zero
            if (dividend < 0) != (divisor < 0):
                quot = -quot
            res = quot if op is Op.DIV else dividend - quot * divisor
            m.set_reg(insn.rd, res & U64_MASK)
            return
        if op is Op.AND or op is Op.ANDI:
            rhs = m.reg(insn.rs) if op is Op.AND else insn.imm & U64_MASK
            res = m.reg(insn.rd) & rhs
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.OR:
            res = m.reg(insn.rd) | m.reg(insn.rs)
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.XOR:
            res = m.reg(insn.rd) ^ m.reg(insn.rs)
            m.set_reg(insn.rd, res)
            m.zf, m.sf = res == 0, bool(res >> 63)
            return
        if op is Op.SHL:
            res = (m.reg(insn.rd) << (m.reg(insn.rs) & 63)) & U64_MASK
            m.set_reg(insn.rd, res)
            return
        if op is Op.SHR:
            res = m.reg(insn.rd) >> (m.reg(insn.rs) & 63)
            m.set_reg(insn.rd, res)
            return
        if op is Op.CMP or op is Op.CMPI:
            rhs = to_signed(m.reg(insn.rs)) if op is Op.CMP else insn.imm
            diff = to_signed(m.reg(insn.rd)) - rhs
            m.zf, m.sf = diff == 0, diff < 0
            return

        if op is Op.JMP:
            target = next_ip + insn.rel
            m.ip = target
            self._emit(BranchEvent(CoFIKind.DIRECT_JMP, ip, target))
            return
        if op is Op.JCC:
            taken = cond_holds(Cond(insn.cc), m.zf, m.sf)
            target = next_ip + insn.rel if taken else next_ip
            m.ip = target
            self._emit(BranchEvent(CoFIKind.COND_BRANCH, ip, target, taken))
            return
        if op is Op.JMPR:
            target = m.reg(insn.rs)
            m.ip = target
            self._emit(BranchEvent(CoFIKind.INDIRECT_JMP, ip, target))
            return
        if op is Op.CALL:
            target = next_ip + insn.rel
            self._push(next_ip, ip)
            m.ip = target
            self._emit(BranchEvent(CoFIKind.DIRECT_CALL, ip, target))
            return
        if op is Op.CALLR:
            target = m.reg(insn.rs)
            self._push(next_ip, ip)
            m.ip = target
            self._emit(BranchEvent(CoFIKind.INDIRECT_CALL, ip, target))
            return
        if op is Op.RET:
            target = self._pop(ip)
            m.ip = target
            self._emit(BranchEvent(CoFIKind.RET, ip, target))
            return
        if op is Op.SYSCALL:
            self.cycles += costs.SYSCALL_BASE_CYCLES
            if self.syscall_handler is not None:
                self.syscall_handler(m)
            self._emit(BranchEvent(CoFIKind.FAR_TRANSFER, ip, m.ip))
            return

        raise CPUFault(f"unimplemented opcode {op.name}", ip)

    def run(self, max_steps: int = 10_000_000) -> HaltReason:
        m = self.machine
        step = self.step
        for _ in range(max_steps):
            if m.halted:
                return HaltReason.HALTED
            if self.stop_requested:
                self.stop_requested = False
                return HaltReason.INTERRUPTED
            step()
        if m.halted:
            return HaltReason.HALTED
        if self.stop_requested:
            self.stop_requested = False
            return HaltReason.INTERRUPTED
        return HaltReason.STEPS_EXHAUSTED
