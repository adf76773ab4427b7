"""Architectural machine state: registers, flags, instruction pointer."""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.memory import Memory
from repro.isa.registers import NUM_REGS

U64_MASK = 0xFFFFFFFFFFFFFFFF


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    value &= U64_MASK
    return value - (1 << 64) if value >> 63 else value


class Machine:
    """Register file, flags and instruction pointer over a memory."""

    def __init__(self, memory: Optional[Memory] = None) -> None:
        self.memory = memory if memory is not None else Memory()
        self.regs: List[int] = [0] * NUM_REGS
        self.ip = 0
        self.zf = False
        self.sf = False
        self.halted = False
        self.exit_code = 0

    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = value & U64_MASK
