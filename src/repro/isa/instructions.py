"""Instruction and opcode definitions.

Every instruction is an :class:`Insn` — a small record with an opcode and
up to three operand slots.  The operand meaning per opcode is documented
in :data:`OPERAND_LAYOUT`; the byte-level encoding lives in
:mod:`repro.isa.encoding`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Op(enum.IntEnum):
    """Opcodes.  The integer value doubles as the encoded opcode byte."""

    NOP = 0x00
    HALT = 0x01
    SYSCALL = 0x02
    RET = 0x03

    MOV_RI = 0x10  # rd <- imm64
    MOV_RR = 0x11  # rd <- rs
    LEA = 0x12  # rd <- next_ip + rel32
    LOAD = 0x13  # rd <- mem64[rb + off32]
    STORE = 0x14  # mem64[rb + off32] <- rs
    LOADB = 0x15  # rd <- mem8[rb + off32]
    STOREB = 0x16  # mem8[rb + off32] <- rs
    PUSH = 0x17  # sp -= 8; mem64[sp] <- rs
    POP = 0x18  # rd <- mem64[sp]; sp += 8

    ADD = 0x20
    SUB = 0x21
    MUL = 0x22
    DIV = 0x23
    MOD = 0x24
    AND = 0x25
    OR = 0x26
    XOR = 0x27
    SHL = 0x28
    SHR = 0x29
    CMP = 0x2A  # sets flags from rd - rs

    ADDI = 0x30
    SUBI = 0x31
    CMPI = 0x32
    MULI = 0x33
    ANDI = 0x34

    JMP = 0x40  # direct unconditional, rel32
    JCC = 0x41  # conditional, cond + rel32
    JMPR = 0x42  # indirect jump through register
    CALL = 0x43  # direct call, rel32
    CALLR = 0x44  # indirect call through register


# Operand layout per opcode, used by the encoder, decoder and formatter.
# Slot names:  rd/rs/rb — register indices,  imm64/imm32 — immediates,
# off32 — signed memory displacement,  rel32 — signed branch displacement
# relative to the *next* instruction,  cc — condition code.
OPERAND_LAYOUT = {
    Op.NOP: (),
    Op.HALT: (),
    Op.SYSCALL: (),
    Op.RET: (),
    Op.MOV_RI: ("rd", "imm64"),
    Op.MOV_RR: ("rd", "rs"),
    Op.LEA: ("rd", "rel32"),
    Op.LOAD: ("rd", "rb", "off32"),
    Op.STORE: ("rb", "off32", "rs"),
    Op.LOADB: ("rd", "rb", "off32"),
    Op.STOREB: ("rb", "off32", "rs"),
    Op.PUSH: ("rs",),
    Op.POP: ("rd",),
    Op.ADD: ("rd", "rs"),
    Op.SUB: ("rd", "rs"),
    Op.MUL: ("rd", "rs"),
    Op.DIV: ("rd", "rs"),
    Op.MOD: ("rd", "rs"),
    Op.AND: ("rd", "rs"),
    Op.OR: ("rd", "rs"),
    Op.XOR: ("rd", "rs"),
    Op.SHL: ("rd", "rs"),
    Op.SHR: ("rd", "rs"),
    Op.CMP: ("rd", "rs"),
    Op.ADDI: ("rd", "imm32"),
    Op.SUBI: ("rd", "imm32"),
    Op.CMPI: ("rd", "imm32"),
    Op.MULI: ("rd", "imm32"),
    Op.ANDI: ("rd", "imm32"),
    Op.JMP: ("rel32",),
    Op.JCC: ("cc", "rel32"),
    Op.JMPR: ("rs",),
    Op.CALL: ("rel32",),
    Op.CALLR: ("rs",),
}


@dataclass
class Insn:
    """One decoded (or not-yet-encoded) instruction.

    ``label`` carries a symbolic branch/LEA target for the assembler; it
    is resolved to ``rel`` at assembly time and is ``None`` on decoded
    instructions.
    """

    op: Op
    rd: int = 0
    rs: int = 0
    rb: int = 0
    imm: int = 0
    off: int = 0
    rel: int = 0
    cc: int = 0
    label: Optional[str] = None


@dataclass(frozen=True)
class Label:
    """A position marker in an assembly stream."""

    name: str

