"""Two-pass assembler: symbolic instruction streams to code bytes.

The assembler consumes a flat list of :class:`~repro.isa.instructions.Insn`
and :class:`~repro.isa.instructions.Label` items, resolves label
references in branch and ``LEA`` instructions to signed displacements
(relative to the following instruction, as on x86), and emits the encoded
byte stream together with a map of label offsets.

The :class:`A` namespace provides terse constructors so that hand-written
assembly and compiler output read naturally::

    items = [
        Label("loop"),
        A.cmpi(R1, 0),
        A.jcc(Cond.EQ, "done"),
        A.subi(R1, 1),
        A.jmp("loop"),
        Label("done"),
        A.ret(),
    ]
    code, symbols = asm(items)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.encoding import encode, instruction_length
from repro.isa.instructions import Insn, Label, Op
from repro.isa.registers import Cond

Item = Union[Insn, Label]


class AssemblyError(Exception):
    """Raised on unresolved or duplicate labels."""


_LABEL_OPS = frozenset({Op.JMP, Op.JCC, Op.CALL, Op.LEA})


def assemble(
    items: Sequence[Item],
    base: int = 0,
    extra_labels: Optional[Dict[str, int]] = None,
) -> Tuple[bytes, Dict[str, int]]:
    """Assemble ``items`` into code bytes and a symbol table.

    The symbol table maps label names to offsets from ``base``.
    ``base`` only shifts the reported symbol offsets; branch
    displacements are position independent.  ``extra_labels`` supplies
    label bindings defined outside the stream (e.g. data-section symbols
    at link-time-known offsets); stream labels shadow them.
    """
    # Pass 1: lay out offsets.
    offsets: List[int] = []
    labels: Dict[str, int] = dict(extra_labels or {})
    pos = 0
    stream_labels: Dict[str, int] = {}
    for item in items:
        if isinstance(item, Label):
            if item.name in stream_labels:
                raise AssemblyError(f"duplicate label: {item.name}")
            stream_labels[item.name] = pos
            labels[item.name] = pos
        else:
            offsets.append(pos)
            pos += instruction_length(item.op)

    # Pass 2: resolve label references and encode.
    out = bytearray()
    index = 0
    for item in items:
        if isinstance(item, Label):
            continue
        insn = item
        if insn.label is not None:
            if insn.op not in _LABEL_OPS:
                raise AssemblyError(
                    f"{insn.op.name} cannot take a label operand"
                )
            if insn.label not in labels:
                raise AssemblyError(f"undefined label: {insn.label}")
            next_ip = offsets[index] + instruction_length(insn.op)
            insn = Insn(
                insn.op,
                rd=insn.rd,
                rs=insn.rs,
                rb=insn.rb,
                imm=insn.imm,
                off=insn.off,
                rel=labels[insn.label] - next_ip,
                cc=insn.cc,
            )
        out += encode(insn)
        index += 1
    return bytes(out), {
        name: base + off for name, off in stream_labels.items()
    }


class A:
    """Terse instruction constructors (static namespace)."""

    @staticmethod
    def nop() -> Insn:
        return Insn(Op.NOP)

    @staticmethod
    def halt() -> Insn:
        return Insn(Op.HALT)

    @staticmethod
    def syscall() -> Insn:
        return Insn(Op.SYSCALL)

    @staticmethod
    def ret() -> Insn:
        return Insn(Op.RET)

    @staticmethod
    def mov(rd: int, imm: int) -> Insn:
        return Insn(Op.MOV_RI, rd=rd, imm=imm)

    @staticmethod
    def movr(rd: int, rs: int) -> Insn:
        return Insn(Op.MOV_RR, rd=rd, rs=rs)

    @staticmethod
    def lea(rd: int, label: str) -> Insn:
        return Insn(Op.LEA, rd=rd, label=label)

    @staticmethod
    def load(rd: int, rb: int, off: int = 0) -> Insn:
        return Insn(Op.LOAD, rd=rd, rb=rb, off=off)

    @staticmethod
    def store(rb: int, off: int, rs: int) -> Insn:
        return Insn(Op.STORE, rb=rb, off=off, rs=rs)

    @staticmethod
    def loadb(rd: int, rb: int, off: int = 0) -> Insn:
        return Insn(Op.LOADB, rd=rd, rb=rb, off=off)

    @staticmethod
    def storeb(rb: int, off: int, rs: int) -> Insn:
        return Insn(Op.STOREB, rb=rb, off=off, rs=rs)

    @staticmethod
    def push(rs: int) -> Insn:
        return Insn(Op.PUSH, rs=rs)

    @staticmethod
    def pop(rd: int) -> Insn:
        return Insn(Op.POP, rd=rd)

    @staticmethod
    def add(rd: int, rs: int) -> Insn:
        return Insn(Op.ADD, rd=rd, rs=rs)

    @staticmethod
    def sub(rd: int, rs: int) -> Insn:
        return Insn(Op.SUB, rd=rd, rs=rs)

    @staticmethod
    def mul(rd: int, rs: int) -> Insn:
        return Insn(Op.MUL, rd=rd, rs=rs)

    @staticmethod
    def div(rd: int, rs: int) -> Insn:
        return Insn(Op.DIV, rd=rd, rs=rs)

    @staticmethod
    def mod(rd: int, rs: int) -> Insn:
        return Insn(Op.MOD, rd=rd, rs=rs)

    @staticmethod
    def and_(rd: int, rs: int) -> Insn:
        return Insn(Op.AND, rd=rd, rs=rs)

    @staticmethod
    def or_(rd: int, rs: int) -> Insn:
        return Insn(Op.OR, rd=rd, rs=rs)

    @staticmethod
    def xor(rd: int, rs: int) -> Insn:
        return Insn(Op.XOR, rd=rd, rs=rs)

    @staticmethod
    def shl(rd: int, rs: int) -> Insn:
        return Insn(Op.SHL, rd=rd, rs=rs)

    @staticmethod
    def shr(rd: int, rs: int) -> Insn:
        return Insn(Op.SHR, rd=rd, rs=rs)

    @staticmethod
    def cmp(rd: int, rs: int) -> Insn:
        return Insn(Op.CMP, rd=rd, rs=rs)

    @staticmethod
    def addi(rd: int, imm: int) -> Insn:
        return Insn(Op.ADDI, rd=rd, imm=imm)

    @staticmethod
    def subi(rd: int, imm: int) -> Insn:
        return Insn(Op.SUBI, rd=rd, imm=imm)

    @staticmethod
    def cmpi(rd: int, imm: int) -> Insn:
        return Insn(Op.CMPI, rd=rd, imm=imm)

    @staticmethod
    def muli(rd: int, imm: int) -> Insn:
        return Insn(Op.MULI, rd=rd, imm=imm)

    @staticmethod
    def andi(rd: int, imm: int) -> Insn:
        return Insn(Op.ANDI, rd=rd, imm=imm)

    @staticmethod
    def jmp(label: str) -> Insn:
        return Insn(Op.JMP, label=label)

    @staticmethod
    def jcc(cc: Cond, label: str) -> Insn:
        return Insn(Op.JCC, cc=int(cc), label=label)

    @staticmethod
    def jmpr(rs: int) -> Insn:
        return Insn(Op.JMPR, rs=rs)

    @staticmethod
    def call(label: str) -> Insn:
        return Insn(Op.CALL, label=label)

    @staticmethod
    def callr(rs: int) -> Insn:
        return Insn(Op.CALLR, rs=rs)


# Convenience alias used throughout the toolchain and tests.
asm = assemble
