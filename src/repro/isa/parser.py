"""Textual assembly parser.

Accepts conventional assembly text and produces the item stream the
two-pass assembler consumes::

    ; compute 10 * 2 and stop
        mov   r1, 10
    loop:
        addi  r0, 2
        subi  r1, 1
        cmpi  r1, 0
        jcc   gt, loop
        halt

Syntax:

- one instruction or ``label:`` per line; ``;`` and ``#`` start comments,
- registers: ``r0``–``r15``, ``sp``, ``fp``,
- immediates: decimal or ``0x`` hex, optionally negative,
- memory operands: ``[reg]``, ``[reg+imm]``, ``[reg-imm]``,
- conditions: ``eq ne lt le gt ge``,
- branch/``lea`` targets are label names.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.isa.assembler import A, Item
from repro.isa.instructions import Insn, Label
from repro.isa.registers import FP, SP, Cond


class AsmSyntaxError(Exception):
    """Malformed assembly text."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


_REGISTERS = {f"r{i}": i for i in range(16)}
_REGISTERS["sp"] = SP
_REGISTERS["fp"] = FP

_CONDITIONS = {c.name.lower(): c for c in Cond}

_MEM_RE = re.compile(
    r"^\[\s*(?P<reg>\w+)\s*(?:(?P<sign>[+-])\s*(?P<off>0x[0-9a-fA-F]+|\d+))?\s*\]$"
)

_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$@]*$")


def _parse_int(token: str, line_no: int, line: str) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AsmSyntaxError(f"bad integer {token!r}", line_no, line) from exc


def _parse_reg(token: str, line_no: int, line: str) -> int:
    reg = _REGISTERS.get(token.lower())
    if reg is None:
        raise AsmSyntaxError(f"unknown register {token!r}", line_no, line)
    return reg


def _parse_mem(token: str, line_no: int, line: str) -> Tuple[int, int]:
    match = _MEM_RE.match(token)
    if match is None:
        raise AsmSyntaxError(
            f"bad memory operand {token!r}", line_no, line
        )
    reg = _parse_reg(match.group("reg"), line_no, line)
    offset = 0
    if match.group("off"):
        offset = _parse_int(match.group("off"), line_no, line)
        if match.group("sign") == "-":
            offset = -offset
    return reg, offset


def _split_operands(rest: str) -> List[str]:
    depth = 0
    out: List[str] = []
    current = []
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        out.append(tail)
    return [op for op in out if op]


def parse_asm(text: str) -> List[Item]:
    """Parse assembly text into an assembler item stream."""
    items: List[Item] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        while ":" in line:
            name, _, line = line.partition(":")
            name = name.strip()
            if not _LABEL_RE.match(name):
                raise AsmSyntaxError(f"bad label {name!r}", line_no, raw)
            items.append(Label(name))
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        items.append(_parse_instruction(mnemonic, operands, line_no, raw))
    return items


def _parse_instruction(
    mnemonic: str, ops: List[str], line_no: int, line: str
) -> Insn:
    def need(count: int) -> None:
        if len(ops) != count:
            raise AsmSyntaxError(
                f"{mnemonic} takes {count} operand(s), got {len(ops)}",
                line_no, line,
            )

    if mnemonic in ("nop", "halt", "syscall", "ret"):
        need(0)
        return {
            "nop": A.nop, "halt": A.halt,
            "syscall": A.syscall, "ret": A.ret,
        }[mnemonic]()

    if mnemonic == "mov":
        need(2)
        rd = _parse_reg(ops[0], line_no, line)
        if ops[1].lower() in _REGISTERS:
            return A.movr(rd, _parse_reg(ops[1], line_no, line))
        return A.mov(rd, _parse_int(ops[1], line_no, line))

    if mnemonic == "lea":
        need(2)
        return A.lea(_parse_reg(ops[0], line_no, line), ops[1])

    if mnemonic in ("load", "loadb"):
        need(2)
        rd = _parse_reg(ops[0], line_no, line)
        rb, off = _parse_mem(ops[1], line_no, line)
        ctor = A.load if mnemonic == "load" else A.loadb
        return ctor(rd, rb, off)

    if mnemonic in ("store", "storeb"):
        need(2)
        rb, off = _parse_mem(ops[0], line_no, line)
        rs = _parse_reg(ops[1], line_no, line)
        ctor = A.store if mnemonic == "store" else A.storeb
        return ctor(rb, off, rs)

    if mnemonic == "push":
        need(1)
        return A.push(_parse_reg(ops[0], line_no, line))
    if mnemonic == "pop":
        need(1)
        return A.pop(_parse_reg(ops[0], line_no, line))

    two_reg = {
        "add": A.add, "sub": A.sub, "mul": A.mul, "div": A.div,
        "mod": A.mod, "and": A.and_, "or": A.or_, "xor": A.xor,
        "shl": A.shl, "shr": A.shr, "cmp": A.cmp,
    }
    if mnemonic in two_reg:
        need(2)
        return two_reg[mnemonic](
            _parse_reg(ops[0], line_no, line),
            _parse_reg(ops[1], line_no, line),
        )

    reg_imm = {
        "addi": A.addi, "subi": A.subi, "cmpi": A.cmpi,
        "muli": A.muli, "andi": A.andi,
    }
    if mnemonic in reg_imm:
        need(2)
        return reg_imm[mnemonic](
            _parse_reg(ops[0], line_no, line),
            _parse_int(ops[1], line_no, line),
        )

    if mnemonic == "jmp":
        need(1)
        if ops[0].lower() in _REGISTERS:
            return A.jmpr(_parse_reg(ops[0], line_no, line))
        return A.jmp(ops[0])

    if mnemonic == "call":
        need(1)
        if ops[0].lower() in _REGISTERS:
            return A.callr(_parse_reg(ops[0], line_no, line))
        return A.call(ops[0])

    if mnemonic == "jcc":
        need(2)
        cond = _CONDITIONS.get(ops[0].lower())
        if cond is None:
            raise AsmSyntaxError(
                f"unknown condition {ops[0]!r}", line_no, line
            )
        return A.jcc(cond, ops[1])
    # jeq/jne/... shorthand.
    if mnemonic.startswith("j") and mnemonic[1:] in _CONDITIONS:
        need(1)
        return A.jcc(_CONDITIONS[mnemonic[1:]], ops[0])

    raise AsmSyntaxError(f"unknown mnemonic {mnemonic!r}", line_no, line)
