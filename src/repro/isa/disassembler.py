"""Linear-sweep disassembly helpers and instruction formatting."""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.isa.encoding import decode_at
from repro.isa.instructions import Insn, OPERAND_LAYOUT
from repro.isa.registers import Cond, register_name


def disassemble_range(
    code: bytes, start: int = 0, end: int = -1
) -> Iterator[Tuple[int, Insn, int]]:
    """Linearly decode ``code[start:end]``.

    Yields ``(offset, insn, length)``.  Raises
    :class:`~repro.isa.encoding.DecodeError` if the sweep desynchronises,
    which on a well-formed module only happens when running into data.
    """
    if end < 0:
        end = len(code)
    pos = start
    while pos < end:
        insn, length = decode_at(code, pos)
        yield pos, insn, length
        pos += length


def format_insn(insn: Insn, ip: int = -1) -> str:
    """Render an instruction as assembly text.

    When ``ip`` (the instruction's own address) is supplied, relative
    branch targets are rendered as absolute addresses.
    """
    op = insn.op
    parts = []
    for field in OPERAND_LAYOUT[op]:
        if field == "rd":
            parts.append(register_name(insn.rd))
        elif field == "rs":
            parts.append(register_name(insn.rs))
        elif field == "rb":
            parts.append(f"[{register_name(insn.rb)}{insn.off:+#x}]")
        elif field == "off32":
            continue  # rendered with rb
        elif field == "cc":
            parts.append(Cond(insn.cc).name.lower())
        elif field in ("imm32", "imm64"):
            parts.append(f"{insn.imm:#x}" if insn.imm >= 0 else str(insn.imm))
        elif field == "rel32":
            if insn.label is not None:
                parts.append(insn.label)
            elif ip >= 0:
                from repro.isa.encoding import instruction_length

                parts.append(f"{ip + instruction_length(op) + insn.rel:#x}")
            else:
                parts.append(f".{insn.rel:+}")
    mnemonic = op.name.lower()
    return f"{mnemonic} {', '.join(parts)}".rstrip()
