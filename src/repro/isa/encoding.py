"""Byte-level instruction encoding and decoding.

The encoding is variable length: one opcode byte followed by operand
bytes as dictated by :data:`repro.isa.instructions.OPERAND_LAYOUT`.
Register operands occupy one byte; ``imm32``/``off32``/``rel32`` are
4-byte signed little-endian; ``imm64`` is 8-byte signed little-endian;
condition codes occupy one byte.

Variable-length encoding matters to the reproduction: the IPT full
decoder must walk a binary byte-by-byte from a known instruction
boundary, exactly like Intel's reference decoder, which is what makes
full decoding orders of magnitude slower than packet-level scanning.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.isa.instructions import Insn, Op, OPERAND_LAYOUT
from repro.isa.registers import NUM_REGS, Cond


class DecodeError(Exception):
    """Raised when bytes do not decode to a valid instruction."""


_FIELD_SIZE = {
    "rd": 1,
    "rs": 1,
    "rb": 1,
    "cc": 1,
    "imm32": 4,
    "off32": 4,
    "rel32": 4,
    "imm64": 8,
}

# Precomputed total length per opcode.
_LENGTHS = {
    op: 1 + sum(_FIELD_SIZE[f] for f in layout)
    for op, layout in OPERAND_LAYOUT.items()
}

_VALID_OPCODES = {int(op) for op in Op}

# Map layout field -> Insn attribute.
_ATTR = {
    "rd": "rd",
    "rs": "rs",
    "rb": "rb",
    "cc": "cc",
    "imm32": "imm",
    "imm64": "imm",
    "off32": "off",
    "rel32": "rel",
}


def instruction_length(op: Op) -> int:
    """Encoded length in bytes of an instruction with opcode ``op``."""
    return _LENGTHS[op]


def operand_values(insn: Insn) -> Tuple[int, ...]:
    """The operand values of ``insn``, in its encoding (layout) order."""
    layout = OPERAND_LAYOUT[insn.op]
    return tuple(getattr(insn, _ATTR[field]) for field in layout)


def encode(insn: Insn) -> bytes:
    """Encode ``insn`` to its byte representation."""
    parts = [bytes([int(insn.op)])]
    for field in OPERAND_LAYOUT[insn.op]:
        value = getattr(insn, _ATTR[field])
        size = _FIELD_SIZE[field]
        if size == 1:
            if not 0 <= value < 256:
                raise ValueError(
                    f"{field} operand {value} out of range for {insn.op.name}"
                )
            parts.append(bytes([value]))
        elif size == 4:
            try:
                parts.append(struct.pack("<i", value))
            except struct.error as exc:
                raise ValueError(
                    f"{field} operand {value} out of 32-bit range "
                    f"for {insn.op.name}"
                ) from exc
        else:
            # imm64 wraps two's-complement style so that unsigned 64-bit
            # constants (e.g. 0xFFFF_FFFF_FFFF_FFFF) encode as expected.
            wrapped = ((value + (1 << 63)) % (1 << 64)) - (1 << 63)
            parts.append(struct.pack("<q", wrapped))
    return b"".join(parts)


def decode_at(code: bytes, offset: int) -> Tuple[Insn, int]:
    """Decode one instruction at ``offset`` in ``code``.

    Returns the instruction and its encoded length.  Raises
    :class:`DecodeError` on an invalid opcode, a truncated instruction,
    or operand bytes that do not form a valid instruction (bad register
    index / condition code) — the same failure modes a real disassembler
    hits when it desynchronises from the instruction stream.
    """
    if offset >= len(code):
        raise DecodeError(f"offset {offset} beyond end of code")
    opcode = code[offset]
    if opcode not in _VALID_OPCODES:
        raise DecodeError(f"invalid opcode 0x{opcode:02x} at offset {offset}")
    op = Op(opcode)
    length = _LENGTHS[op]
    if offset + length > len(code):
        raise DecodeError(f"truncated {op.name} at offset {offset}")
    insn = Insn(op)
    pos = offset + 1
    for field in OPERAND_LAYOUT[op]:
        size = _FIELD_SIZE[field]
        if size == 1:
            value = code[pos]
            if field in ("rd", "rs", "rb") and value >= NUM_REGS:
                raise DecodeError(
                    f"invalid register {value} in {op.name} at {offset}"
                )
            if field == "cc" and value > int(Cond.GE):
                raise DecodeError(
                    f"invalid condition {value} in {op.name} at {offset}"
                )
        elif size == 4:
            value = struct.unpack_from("<i", code, pos)[0]
        else:
            value = struct.unpack_from("<q", code, pos)[0]
        setattr(insn, _ATTR[field], value)
        pos += size
    return insn, length
