"""A compact, byte-encoded instruction set architecture.

The ISA stands in for x86-64 in the reproduction.  What matters for the
paper is preserved:

- the full change-of-flow taxonomy of Table 3 (direct/conditional/
  indirect jumps and calls, near returns, far transfers via ``syscall``),
- variable-length byte encoding, so that program binaries are opaque byte
  streams that must be parsed *instruction by instruction* to reconstruct
  control flow from a compressed trace (the property that makes full IPT
  decoding slow), and
- a conventional downward-growing stack with return addresses stored in
  memory, so that stack smashing and ROP behave as on real hardware.

Programs are built as :class:`Insn`/:class:`Label` lists (the :class:`A`
constructors) and assembled by :func:`asm`; :func:`disassemble_range`
and :func:`format_insn` read code back.  There is no text-assembly
syntax: the compiler in :mod:`repro.lang` and hand-built gadgets emit
instruction objects directly.
"""

from repro.isa.registers import (
    FP,
    NUM_REGS,
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    SP,
    Cond,
    register_name,
)
from repro.isa.instructions import Insn, Label, Op
from repro.isa.encoding import (
    DecodeError,
    decode_at,
    encode,
    instruction_length,
)
from repro.isa.assembler import A, AssemblyError, asm
from repro.isa.disassembler import disassemble_range, format_insn

__all__ = [
    "A",
    "AssemblyError",
    "Cond",
    "DecodeError",
    "FP",
    "Insn",
    "Label",
    "NUM_REGS",
    "Op",
    "R0",
    "R1",
    "R2",
    "R3",
    "R4",
    "R5",
    "R6",
    "R7",
    "R8",
    "R9",
    "R10",
    "R11",
    "SP",
    "asm",
    "decode_at",
    "disassemble_range",
    "encode",
    "format_insn",
    "instruction_length",
    "register_name",
]
