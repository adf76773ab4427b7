"""Register file layout and condition codes.

The machine has 16 general-purpose registers plus a stack pointer and a
frame pointer.  The calling convention used by the toolchain is:

- ``R0`` — syscall number / return value,
- ``R1``–``R5`` — the first five arguments,
- ``R6``–``R11`` — caller-saved scratch registers,
- ``SP`` / ``FP`` — stack and frame pointers.
"""

from __future__ import annotations

import enum

NUM_REGS = 18

R0, R1, R2, R3, R4, R5 = 0, 1, 2, 3, 4, 5
R6, R7, R8, R9, R10, R11 = 6, 7, 8, 9, 10, 11
R12, R13, R14, R15 = 12, 13, 14, 15
SP = 16
FP = 17

_NAMES = {SP: "sp", FP: "fp"}


def register_name(reg: int) -> str:
    """Return the assembly name of register index ``reg``."""
    if reg in _NAMES:
        return _NAMES[reg]
    if 0 <= reg < 16:
        return f"r{reg}"
    raise ValueError(f"invalid register index: {reg}")


class Cond(enum.IntEnum):
    """Condition codes for conditional branches (``Jcc``).

    Conditions are evaluated against the flags set by the most recent
    ``CMP``/``CMPI`` (or flag-setting ALU) instruction.
    """

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5
