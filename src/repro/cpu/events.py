"""Change-of-flow (CoFI) event taxonomy — Table 3 of the paper.

Every retired control-transfer instruction produces one
:class:`BranchEvent` for the listeners subscribed to its kind.  The
mapping to IPT output packets is:

===================  =======================  ===============
CoFI kind            Scenario                 IPT output
===================  =======================  ===============
DIRECT_JMP           ``jmp label``            *no output*
DIRECT_CALL          ``call label``           *no output*
COND_BRANCH          ``jcc label``            TNT (one bit)
INDIRECT_JMP         ``jmpr reg``             TIP
INDIRECT_CALL        ``callr reg``            TIP
RET                  ``ret``                  TIP
FAR_TRANSFER         syscall, traps           FUP + TIP
===================  =======================  ===============
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class CoFIKind(enum.Enum):
    """The change-of-flow instruction classes of Table 3."""

    DIRECT_JMP = "direct_jmp"
    DIRECT_CALL = "direct_call"
    COND_BRANCH = "cond_branch"
    INDIRECT_JMP = "indirect_jmp"
    INDIRECT_CALL = "indirect_call"
    RET = "ret"
    FAR_TRANSFER = "far_transfer"

    @property
    def is_indirect(self) -> bool:
        """True for kinds whose target is only known at runtime."""
        return self in (
            CoFIKind.INDIRECT_JMP,
            CoFIKind.INDIRECT_CALL,
            CoFIKind.RET,
        )


class BranchEvent(NamedTuple):
    """One retired change-of-flow instruction.

    ``src`` is the address of the CoFI instruction itself, ``dst`` the
    address control transferred to (for a non-taken conditional branch,
    the fall-through address).  ``taken`` is only meaningful for
    conditional branches.

    A tuple, so building one is a single C call
    (``tuple.__new__(BranchEvent, (kind, src, dst, taken))``, as the
    interpreter does for each indirect branch) rather than a frozen
    dataclass's per-field ``object.__setattr__``.  Equality, hash and
    repr are the field-wise ones a frozen dataclass would have.
    """

    kind: CoFIKind
    src: int
    dst: int
    taken: bool = True

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        t = "" if self.kind is not CoFIKind.COND_BRANCH else (
            " taken" if self.taken else " not-taken"
        )
        return f"{self.kind.value} {self.src:#x} -> {self.dst:#x}{t}"
