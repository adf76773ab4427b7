"""Slow-path shadow stack (§5.3).

Rebuilt from the full-decoded instruction flow: each call pushes its
return address, each return must pop exactly that address — the
single-target backward-edge policy.  Because a checked window starts
mid-execution, returns that outrun the reconstructed stack are
*unknown* rather than violations; the forward-edge analysis still
covers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import costs
from repro.cpu.events import CoFIKind
from repro.ipt.full_decoder import FlowEdge

# Encoded lengths of the two call instructions (opcode + operands).
_DIRECT_CALL_LEN = 5
_INDIRECT_CALL_LEN = 2


class ShadowStackViolation(Exception):
    """A return targeted an address other than its call's return site."""

    def __init__(self, ret_addr: int, expected: int, actual: int) -> None:
        super().__init__(
            f"ret at {ret_addr:#x}: expected return to {expected:#x}, "
            f"observed {actual:#x}"
        )
        self.ret_addr = ret_addr
        self.expected = expected
        self.actual = actual


@dataclass
class ShadowStack:
    """Replays call/return discipline over reconstructed flow edges."""

    _stack: List[int] = field(default_factory=list)
    cycles: float = 0.0
    checked_returns: int = 0
    unknown_returns: int = 0

    def feed(self, edge: FlowEdge) -> None:
        """Process one reconstructed edge; raises on a mismatch."""
        if edge.kind is CoFIKind.DIRECT_CALL:
            self._stack.append(edge.src + _DIRECT_CALL_LEN)
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
        elif edge.kind is CoFIKind.INDIRECT_CALL:
            self._stack.append(edge.src + _INDIRECT_CALL_LEN)
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
        elif edge.kind is CoFIKind.RET:
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
            if not self._stack:
                # The window began inside a call we never saw.
                self.unknown_returns += 1
                return
            expected = self._stack.pop()
            self.checked_returns += 1
            if edge.dst != expected:
                raise ShadowStackViolation(edge.src, expected, edge.dst)

    @property
    def depth(self) -> int:
        return len(self._stack)
