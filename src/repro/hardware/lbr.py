"""Last Branch Record model.

LBR keeps the most recent 16 or 32 branch source/target pairs in a
register stack.  Tracing is effectively free and some filtering is
available (by privilege level and CoFI type — e.g. conditional branches
can be excluded), but the tiny window makes precise protection
impossible; kBouncer-style defenses inspect it at chosen trigger points
and are vulnerable to history flushing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind


@dataclass
class LBRFilter:
    """MSR_LBR_SELECT-style CoFI-type filtering."""

    record_cond: bool = True
    record_near_ret: bool = True
    record_indirect: bool = True
    record_direct: bool = True
    record_far: bool = True

    def accepts(self, kind: CoFIKind) -> bool:
        if kind is CoFIKind.COND_BRANCH:
            return self.record_cond
        if kind is CoFIKind.RET:
            return self.record_near_ret
        if kind in (CoFIKind.INDIRECT_JMP, CoFIKind.INDIRECT_CALL):
            return self.record_indirect
        if kind in (CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL):
            return self.record_direct
        return self.record_far


class LBRStack:
    """A 16- or 32-entry ring of (src, dst) branch pairs."""

    def __init__(self, depth: int = 16,
                 filter_: "LBRFilter | None" = None) -> None:
        if depth not in (16, 32):
            raise ValueError("LBR depth is 16 or 32 on real hardware")
        self.depth = depth
        self.filter = filter_ if filter_ is not None else LBRFilter()
        self._ring: Deque[Tuple[int, int, CoFIKind]] = deque(maxlen=depth)
        self.cycles = 0.0
        self.branches_seen = 0

    def on_branch(self, event: BranchEvent) -> None:
        if event.kind is CoFIKind.COND_BRANCH and not event.taken:
            return  # LBR records only taken branches
        if not self.filter.accepts(event.kind):
            return
        self._ring.append((event.src, event.dst, event.kind))
        self.branches_seen += 1
        self.cycles += costs.LBR_BRANCH_CYCLES

    def entries(self) -> List[Tuple[int, int, CoFIKind]]:
        """Current window, oldest first (what a defense can inspect)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
