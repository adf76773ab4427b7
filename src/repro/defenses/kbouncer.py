"""kBouncer (Pappas et al., USENIX Sec'13): LBR checks at endpoints.

Two heuristics over the 16-entry LBR window:

1. every recorded return must target a *call-preceded* address,
2. a run of :data:`CHAIN_THRESHOLD`+ consecutive returns whose targets
   are followed by at most :data:`GADGET_SPAN` bytes before the next
   recorded branch source is flagged as a gadget chain.

Precise by construction it is not — the window is tiny and attackers
can flush it (§7.1.1), which the history-flushing attack demonstrates.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.events import CoFIKind
from repro.defenses.base import EndpointDefense, is_call_preceded
from repro.hardware.lbr import LBRStack
from repro.osmodel.process import Process

#: consecutive gadget-like returns that make a chain
CHAIN_THRESHOLD = 8
#: most bytes from a return's target to the next branch source
GADGET_SPAN = 40


class KBouncer(EndpointDefense):
    name = "kbouncer"

    def protect(self, proc: Process, depth: int = 16) -> LBRStack:
        lbr = LBRStack(depth=depth)
        proc.executor.add_listener(lbr.on_branch)
        self._lbrs[proc.pid] = lbr
        return lbr

    def check(self, proc: Process, nr: int) -> Optional[str]:
        lbr = self._lbrs.get(proc.pid)
        if lbr is None:
            return None
        entries = lbr.entries()
        # Heuristic 1: call-preceded returns.
        for src, dst, kind in entries:
            if kind is CoFIKind.RET and not is_call_preceded(
                proc.machine.memory, dst
            ):
                return f"return to non-call-preceded address {dst:#x}"
        # Heuristic 2: gadget-chain length.
        run = 0
        previous_dst = None
        for src, dst, kind in entries:
            if kind is CoFIKind.RET:
                if (
                    previous_dst is not None
                    and 0 <= src - previous_dst <= GADGET_SPAN
                ):
                    run += 1
                else:
                    run = 1
                previous_dst = dst
                if run >= CHAIN_THRESHOLD:
                    return f"gadget chain of length {run}"
            else:
                previous_dst = None
                run = 0
        return None
