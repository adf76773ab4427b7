"""PathArmor-lite (van der Veen et al., CCS'15): context-sensitive CFI
over the LBR window.

At each endpoint, every indirect hop recorded in the LBR is verified
against the per-branch O-CFG target sets (the context-sensitive path
check reduced to its edge-verification core).  Precise for what the
window holds — but it only holds 16 entries, and unmonitored code
pollutes it; the real system had to instrument libraries to work around
exactly this ("it suffers from the problem of LBR pollution, thus has
to resort to instrumenting libraries", §1).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.cfg import ControlFlowGraph
from repro.cpu.events import CoFIKind
from repro.defenses.base import EndpointDefense
from repro.hardware.lbr import LBRStack
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process


class PathArmorLite(EndpointDefense):
    name = "patharmor"

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel)
        self._cfgs: Dict[int, ControlFlowGraph] = {}

    def protect(self, proc: Process, ocfg: ControlFlowGraph) -> LBRStack:
        lbr = LBRStack(depth=16)
        proc.executor.add_listener(lbr.on_branch)
        self._lbrs[proc.pid] = lbr
        self._cfgs[proc.pid] = ocfg
        return lbr

    def check(self, proc: Process, nr: int) -> Optional[str]:
        lbr = self._lbrs.get(proc.pid)
        ocfg = self._cfgs.get(proc.pid)
        if lbr is None or ocfg is None:
            return None
        for src, dst, kind in lbr.entries():
            if kind in (CoFIKind.RET, CoFIKind.INDIRECT_JMP,
                        CoFIKind.INDIRECT_CALL):
                allowed = ocfg.indirect_targets.get(src)
                if allowed is None:
                    continue  # branch not in the analysed image
                target_block = ocfg.block_at(dst)
                if target_block is None or (
                    target_block.start not in allowed and dst not in allowed
                ):
                    return (
                        f"indirect branch {src:#x} -> {dst:#x} outside "
                        f"the CFG target set"
                    )
        return None
