"""CFIMon (Xia et al., DSN'12): BTS-based transparent CFI.

BTS records *every* control transfer, so the checker sees the complete
history and verifies each indirect transfer against the CFG target
sets — precise, transparent, and ~50x slower at tracing time (Table 1),
which is the trade-off FlowGuard's IPT reuse eliminates.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.cfg import ControlFlowGraph
from repro.cpu.events import BranchEvent, CoFIKind
from repro.defenses.base import EndpointDefense
from repro.hardware.bts import BTSBuffer, BTSTracer
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process


class _ClassifyingBTS(BTSTracer):
    """BTS tracer that also remembers each record's CoFI kind.

    (Real CFIMon post-classifies records by disassembling the source;
    keeping the kind at capture time is equivalent and cheaper to
    model.)
    """

    def __init__(self) -> None:
        super().__init__(BTSBuffer(capacity=1 << 16))
        self.kinds = []

    def on_branch(self, event: BranchEvent) -> None:
        super().on_branch(event)
        self.kinds.append(event.kind)
        if len(self.kinds) > self.buffer.capacity:
            del self.kinds[: len(self.kinds) - self.buffer.capacity]


class CFIMon(EndpointDefense):
    name = "cfimon"

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel)
        self._tracers: Dict[int, _ClassifyingBTS] = {}
        self._cfgs: Dict[int, ControlFlowGraph] = {}
        self._checked_upto: Dict[int, int] = {}

    def protect(self, proc: Process, ocfg: ControlFlowGraph) -> BTSTracer:
        tracer = _ClassifyingBTS()
        proc.executor.add_listener(tracer.on_branch)
        self._tracers[proc.pid] = tracer
        self._cfgs[proc.pid] = ocfg
        self._checked_upto[proc.pid] = 0
        return tracer

    def check(self, proc: Process, nr: int) -> Optional[str]:
        tracer = self._tracers.get(proc.pid)
        ocfg = self._cfgs.get(proc.pid)
        if tracer is None or ocfg is None:
            return None
        records = tracer.buffer.records
        start = self._checked_upto.get(proc.pid, 0)
        start = min(start, len(records))
        for record, kind in zip(records[start:], tracer.kinds[start:]):
            if kind in (CoFIKind.RET, CoFIKind.INDIRECT_JMP,
                        CoFIKind.INDIRECT_CALL):
                allowed = ocfg.indirect_targets.get(record.src)
                if allowed is None:
                    continue
                target_block = ocfg.block_at(record.dst)
                if target_block is None or (
                    target_block.start not in allowed
                    and record.dst not in allowed
                ):
                    return (
                        f"transfer {record.src:#x} -> {record.dst:#x} "
                        f"outside the CFG target set"
                    )
        self._checked_upto[proc.pid] = len(records)
        return None
