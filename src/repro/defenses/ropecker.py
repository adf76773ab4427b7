"""ROPecker (Cheng et al., NDSS'14): gadget-run heuristics over LBR.

Flags an endpoint when the recent indirect-branch window contains a run
of :data:`RUN_THRESHOLD`+ hops whose code spans are gadget-sized (at
most :data:`MAX_GADGET_INSNS` instructions from landing point to the
next recorded branch source).  Like kBouncer it inspects only a sliding
hardware window, so it shares the history-flushing weakness.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.events import CoFIKind
from repro.defenses.base import EndpointDefense
from repro.hardware.lbr import LBRFilter, LBRStack
from repro.isa.encoding import decode_at
from repro.osmodel.process import Process

#: consecutive gadget-sized hops that make a gadget run
RUN_THRESHOLD = 6
#: most instructions from a hop's landing point to the next branch
MAX_GADGET_INSNS = 6


class ROPecker(EndpointDefense):
    name = "ropecker"

    def protect(self, proc: Process) -> LBRStack:
        # ROPecker filters conditional branches out of the LBR.
        lbr = LBRStack(depth=16, filter_=LBRFilter(record_cond=False))
        proc.executor.add_listener(lbr.on_branch)
        self._lbrs[proc.pid] = lbr
        return lbr

    def _gadget_sized(self, proc: Process, start: int, end_src: int) -> bool:
        """At most MAX_GADGET_INSNS instructions from start to end_src."""
        if end_src < start:
            return False
        pos = start
        for _ in range(MAX_GADGET_INSNS + 1):
            if pos >= end_src:
                return True
            try:
                raw = proc.machine.memory.read_raw(pos, 10)
                _, length = decode_at(raw, 0)
            except Exception:
                return False
            pos += length
        return False

    def check(self, proc: Process, nr: int) -> Optional[str]:
        lbr = self._lbrs.get(proc.pid)
        if lbr is None:
            return None
        entries = [
            (src, dst, kind)
            for src, dst, kind in lbr.entries()
            if kind in (CoFIKind.RET, CoFIKind.INDIRECT_JMP,
                        CoFIKind.INDIRECT_CALL)
        ]
        run = 0
        for index in range(len(entries) - 1):
            _, dst, _ = entries[index]
            next_src, _, _ = entries[index + 1]
            if self._gadget_sized(proc, dst, next_src):
                run += 1
                if run >= RUN_THRESHOLD:
                    return f"gadget run of length {run}"
            else:
                run = 0
        return None
