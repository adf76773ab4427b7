"""Branch Trace Store model.

BTS captures *all* control-transfer events — including direct jumps and
calls — as 24-byte records (source, target, flags) in a memory-resident
buffer.  No decoding is needed, but every record costs a microcode
assist that stalls the pipeline, which is where the ~50x tracing
overhead of Table 1 comes from.  There is no event filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import costs
from repro.cpu.events import BranchEvent


@dataclass(frozen=True)
class BTSRecord:
    """One branch record: 24 bytes in the hardware format."""

    src: int
    dst: int
    flags: int = 0


@dataclass
class BTSBuffer:
    """The memory-resident BTS buffer with an interrupt threshold."""

    capacity: int = 4096  # records
    records: List[BTSRecord] = field(default_factory=list)
    threshold_callback: Optional[Callable[[], None]] = None

    def append(self, record: BTSRecord) -> None:
        self.records.append(record)
        if len(self.records) >= self.capacity:
            if self.threshold_callback is not None:
                self.threshold_callback()
            self.records.clear()


class BTSTracer:
    """CoFI listener writing BTS records (no filtering mechanisms)."""

    def __init__(self, buffer: Optional[BTSBuffer] = None) -> None:
        self.buffer = buffer if buffer is not None else BTSBuffer()
        self.cycles = 0.0
        self.records_written = 0

    def on_branch(self, event: BranchEvent) -> None:
        # BTS logs *every* transfer, even statically known ones.
        self.buffer.append(BTSRecord(event.src, event.dst))
        self.records_written += 1
        self.cycles += costs.BTS_RECORD_CYCLES
