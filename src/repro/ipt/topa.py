"""Table of Physical Addresses (ToPA) output model.

The trace output is a chain of physical regions linked by a table of
pointers.  FlowGuard configures one ToPA with two regions (§5.1), with a
performance-monitoring interrupt (PMI) raised when the final region
fills, after which output wraps to the first region.

A region fill is the only point where a write runs foreign code (the
PMI handler) or changes how later writes behave (a stop region).
:meth:`ToPA.bytes_to_fill` says how far off the next fill is, so a
writer can batch output that provably stays clear of it.

The monitor reads the buffer back with :meth:`ToPA.snapshot`, which
returns bytes oldest-to-newest; after a wrap the first bytes may be a
packet *tail*, so consumers must resynchronise at a PSB — exactly the
discipline real IPT decoders follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass
class ToPARegion:
    """One output region.

    ``interrupt`` raises a PMI when the region fills; ``stop`` freezes
    output instead of wrapping (TraceStop).
    """

    size: int
    interrupt: bool = False
    stop: bool = False


@dataclass
class ToPA:
    """A circular chain of output regions."""

    regions: List[ToPARegion]
    pmi_callback: Optional[Callable[[], None]] = None

    _buffers: List[bytearray] = field(default_factory=list)
    _region: int = 0
    _offset: int = 0
    _wrapped: bool = False
    _stopped: bool = False
    total_bytes_written: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("ToPA requires at least one region")
        self._buffers = [bytearray(r.size) for r in self.regions]

    @classmethod
    def flowguard_default(
        cls, pmi_callback: Optional[Callable[[], None]] = None
    ) -> "ToPA":
        """The paper's configuration: two regions, 16 KiB total, PMI on
        the last region."""
        return cls(
            regions=[
                ToPARegion(8192),
                ToPARegion(8192, interrupt=True),
            ],
            pmi_callback=pmi_callback,
        )

    @property
    def capacity(self) -> int:
        return sum(r.size for r in self.regions)

    @property
    def wrapped(self) -> bool:
        return self._wrapped

    def bytes_to_fill(self) -> int:
        """How many bytes fill the current region: any write shorter
        than this lands whole in it, raising no PMI and moving to no
        other region.  The IPT encoder sizes its deferred runs by it."""
        return self.regions[self._region].size - self._offset

    def write(self, data: bytes) -> None:
        """Append packet bytes, moving across regions and wrapping.

        Copies one slice per region.  A region that fills raises its PMI
        right after its last byte lands, before the write moves on, so
        the callback sees the cursor (``_region``, ``_offset``) and
        ``total_bytes_written`` at exactly that byte.
        """
        if self._stopped:
            return
        size = len(data)
        offset = self._offset
        region = self.regions[self._region]
        if offset + size < region.size:  # the common case: no region fills
            self._buffers[self._region][offset:offset + size] = data
            self._offset = offset + size
            self.total_bytes_written += size
            return
        pos = 0
        while pos < size:
            region = self.regions[self._region]
            offset = self._offset
            count = min(region.size - offset, size - pos)
            self._buffers[self._region][offset:offset + count] = (
                data[pos:pos + count]
            )
            pos += count
            self._offset = offset + count
            self.total_bytes_written += count
            if self._offset >= region.size:
                if region.interrupt and self.pmi_callback is not None:
                    self.pmi_callback()
                if region.stop:
                    self._stopped = True
                    return
                self._offset = 0
                self._region += 1
                if self._region >= len(self.regions):
                    self._region = 0
                    self._wrapped = True

    def snapshot(self) -> bytes:
        """Current contents, oldest byte first."""
        if not self._wrapped:
            out = bytearray()
            for index in range(self._region):
                out += self._buffers[index]
            out += self._buffers[self._region][: self._offset]
            return bytes(out)
        # Wrapped: oldest data starts right after the write cursor.
        out = bytearray(self._buffers[self._region][self._offset:])
        index = self._region + 1
        for _ in range(len(self.regions) - 1):
            if index >= len(self.regions):
                index = 0
            out += self._buffers[index]
            index += 1
        out += self._buffers[self._region][: self._offset]
        return bytes(out)

    def clear(self) -> None:
        """Reset the buffer (monitor consumed the trace)."""
        self._region = 0
        self._offset = 0
        self._wrapped = False
        self._stopped = False
