"""Intel Processor Trace hardware model.

Faithful to the properties FlowGuard exploits (§2, Table 2, Table 3):

- per-core packetizer producing a *compressed* byte stream: conditional
  branches become single TNT bits (up to 6 per packet), indirect
  branches/returns become TIP packets with IP-byte compression against
  the previous IP, far transfers become FUP + TIP.PGD/TIP.PGE pairs, and
  direct branches produce **no output**,
- periodic PSB sync points (followed by a FUP carrying the current IP),
  enabling mid-stream and parallel decode,
- ToPA output regions with wrap-around and PMI-on-full,
- CR3 / CPL (user-only) filtering configured through RTIT MSRs,
- a **fast decoder** that only parses packet framing (cheap, but knows
  nothing about instruction types): one scan into columns
  (:mod:`repro.ipt.columnar`), which is the only packet representation,
- a **full decoder** that walks the program binaries
  instruction-by-instruction under a byte cursor over those scanned
  segments — Intel's reference "instruction flow layer", orders of
  magnitude slower.  It reads the CPU's own decoded code (the module's
  shared :class:`~repro.cpu.blocks.BlockStore`) and reports each edge as
  the CPU's :class:`~repro.cpu.events.BranchEvent`.
"""

from repro.ipt.packets import (
    PacketKind,
    PSB_PATTERN,
    PacketError,
)
from repro.ipt.columnar import (
    ColumnarParallelResult,
    ColumnarSegment,
    ColumnarSlowSource,
    ColumnarTail,
    columnar_decode_parallel,
    columnar_scan,
    psb_boundaries,
    psb_offsets,
    sync_to_psb,
)
from repro.ipt.topa import PMI, ToPA, ToPARegion
from repro.ipt.msr import RTIT_CTL, IPTConfig
from repro.ipt.encoder import IPTEncoder
from repro.ipt.full_decoder import (
    FullDecodeResult,
    FullDecoder,
    TraceMismatch,
)

__all__ = [
    "ColumnarParallelResult",
    "ColumnarSegment",
    "ColumnarSlowSource",
    "ColumnarTail",
    "FullDecodeResult",
    "FullDecoder",
    "IPTConfig",
    "IPTEncoder",
    "PMI",
    "PSB_PATTERN",
    "PacketError",
    "PacketKind",
    "RTIT_CTL",
    "ToPA",
    "ToPARegion",
    "TraceMismatch",
    "columnar_decode_parallel",
    "columnar_scan",
    "psb_boundaries",
    "psb_offsets",
    "sync_to_psb",
]
