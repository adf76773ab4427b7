"""The IPT-compatible CFG (ITC-CFG) and its credit labelling (§4.2-4.3).

The ITC-CFG keeps only the *indirect target basic blocks* (IT-BBs) of
the O-CFG and connects IT-BB x to IT-BB y iff some O-CFG path from x
reaches y by crossing exactly one indirect edge as its final hop (any
number of direct edges before it).  By construction, every pair of
consecutive TIP packets in a legal IPT trace corresponds to an ITC edge
— so the packet stream can be searched directly on the graph without
full decoding, with zero false positives.

Fuzzing-driven training labels edges with credits (high = observed in
training) and attaches the TNT sequences seen on each edge, which
restores the direct-fork precision the reconstruction loses (Figure 4).
"""

from repro.itccfg.construct import ITCCFG, ITCEdge, build_itccfg
from repro.itccfg.credits import (
    CreditLabeledITC,
    CreditLevel,
    EdgeLabel,
    itccfg_memory_bytes,
)
from repro.itccfg.paths import PathIndex
from repro.itccfg.searchindex import FlowSearchIndex

__all__ = [
    "CreditLabeledITC",
    "CreditLevel",
    "EdgeLabel",
    "FlowSearchIndex",
    "ITCCFG",
    "ITCEdge",
    "PathIndex",
    "build_itccfg",
    "itccfg_memory_bytes",
]
