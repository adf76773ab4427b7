"""ITC-CFG construction: collapse direct edges, keep IT-BBs (§4.2)."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.telemetry import get_telemetry
from repro.analysis.cfg import ControlFlowGraph


@dataclass(frozen=True)
class ITCEdge:
    """An edge between IT-BB *entry addresses*.

    Unlike O-CFG edges (exit -> entry), ITC edges connect entries to
    entries, because TIP packets reveal target addresses only.
    ``branch_addr`` is the underlying indirect branch whose retirement
    produces the second TIP — kept for the TNT/AIA accounting, it is
    not visible to the fast-path checker.
    """

    src: int
    dst: int
    branch_addr: int


@dataclass
class ITCCFG:
    """Indirect-targets-connected CFG."""

    nodes: Set[int] = field(default_factory=set)
    edges: List[ITCEdge] = field(default_factory=list)
    _succ: Dict[int, Set[int]] = field(default_factory=dict)
    #: bumped by every :meth:`add_edge`; structures derived from the
    #: edges are cached against it (:meth:`CreditLabeledITC.derived`).
    generation: int = field(default=0, compare=False, repr=False)

    def add_edge(self, edge: ITCEdge) -> None:
        self.edges.append(edge)
        self._succ.setdefault(edge.src, set()).add(edge.dst)
        self.generation += 1

    def successors(self, node: int) -> Set[int]:
        return self._succ.get(node, set())

    def has_node(self, addr: int) -> bool:
        return addr in self.nodes

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self._succ.get(src, ())

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def stats(self) -> Dict[str, int]:
        return {"nodes": len(self.nodes), "edges": len(self.edges)}


def build_itccfg(ocfg: ControlFlowGraph) -> ITCCFG:
    """Reconstruct the O-CFG into its IPT-compatible form.

    For every IT-BB x, walk forward over *direct* edges only; each
    indirect edge leaving any reached block contributes an ITC edge
    from x to that indirect target.  Traversal never crosses an
    indirect edge — packets re-anchor the search at every TIP.
    """
    tel = get_telemetry()
    itc = ITCCFG()
    with tel.tracer.span("itccfg.construct"):
        it_bbs = ocfg.indirect_target_blocks()
        itc.nodes = set(it_bbs)

        for origin in it_bbs:
            seen: Set[int] = {origin}
            queue = deque([origin])
            emitted: Set[tuple] = set()
            while queue:
                block_start = queue.popleft()
                for edge in ocfg.successors(block_start):
                    if edge.is_indirect:
                        key = (edge.dst, edge.branch_addr)
                        if key not in emitted:
                            emitted.add(key)
                            itc.add_edge(
                                ITCEdge(origin, edge.dst, edge.branch_addr)
                            )
                    elif edge.dst not in seen:
                        seen.add(edge.dst)
                        queue.append(edge.dst)
    if tel.enabled:
        tel.metrics.counter("itccfg.builds").inc()
        tel.metrics.counter("itccfg.edges_built").inc(itc.edge_count)
    return itc
