"""Control-flow-graph data structures (the O-CFG of the paper)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class EdgeKind(enum.Enum):
    """Edge classification; the ITC construction only cares about the
    direct/indirect split, finer kinds feed the slow-path policies."""

    DIRECT_JMP = "direct_jmp"
    COND_TAKEN = "cond_taken"
    FALLTHROUGH = "fallthrough"
    DIRECT_CALL = "direct_call"
    INDIRECT_JMP = "indirect_jmp"
    INDIRECT_CALL = "indirect_call"
    RET = "ret"

    @property
    def is_indirect(self) -> bool:
        return self in (
            EdgeKind.INDIRECT_JMP,
            EdgeKind.INDIRECT_CALL,
            EdgeKind.RET,
        )


@dataclass(frozen=True)
class Edge:
    """A CFG edge from the exit of one basic block to the entry of
    another.  ``branch_addr`` is the transferring instruction."""

    src: int  # entry address of the source basic block
    dst: int  # entry address of the target basic block
    kind: EdgeKind
    branch_addr: int

    @property
    def is_indirect(self) -> bool:
        return self.kind.is_indirect


@dataclass
class BasicBlock:
    """A maximal straight-line code region."""

    start: int
    end: int  # exclusive
    module: str
    function: Optional[str] = None
    #: address of the terminating CoFI, if the block ends in one.
    terminator: Optional[int] = None

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass
class ControlFlowGraph:
    """The conservative O-CFG over a whole loaded image."""

    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    #: indirect branch instruction address -> allowed target block entries
    indirect_targets: Dict[int, Set[int]] = field(default_factory=dict)
    #: per-function computed arity (consumed argument registers)
    function_arity: Dict[str, int] = field(default_factory=dict)
    #: address-taken function entry addresses
    address_taken: Set[int] = field(default_factory=set)

    _out: Dict[int, List[Edge]] = field(default_factory=dict)
    _sorted_starts: List[int] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    def add_block(self, block: BasicBlock) -> None:
        self.blocks[block.start] = block
        self._sorted_starts = []

    def add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.src, []).append(edge)
        if edge.is_indirect:
            self.indirect_targets.setdefault(edge.branch_addr, set()).add(
                edge.dst
            )

    # -- queries ---------------------------------------------------------------

    def successors(self, block_start: int) -> List[Edge]:
        return self._out.get(block_start, [])

    def block_at(self, addr: int) -> Optional[BasicBlock]:
        """The block whose range contains ``addr`` (binary search)."""
        import bisect

        if not self._sorted_starts:
            self._sorted_starts = sorted(self.blocks)
        starts = self._sorted_starts
        index = bisect.bisect_right(starts, addr) - 1
        if index < 0:
            return None
        block = self.blocks[starts[index]]
        return block if addr in block else None

    def indirect_target_blocks(self) -> Set[int]:
        """Entries of blocks targeted by at least one indirect edge —
        the IT-BBs of §4.2."""
        out: Set[int] = set()
        for edge in self.edges:
            if edge.is_indirect:
                out.add(edge.dst)
        return out

    def stats(self) -> Dict[str, int]:
        """|V| and |E| split by module class (Table 4 columns)."""
        exec_blocks = lib_blocks = 0
        for block in self.blocks.values():
            if block.module.endswith(".so") or block.module == "vdso":
                lib_blocks += 1
            else:
                exec_blocks += 1
        exec_edges = lib_edges = 0
        for edge in self.edges:
            block = self.blocks.get(edge.src)
            if block is not None and (
                block.module.endswith(".so") or block.module == "vdso"
            ):
                lib_edges += 1
            else:
                exec_edges += 1
        return {
            "exec_blocks": exec_blocks,
            "lib_blocks": lib_blocks,
            "exec_edges": exec_edges,
            "lib_edges": lib_edges,
            "blocks": len(self.blocks),
            "edges": len(self.edges),
        }
