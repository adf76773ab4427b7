"""Credit labels and TNT association for ITC-CFG edges (§4.3).

The training phase replays fuzzer-discovered inputs on the traced
program and marks every ITC edge observed in a trace with a *high*
credit, attaching the TNT sequence seen between the two TIP packets.
Untrained edges keep a *low* credit — they are still legal (the graph is
conservative), but traversing one at runtime demotes the check to the
slow path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.itccfg.construct import ITCCFG


class CreditLevel(enum.IntEnum):
    LOW = 0
    HIGH = 1


@dataclass
class EdgeLabel:
    credit: CreditLevel = CreditLevel.LOW
    #: TNT sequences observed on this edge during training.
    tnt_patterns: Set[Tuple[bool, ...]] = field(default_factory=set)


class UnknownEdge(Exception):
    """A trace contained an edge outside the ITC-CFG (CFI violation)."""


@dataclass
class CreditLabeledITC:
    """An ITC-CFG plus per-edge training labels."""

    itc: ITCCFG
    labels: Dict[Tuple[int, int], EdgeLabel] = field(default_factory=dict)
    #: IT-BBs observed as the *first* TIP of a trace during training.
    trained_entry_nodes: Set[int] = field(default_factory=set)

    # -- training ----------------------------------------------------------

    def observe_pair(
        self, src: int, dst: int, tnt: Tuple[bool, ...],
        strict: bool = True,
    ) -> None:
        """Record one consecutive-TIP observation from a training trace."""
        if not self.itc.has_edge(src, dst):
            if strict:
                raise UnknownEdge(
                    f"trace edge {src:#x} -> {dst:#x} not in ITC-CFG"
                )
            return
        label = self.labels.setdefault((src, dst), EdgeLabel())
        label.credit = CreditLevel.HIGH
        label.tnt_patterns.add(tuple(tnt))

    def observe_trace(
        self, tips: Iterable[Tuple[int, Tuple[bool, ...]]],
        strict: bool = True,
    ) -> int:
        """Label edges from a sequence of (tip_ip, tnt_before) records.

        Returns the number of edges observed.
        """
        previous: Optional[int] = None
        count = 0
        for ip, tnt in tips:
            if previous is None:
                if self.itc.has_node(ip):
                    self.trained_entry_nodes.add(ip)
            else:
                self.observe_pair(previous, ip, tnt, strict=strict)
                count += 1
            previous = ip
        return count

    # -- queries -----------------------------------------------------------------

    def credit_of(self, src: int, dst: int) -> CreditLevel:
        label = self.labels.get((src, dst))
        return label.credit if label is not None else CreditLevel.LOW

    def tnt_matches(self, src: int, dst: int, tnt: Tuple[bool, ...]) -> bool:
        """Whether a runtime TNT sequence was seen on this edge in
        training (only meaningful for high-credit edges)."""
        label = self.labels.get((src, dst))
        if label is None:
            return False
        return tuple(tnt) in label.tnt_patterns

    def high_credit_edges(self) -> List[Tuple[int, int]]:
        return [
            key
            for key, label in self.labels.items()
            if label.credit is CreditLevel.HIGH
        ]

    def trained_ratio(self) -> float:
        """Fraction of ITC edges holding a high credit."""
        if not self.itc.edges:
            return 0.0
        unique_edges = {(e.src, e.dst) for e in self.itc.edges}
        return len(self.high_credit_edges()) / len(unique_edges)

    def promote(self, src: int, dst: int,
                tnt: Tuple[bool, ...] = ()) -> None:
        """Promote an edge to high credit (slow-path negative caching:
        §7.1.1 — "negative results of slow path checking are cached for
        the subsequent fast path checking").  The confirmed TNT run is
        recorded even when it is empty: a promoted edge trusts exactly
        the runs confirmed on it, as a trained edge does."""
        label = self.labels.setdefault((src, dst), EdgeLabel())
        label.credit = CreditLevel.HIGH
        label.tnt_patterns.add(tuple(tnt))
