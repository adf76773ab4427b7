"""Credit labels and TNT association for ITC-CFG edges (§4.3).

The training phase replays fuzzer-discovered inputs on the traced
program and marks every ITC edge observed in a trace with a *high*
credit, attaching the TNT sequence seen between the two TIP packets.
Untrained edges keep a *low* credit — they are still legal (the graph is
conservative), but traversing one at runtime demotes the check to the
slow path.

A TNT sequence is held as the scan produces it, a 1-prefixed packed
signature (:func:`repro.ipt.packets.pack_tnt_sig`; ``1`` is the empty
run), from training through to the fast-path verdict.
:func:`itccfg_memory_bytes` estimates the in-kernel size of a labelled
graph (Table 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.itccfg.construct import ITCCFG


class CreditLevel(enum.IntEnum):
    LOW = 0
    HIGH = 1


@dataclass
class EdgeLabel:
    credit: CreditLevel = CreditLevel.LOW
    #: TNT sequences observed on this edge, as packed signatures.
    tnt_patterns: Set[int] = field(default_factory=set)


class UnknownEdge(Exception):
    """A trace contained an edge outside the ITC-CFG (CFI violation)."""


@dataclass
class CreditLabeledITC:
    """An ITC-CFG plus per-edge training labels.

    Structures derived from the labelling (the search index's tables)
    are cached by :meth:`derived` against ``generation``, which every
    mutator here bumps, and against the graph's own
    :attr:`ITCCFG.generation`.  Labels changed by hand (not through
    :meth:`observe_pair` or :meth:`promote`) must bump it themselves.
    """

    itc: ITCCFG
    labels: Dict[Tuple[int, int], EdgeLabel] = field(default_factory=dict)
    #: IT-BBs observed as the *first* TIP of a trace during training.
    trained_entry_nodes: Set[int] = field(default_factory=set)
    #: bumped by every label mutation (see :meth:`derived`).
    generation: int = field(default=0, compare=False, repr=False)
    #: build function -> (generation, itc, itc generation, value).
    _derived: Dict[Callable, tuple] = field(
        default_factory=dict, compare=False, repr=False
    )

    # -- training ----------------------------------------------------------

    def observe_pair(
        self, src: int, dst: int, sig: int, strict: bool = True,
    ) -> None:
        """Record one consecutive-TIP observation from a training trace
        (``sig``: the packed TNT run seen between the two TIPs)."""
        if not self.itc.has_edge(src, dst):
            if strict:
                raise UnknownEdge(
                    f"trace edge {src:#x} -> {dst:#x} not in ITC-CFG"
                )
            return
        label = self.labels.setdefault((src, dst), EdgeLabel())
        label.credit = CreditLevel.HIGH
        label.tnt_patterns.add(sig)
        self.generation += 1

    def observe_trace(
        self, tips: Iterable[Tuple[int, int]], strict: bool = True,
    ) -> int:
        """Label edges from a sequence of ``(tip_ip, sig_before)``
        records (the scan's ip and signature columns, zipped).

        Returns the number of edges observed.
        """
        previous: Optional[int] = None
        count = 0
        for ip, sig in tips:
            if previous is None:
                if self.itc.has_node(ip):
                    self.trained_entry_nodes.add(ip)
            else:
                self.observe_pair(previous, ip, sig, strict=strict)
                count += 1
            previous = ip
        return count

    # -- queries -----------------------------------------------------------------

    def credit_of(self, src: int, dst: int) -> CreditLevel:
        label = self.labels.get((src, dst))
        return label.credit if label is not None else CreditLevel.LOW

    def tnt_matches(self, src: int, dst: int, sig: int) -> bool:
        """Whether a runtime TNT run (packed) was seen on this edge in
        training (only meaningful for high-credit edges)."""
        label = self.labels.get((src, dst))
        if label is None:
            return False
        return sig in label.tnt_patterns

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

    def promote(self, src: int, dst: int, sig: int = 1) -> None:
        """Promote an edge to high credit (slow-path negative caching:
        §7.1.1 — "negative results of slow path checking are cached for
        the subsequent fast path checking").  The confirmed TNT run is
        recorded even when it is empty (``sig == 1``): a promoted edge
        trusts exactly the runs confirmed on it, as a trained edge
        does."""
        label = self.labels.setdefault((src, dst), EdgeLabel())
        label.credit = CreditLevel.HIGH
        label.tnt_patterns.add(sig)
        self.generation += 1

    # -- derived structures ----------------------------------------------

    def derived(self, build: Callable[["CreditLabeledITC"], object]):
        """``build(self)``, computed once per state of the labelling.

        The value is cached per build function and rebuilt when this
        labelling's ``generation``, its graph object or the graph's
        ``generation`` has moved since it was built, so every consumer
        built between two mutations shares one value (consumers must
        not mutate it).
        """
        itc = self.itc
        cached = self._derived.get(build)
        if (
            cached is not None
            and cached[0] == self.generation
            and cached[1] is itc
            and cached[2] == itc.generation
        ):
            return cached[3]
        value = build(self)
        self._derived[build] = (self.generation, itc, itc.generation, value)
        return value


def itccfg_memory_bytes(labeled: CreditLabeledITC) -> int:
    """In-kernel resident size estimate of the maintained ITC-CFG."""
    size = 8 * len(labeled.itc.nodes)
    size += 24 * len(labeled.itc.edges)  # src, dst, branch
    for label in labeled.labels.values():
        size += 17  # key + credit byte
        # A packed signature carries ``sig.bit_length() - 1`` branches.
        size += sum(
            8 + (sig.bit_length() - 1 + 7) // 8 for sig in label.tnt_patterns
        )
    return size
