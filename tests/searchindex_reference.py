"""The per-edge search-index walk: the oracle for ``check_batch``.

:meth:`repro.itccfg.searchindex.FlowSearchIndex.check_batch` is the only
lookup the fast path runs: one flat loop over a window's packed ip/TNT
signature columns.  This is the per-edge structure it replaced — sorted
``_sources`` / per-source ``_targets`` lists, a ``_hot`` map holding
each hot edge's TNT runs as unpacked bool tuples, one
:meth:`ReferenceSearchIndex.check_edge` call and one
:class:`LookupResult` per pair — kept here so
``tests/test_searchindex_differential.py`` can hold the batch to it:
verdicts, charged cycles and ``memory_bytes()``.  Its interface takes
packed signatures, as the production index's does.

:func:`check_pair` runs one edge through the production batch, for
tests that probe a single pair.
"""

import bisect
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro import costs
from repro.ipt.packets import pack_tnt_sig, unpack_tnt_sig
from repro.itccfg.credits import CreditLabeledITC, CreditLevel
from repro.itccfg.searchindex import BatchCheckResult


@dataclass
class LookupResult:
    """Outcome of one edge check."""

    in_graph: bool
    credit: CreditLevel
    tnt_ok: bool
    probes: int


class ReferenceSearchIndex:
    """The per-edge §5.3 index: same cost model, one call per pair."""

    def __init__(self, labeled: CreditLabeledITC) -> None:
        self.labeled = labeled
        succ: Dict[int, Set[int]] = {}
        for edge in labeled.itc.edges:
            succ.setdefault(edge.src, set()).add(edge.dst)
        #: sorted source-node array (§5.3).
        self._sources: List[int] = sorted(succ)
        #: per-source sorted target arrays.
        self._targets: List[List[int]] = [
            sorted(succ[source]) for source in self._sources
        ]
        #: hot cache: high-credit edges with TNT patterns.
        self._hot: Dict[Tuple[int, int], Set[Tuple[bool, ...]]] = {}
        for (src, dst), label in labeled.labels.items():
            if label.credit is CreditLevel.HIGH:
                self._hot[(src, dst)] = {
                    unpack_tnt_sig(sig) for sig in label.tnt_patterns
                }
        self.cycles = 0.0

    def promote(self, src: int, dst: int, sig: int = 1) -> None:
        """Mirror a credit promotion into the hot cache.  The confirmed
        run is recorded even when empty: a hot edge trusts exactly the
        runs recorded for it."""
        self._hot.setdefault((src, dst), set()).add(unpack_tnt_sig(sig))

    def _binary_search(self, array: List[int], value: int) -> Tuple[bool, int]:
        """Membership + probe count (log2 cost model)."""
        probes = max(1, len(array).bit_length())
        if value is None:  # an IP-suppressed TIP: never a graph node
            return False, probes
        index = bisect.bisect_left(array, value)
        found = index < len(array) and array[index] == value
        return found, probes

    def check_edge(
        self, src: int, dst: int, tnt: Tuple[bool, ...] = ()
    ) -> LookupResult:
        """The §5.3 two-step check: source lookup, then target lookup.

        The hot cache is consulted first; a hit is a single hash probe.
        """
        probes = 1
        self.cycles += costs.CREDIT_CACHE_PROBE_CYCLES
        hot = self._hot.get((src, dst))
        if hot is not None:
            tnt_ok = tuple(tnt) in hot
            return LookupResult(True, CreditLevel.HIGH, tnt_ok, probes)

        # A None endpoint (IP-suppressed TIP) fails as an untrained
        # source does: same probes, out of graph.
        found_src, src_probes = self._binary_search(
            self._sources, None if dst is None else src
        )
        probes += src_probes
        self.cycles += src_probes * costs.SEARCH_PROBE_CYCLES
        if not found_src:
            return LookupResult(False, CreditLevel.LOW, False, probes)
        index = bisect.bisect_left(self._sources, src)
        found_dst, dst_probes = self._binary_search(
            self._targets[index], dst
        )
        probes += dst_probes
        self.cycles += dst_probes * costs.SEARCH_PROBE_CYCLES
        if not found_dst:
            return LookupResult(False, CreditLevel.LOW, False, probes)
        credit = self.labeled.credit_of(src, dst)
        tnt_ok = (
            credit is CreditLevel.HIGH
            and self.labeled.tnt_matches(src, dst, pack_tnt_sig(tnt))
        )
        return LookupResult(True, credit, tnt_ok, probes)

    def check_window(self, ips: list, sigs: list) -> BatchCheckResult:
        """The per-edge loop over a window: pair *i* is
        ``ips[i-1] -> ips[i]`` with the TNT run ``sigs[i]`` unpacked,
        stopping at the first out-of-graph edge."""
        outcome = BatchCheckResult()
        for index in range(1, len(ips)):
            src, dst = ips[index - 1], ips[index]
            outcome.checked += 1
            lookup = self.check_edge(src, dst, unpack_tnt_sig(sigs[index]))
            if not lookup.in_graph:
                outcome.violation = (src, dst)
                break
            if lookup.credit is not CreditLevel.HIGH or not lookup.tnt_ok:
                outcome.low_credit.append((src, dst))
        return outcome

    def memory_bytes(self) -> int:
        """Estimated resident size (Table 5's memory-usage column).

        Source records are (address, count, pointer) = 24 bytes; target
        entries are 8-byte addresses; hot-cache entries carry the edge
        key plus packed TNT patterns.
        """
        size = 24 * len(self._sources)
        size += sum(8 * len(targets) for targets in self._targets)
        for patterns in self._hot.values():
            size += 16  # edge key
            size += sum(8 + (len(p) + 7) // 8 for p in patterns)
        return size


def check_pair(index, src: int, dst: int,
               tnt: Tuple[bool, ...] = ()) -> BatchCheckResult:
    """One edge ``src -> dst`` (TNT run ``tnt``) through
    ``index.check_batch``: ``violation`` is set iff the edge is outside
    the graph, ``low_credit`` is non-empty iff it is in the graph but
    not trusted (low credit or an untrained TNT run)."""
    return index.check_batch([src, dst], [1, pack_tnt_sig(tnt)])
