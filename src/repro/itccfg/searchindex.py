"""The fast-path matching structure of §5.3.

FlowGuard maintains an array of source-node records, each holding a
count of outgoing edges and a pointer to a sorted array of target
addresses, so membership tests are two binary searches.  A separate
"hot" store caches high-credit edges (with their TNT patterns) for the
common case: one set of hot ``(src, dst)`` edges and one set of trusted
``(src, dst, sig)`` triples.  Every probe charges cycles so the
micro-benchmarks can report realistic fast-path costs.

Edges are checked a window at a time by :meth:`FlowSearchIndex.check_batch`
over the packed columns the fast path decodes: record IPs and 1-prefixed
TNT signatures (:func:`repro.ipt.packets.pack_tnt_sig`).  A window whose
every pair is a trusted triple is judged by one set-membership sweep;
anything else takes the per-edge loop.  The per-edge walk both replaced
is kept as the oracle in ``tests/searchindex_reference.py``.

The sorted arrays and the hot-cache sets depend only on the labelling,
so :func:`search_tables` builds them once per state of it (cached by
:meth:`~repro.itccfg.credits.CreditLabeledITC.derived`, which every
label or edge mutation invalidates): every deploy of one pipeline
shares the arrays, and each index copies only the two sets its own
:meth:`FlowSearchIndex.promote` mutates.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro import costs
from repro.itccfg.credits import CreditLabeledITC, CreditLevel


class SearchTables(NamedTuple):
    """What :class:`FlowSearchIndex` derives from a labelling: the
    sorted source array, the concatenated per-source target arrays with
    their bounds, and the frozen hot-cache sets."""

    src_arr: array
    tgt_flat: array
    tgt_bounds: array
    hot: FrozenSet[Tuple[int, int]]
    trusted: FrozenSet[Tuple[int, int, int]]


def search_tables(labeled: CreditLabeledITC) -> SearchTables:
    """Build the search tables of ``labeled``.  Indexes get them
    through ``labeled.derived(search_tables)``, so every deploy of one
    state of a labelling builds them once."""
    succ: Dict[int, Set[int]] = {}
    for edge in labeled.itc.edges:
        succ.setdefault(edge.src, set()).add(edge.dst)
    sources = sorted(succ)
    tgt_flat = array("Q")
    bounds = array("L", [0] * (len(sources) + 1))
    for index, source in enumerate(sources):
        tgt_flat.extend(sorted(succ[source]))
        bounds[index + 1] = len(tgt_flat)
    hot = set()
    trusted = set()
    for (src, dst), label in labeled.labels.items():
        if label.credit is CreditLevel.HIGH:
            hot.add((src, dst))
            trusted.update((src, dst, sig) for sig in label.tnt_patterns)
    return SearchTables(
        array("Q", sources), tgt_flat, bounds,
        frozenset(hot), frozenset(trusted),
    )


@dataclass
class BatchCheckResult:
    """Outcome of one :meth:`FlowSearchIndex.check_batch` call.

    ``checked`` counts pairs actually verified — the batch stops at the
    first out-of-graph edge.
    """

    violation: Optional[Tuple[int, int]] = None
    low_credit: List[Tuple[int, int]] = field(default_factory=list)
    checked: int = 0


class FlowSearchIndex:
    """Sorted-array search structure over a credit-labelled ITC-CFG.

    The hot cache is two sets: ``_hot`` holds the high-credit
    ``(src, dst)`` edges and ``_trusted`` every ``(src, dst, sig)``
    triple of a high-credit edge with a TNT run seen on it (in training
    or confirmed by the slow path).  An edge is trusted only with a run
    in ``_trusted``; a hot edge with any other run is low credit.
    """

    def __init__(self, labeled: CreditLabeledITC) -> None:
        self.labeled = labeled
        tables = labeled.derived(search_tables)
        #: sorted source-node array (§5.3), and every source's sorted
        #: targets concatenated into one array with per-source bounds —
        #: bisect runs on C-contiguous arrays.  Shared (read-only) by
        #: every index over the same state of the labelling.
        self._src_arr: array = tables.src_arr
        self._tgt_flat: array = tables.tgt_flat
        self._tgt_bounds: array = tables.tgt_bounds
        #: hot cache, in separate memory for fast matching: the
        #: high-credit edges, and each one's trusted packed TNT runs.
        #: This index's own copies, so its :meth:`promote` stays its own.
        self._hot: Set[Tuple[int, int]] = set(tables.hot)
        self._trusted: Set[Tuple[int, int, int]] = set(tables.trusted)
        self.cycles = 0.0

    # -- maintenance ---------------------------------------------------------

    def promote(self, src: int, dst: int, sig: int = 1) -> None:
        """Mirror a credit promotion into the hot cache: the edge turns
        hot and trusts the confirmed packed run ``sig`` (the empty run
        ``1`` included)."""
        self._hot.add((src, dst))
        self._trusted.add((src, dst, sig))

    # -- lookups ----------------------------------------------------------------

    def check_batch(self, ips: list, sigs: list) -> BatchCheckResult:
        """Verify a whole window of TIP records in one call.

        ``ips`` are the window's record IPs in stream order; ``sigs``
        their packed TNT signatures (``sigs[i]`` is the run observed
        before ``ips[i]``).  Pair *i* is the edge ``ips[i-1] -> ips[i]``
        checked with ``sigs[i]``, through the §5.3 two-step check: the
        hot cache first (one hash probe), else a source search and a
        target search.  The batch stops at the first out-of-graph edge.

        The common case — every pair a trusted triple — is one C-level
        membership sweep over the zipped columns, charged one hot-cache
        probe per pair in a single add.  That add equals the per-pair
        sum bit for bit: every charge here is a multiple of 0.5 cycles,
        so each partial sum is exact.  Any other window (a miss, a
        ``None`` ip) runs the per-edge loop from the first pair.
        """
        trusted = self._trusted
        if trusted.issuperset(zip(
            ips, islice(ips, 1, None), islice(sigs, 1, None)
        )):
            pairs = max(len(ips) - 1, 0)
            self.cycles += pairs * costs.CREDIT_CACHE_PROBE_CYCLES
            return BatchCheckResult(checked=pairs)
        outcome = BatchCheckResult()
        low_credit = outcome.low_credit
        hot = self._hot
        src_arr = self._src_arr
        tgt_flat = self._tgt_flat
        tgt_bounds = self._tgt_bounds
        n_src = len(src_arr)
        src_probes = max(1, n_src.bit_length())
        credit_probe = costs.CREDIT_CACHE_PROBE_CYCLES
        search_probe = costs.SEARCH_PROBE_CYCLES
        bisect_left = bisect.bisect_left
        high = CreditLevel.HIGH
        labeled = self.labeled
        checked = 0
        for index in range(1, len(ips)):
            src = ips[index - 1]
            dst = ips[index]
            sig = sigs[index]
            checked += 1
            self.cycles += credit_probe
            if (src, dst, sig) in trusted:
                continue
            if (src, dst) in hot:
                low_credit.append((src, dst))
                continue
            self.cycles += src_probes * search_probe
            # An IP-suppressed TIP puts a None ip in the window: it is
            # no graph node, so the pair fails closed at an untrained
            # source's cost and never reaches a bisect.
            if src is None or dst is None:
                position = n_src
            else:
                position = bisect_left(src_arr, src)
            if position < n_src and src_arr[position] == src:
                lo = tgt_bounds[position]
                hi = tgt_bounds[position + 1]
                self.cycles += max(1, (hi - lo).bit_length()) * search_probe
                slot = bisect_left(tgt_flat, dst, lo, hi)
                if slot < hi and tgt_flat[slot] == dst:
                    # Trusted here only when promoted through the shared
                    # labelling but not through this index.
                    if not (
                        labeled.credit_of(src, dst) is high
                        and labeled.tnt_matches(src, dst, sig)
                    ):
                        low_credit.append((src, dst))
                    continue
            outcome.violation = (src, dst)
            break
        outcome.checked = checked
        return outcome

    def memory_bytes(self) -> int:
        """Estimated resident size (Table 5's memory-usage column).

        Source records are (address, count, pointer) = 24 bytes; target
        entries are 8-byte addresses; hot-cache entries carry the edge
        key plus packed TNT patterns (a signature's pattern is
        ``sig.bit_length() - 1`` branches long).
        """
        size = 24 * len(self._src_arr) + 8 * len(self._tgt_flat)
        size += 16 * len(self._hot)  # edge keys
        size += sum(
            8 + (sig.bit_length() + 6) // 8 for _, _, sig in self._trusted
        )
        return size
