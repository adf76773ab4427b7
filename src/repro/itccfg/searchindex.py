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
"""

from __future__ import annotations

import bisect
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.ipt.packets import pack_tnt_sig, unpack_tnt_sig
from repro.itccfg.credits import CreditLabeledITC, CreditLevel

# Memoised edge outcomes.
_OUT_OF_GRAPH = 0
_LOW_CREDIT = 1  # in graph, but low credit or an unseen TNT run
_TRUSTED = 2  # high credit with a trained TNT run


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

    ``edge_cache_entries`` > 0 additionally memoizes full
    ``(src, dst, sig)`` lookup outcomes in a bounded LRU: a memo hit is
    a single hash probe (``EDGE_CACHE_PROBE_CYCLES``) instead of the
    credit-cache probe plus binary searches.  :meth:`promote` mutates
    edge state, so it invalidates every memo for the promoted edge.
    """

    def __init__(
        self,
        labeled: CreditLabeledITC,
        edge_cache_entries: int = 0,
    ) -> None:
        self.labeled = labeled
        self.edge_cache_entries = edge_cache_entries
        self._memo: "OrderedDict[Tuple[int, int, int], int]" = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        succ: Dict[int, Set[int]] = {}
        for edge in labeled.itc.edges:
            succ.setdefault(edge.src, set()).add(edge.dst)
        sources = sorted(succ)
        #: sorted source-node array (§5.3), and every source's sorted
        #: targets concatenated into one array with per-source bounds —
        #: bisect runs on C-contiguous arrays.
        self._src_arr: array = array("Q", sources)
        self._tgt_flat: array = array("Q")
        bounds = array("L", [0] * (len(sources) + 1))
        for index, source in enumerate(sources):
            self._tgt_flat.extend(sorted(succ[source]))
            bounds[index + 1] = len(self._tgt_flat)
        self._tgt_bounds: array = bounds
        #: hot cache, in separate memory for fast matching: the
        #: high-credit edges, and each one's trusted packed TNT runs.
        self._hot: Set[Tuple[int, int]] = set()
        self._trusted: Set[Tuple[int, int, int]] = set()
        for (src, dst), label in labeled.labels.items():
            if label.credit is CreditLevel.HIGH:
                self._hot.add((src, dst))
                self._trusted.update(
                    (src, dst, pack_tnt_sig(pattern))
                    for pattern in label.tnt_patterns
                )
        #: packed signature -> unpacked tuple, shared across
        #: ``check_batch`` calls (pure function of the sig; bounded
        #: because real traces repeat a small set of TNT runs).
        self._sig_tuples: Dict[int, Tuple[bool, ...]] = {}
        self.cycles = 0.0

    # -- maintenance ---------------------------------------------------------

    def promote(self, src: int, dst: int, tnt: Tuple[bool, ...] = ()) -> None:
        """Mirror a credit promotion into the hot cache: the edge turns
        hot and trusts the confirmed run ``tnt`` (empty included)."""
        self._hot.add((src, dst))
        self._trusted.add((src, dst, pack_tnt_sig(tnt)))
        if self._memo:
            stale = [
                key for key in self._memo
                if key[0] == src and key[1] == dst
            ]
            for key in stale:
                del self._memo[key]
            if stale:
                self.memo_invalidations += len(stale)
                tel = get_telemetry()
                if tel.enabled:
                    tel.metrics.counter(
                        "itccfg.edge_cache.invalidations"
                    ).inc(len(stale))

    # -- lookups ----------------------------------------------------------------

    def edge_cache_stats(self) -> dict:
        return {
            "entries": self.edge_cache_entries,
            "resident": len(self._memo),
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "invalidations": self.memo_invalidations,
            "hit_rate": (
                self.memo_hits / (self.memo_hits + self.memo_misses)
                if (self.memo_hits + self.memo_misses) else 0.0
            ),
        }

    def check_batch(self, ips: list, sigs: list) -> BatchCheckResult:
        """Verify a whole window of TIP records in one call.

        ``ips`` are the window's record IPs in stream order; ``sigs``
        their packed TNT signatures (``sigs[i]`` is the run observed
        before ``ips[i]``).  Pair *i* is the edge ``ips[i-1] -> ips[i]``
        checked with ``sigs[i]``, through the §5.3 two-step check: the
        hot cache first (one hash probe), else a source search and a
        target search.  With edge memoization on, a previously computed
        outcome for the exact ``(src, dst, sig)`` triple short-circuits
        everything at one probe.  The batch stops at the first
        out-of-graph edge.

        The common case — memo off and every pair a trusted triple — is
        one C-level membership sweep over the zipped columns, charged
        one hot-cache probe per pair in a single add.  That add equals
        the per-pair sum bit for bit: every charge here is a multiple
        of 0.5 cycles, so each partial sum is exact.  Any other window
        (a miss, a ``None`` ip, memo on) runs the per-edge loop from
        the first pair.
        """
        memo_capacity = self.edge_cache_entries
        trusted = self._trusted
        if not memo_capacity and all(map(trusted.__contains__, zip(
            ips, islice(ips, 1, None), islice(sigs, 1, None)
        ))):
            pairs = max(len(ips) - 1, 0)
            self.cycles += pairs * costs.CREDIT_CACHE_PROBE_CYCLES
            return BatchCheckResult(checked=pairs)
        outcome = BatchCheckResult()
        low_credit = outcome.low_credit
        memo = self._memo
        hot = self._hot
        src_arr = self._src_arr
        tgt_flat = self._tgt_flat
        tgt_bounds = self._tgt_bounds
        n_src = len(src_arr)
        src_probes = max(1, n_src.bit_length())
        credit_probe = costs.CREDIT_CACHE_PROBE_CYCLES
        search_probe = costs.SEARCH_PROBE_CYCLES
        memo_probe = costs.EDGE_CACHE_PROBE_CYCLES
        bisect_left = bisect.bisect_left
        high = CreditLevel.HIGH
        labeled = self.labeled
        hit_counter = miss_counter = None
        if memo_capacity:
            tel = get_telemetry()
            if tel.enabled:
                hit_counter = tel.metrics.counter("itccfg.edge_cache.hits")
                miss_counter = tel.metrics.counter("itccfg.edge_cache.misses")
        sig_tuples = self._sig_tuples
        checked = 0
        for index in range(1, len(ips)):
            src = ips[index - 1]
            dst = ips[index]
            sig = sigs[index]
            checked += 1
            key = (src, dst, sig)
            if memo_capacity:
                self.cycles += memo_probe
                edge = memo.get(key)
                if edge is not None:
                    memo.move_to_end(key)
                    self.memo_hits += 1
                    if hit_counter is not None:
                        hit_counter.inc()
                    if edge == _OUT_OF_GRAPH:
                        outcome.violation = (src, dst)
                        break
                    if edge == _LOW_CREDIT:
                        low_credit.append((src, dst))
                    continue
                self.memo_misses += 1
                if miss_counter is not None:
                    miss_counter.inc()
            self.cycles += credit_probe
            if key in trusted:
                edge = _TRUSTED
            elif (src, dst) in hot:
                edge = _LOW_CREDIT
            else:
                edge = _OUT_OF_GRAPH
                self.cycles += src_probes * search_probe
                # An IP-suppressed TIP puts a None ip in the window: it
                # is no graph node, so the pair fails closed at an
                # untrained source's cost and never reaches a bisect.
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
                        edge = _LOW_CREDIT
                        # An edge promoted through a labelling this
                        # index shares, but not through this index.
                        if labeled.credit_of(src, dst) is high:
                            tnt = sig_tuples.get(sig)
                            if tnt is None:
                                tnt = unpack_tnt_sig(sig)
                                sig_tuples[sig] = tnt
                            if labeled.tnt_matches(src, dst, tnt):
                                edge = _TRUSTED
            if memo_capacity:
                memo[key] = edge
                if len(memo) > memo_capacity:
                    memo.popitem(last=False)
            if edge == _OUT_OF_GRAPH:
                outcome.violation = (src, dst)
                break
            if edge == _LOW_CREDIT:
                low_credit.append((src, dst))
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
