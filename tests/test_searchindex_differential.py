"""``check_batch`` and the packed window hand-off against their oracles.

The fast path has one data shape from scan to verdict to slow-path
hand-off: packed ip / TNT-signature columns.  This suite holds the two
places that shape replaced an object path to the oracles kept in
``tests/``:

- :meth:`FlowSearchIndex.check_batch` against the per-edge walk of
  ``tests/searchindex_reference.py``, on tail windows captured from all
  four servers, with the edge memo on and off and ``promote`` calls
  interleaved: violation edge, ``checked``, ``low_credit``, charged
  cycles, memo hits / misses / invalidations and ``memory_bytes()``.
  A fully trusted window must take the one-pass membership sweep, and
  every window it cannot judge (an untrusted pair anywhere, a ``None``
  ip, memo on) the per-edge loop, with the same outcome and charge;
- the slow path's ``confirmed_pairs``, built from the window columns,
  against the pairs of the packet-object decode of
  ``tests/packet_reference.py`` — including stitched multi-segment
  tails, where a TNT run straddles a PSB.
"""

import random

import pytest

from repro import costs
from repro.experiments.common import (
    SERVER_NAMES,
    run_server,
    server_pipeline,
    server_requests,
)
from repro.ipt.packets import pack_tnt_sig, unpack_tnt_sig
from repro.itccfg import FlowSearchIndex
from repro.itccfg.serialize import itccfg_from_dict, itccfg_to_dict
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.policy import FlowGuardPolicy
from repro.monitor.slowpath import SlowPathEngine
from tests.packet_reference import fast_decode
from tests.searchindex_reference import ReferenceSearchIndex

EDGE_ENTRIES = 64  # small enough to evict within one server's windows


@pytest.fixture(scope="module")
def captures():
    """Per server: every ToPA snapshot a protected run checked, plus the
    process the run protected (for its image and memory)."""
    policy = FlowGuardPolicy(cache_slow_path_negatives=False)
    out = {}
    original = FastPathChecker.__dict__["check"]
    for server in SERVER_NAMES:
        seen = []

        def capture(checker, data, _seen=seen):
            _seen.append(bytes(data))
            return original(checker, data)

        FastPathChecker.check = capture
        try:
            run = run_server(
                server, server_requests(server, 2), protected=True,
                policy=policy,
            )
        finally:
            FastPathChecker.check = original
        assert seen, f"{server}: no checks captured"
        out[server] = (seen, run.proc)
    return out


def private_labeled(server, thin):
    """A copy of the server's trained labelling (promotions must not
    leak into the shared pipeline); ``thin`` drops every other label so
    windows carry low-credit edges worth promoting."""
    labeled = itccfg_from_dict(
        itccfg_to_dict(server_pipeline(server).labeled)
    )
    if thin:
        for key in sorted(labeled.labels)[::2]:
            del labeled.labels[key]
    return labeled


def windows(captures, server, pkt_count=30):
    """The ip/sig window the fast path checks on each snapshot."""
    snapshots, proc = captures[server]
    checker = FastPathChecker(FlowSearchIndex(
        server_pipeline(server).labeled
    ), proc.image, pkt_count=pkt_count)
    out = []
    for data in snapshots:
        ips, sigs, _ = checker.decode_tail_columnar(data).window(
            pkt_count + 1
        )
        out.append((ips, sigs))
    return out


def assert_same_state(batch_index, ref_index):
    assert batch_index.cycles == ref_index.cycles
    assert batch_index.edge_cache_stats() == ref_index.edge_cache_stats()
    assert batch_index.memory_bytes() == ref_index.memory_bytes()


@pytest.mark.parametrize("server", SERVER_NAMES)
@pytest.mark.parametrize("memo", [0, EDGE_ENTRIES], ids=["memo-off",
                                                          "memo-on"])
@pytest.mark.parametrize("thin", [False, True], ids=["trained", "thinned"])
def test_check_batch_matches_edge_walk(captures, server, memo, thin):
    labeled = private_labeled(server, thin)
    batch_index = FlowSearchIndex(labeled, edge_cache_entries=memo)
    ref_index = ReferenceSearchIndex(labeled, edge_cache_entries=memo)
    rng = random.Random(f"{server}-{memo}-{thin}")
    promotions = 0
    for ips, sigs in windows(captures, server):
        # Every window twice: the second pass is memo-hit dominated.
        for _ in range(2):
            got = batch_index.check_batch(ips, sigs)
            want = ref_index.check_window(ips, sigs)
            assert (got.violation, got.checked, got.low_credit) == (
                want.violation, want.checked, want.low_credit
            )
            assert_same_state(batch_index, ref_index)
        # Interleave the slow path's negative caching: promote through
        # both indexes, or — as another process sharing the labelling
        # would — through the labelling alone.
        for src, dst in got.low_credit[:2]:
            position = next(
                i for i in range(1, len(ips))
                if (ips[i - 1], ips[i]) == (src, dst)
            )
            tnt = unpack_tnt_sig(sigs[position])
            labeled.promote(src, dst, tnt)
            if rng.random() < 0.7:
                batch_index.promote(src, dst, tnt)
                ref_index.promote(src, dst, tnt)
            promotions += 1
            assert_same_state(batch_index, ref_index)
    if thin:
        assert promotions, "thinned labels must leave edges to promote"
    if memo:
        assert batch_index.memo_hits > 0


@pytest.mark.parametrize("memo", [0, EDGE_ENTRIES], ids=["memo-off",
                                                          "memo-on"])
def test_violation_stops_both_at_the_same_pair(captures, memo):
    labeled = private_labeled("nginx", thin=False)
    batch_index = FlowSearchIndex(labeled, edge_cache_entries=memo)
    ref_index = ReferenceSearchIndex(labeled, edge_cache_entries=memo)
    for ips, sigs in windows(captures, "nginx"):
        if len(ips) < 4:
            continue
        ips = ips[:2] + [0xDEAD0000] + ips[2:]
        sigs = sigs[:2] + [pack_tnt_sig((True,))] + sigs[2:]
        got = batch_index.check_batch(ips, sigs)
        want = ref_index.check_window(ips, sigs)
        assert got.violation == want.violation == (ips[1], 0xDEAD0000)
        assert got.checked == want.checked == 2
        assert_same_state(batch_index, ref_index)


@pytest.mark.parametrize("memo", [0, EDGE_ENTRIES], ids=["memo-off",
                                                          "memo-on"])
@pytest.mark.parametrize("shape", ["trained-src", "none-src", "untrained-src"])
def test_ip_suppressed_tip_fails_closed(memo, shape):
    """An IP-suppressed TIP puts a None ip in the window.  The pair it
    ends or starts is out of graph (a violation at that pair), charged
    what an untrained source pays: the credit probe plus the source
    search.  It must never reach a bisect."""
    from repro import costs

    labeled = private_labeled("nginx", thin=False)
    batch_index = FlowSearchIndex(labeled, edge_cache_entries=memo)
    ref_index = ReferenceSearchIndex(labeled, edge_cache_entries=memo)
    trained = 0x400000
    assert trained in batch_index._src_arr
    ips = {
        "trained-src": [trained, None],
        "none-src": [None, trained],
        "untrained-src": [0x123, None],
    }[shape]
    sigs = [1, pack_tnt_sig((True,))]
    src_probes = max(1, len(batch_index._src_arr).bit_length())
    want_cycles = (
        (costs.EDGE_CACHE_PROBE_CYCLES if memo else 0)
        + costs.CREDIT_CACHE_PROBE_CYCLES
        + src_probes * costs.SEARCH_PROBE_CYCLES
    )
    for _ in range(2):  # the second pass is a memo hit when memo is on
        before = batch_index.cycles
        got = batch_index.check_batch(ips, sigs)
        want = ref_index.check_window(ips, sigs)
        assert got.violation == want.violation == tuple(ips)
        assert got.checked == want.checked == 1
        assert got.low_credit == want.low_credit == []
        assert_same_state(batch_index, ref_index)
        if not memo or not batch_index.memo_hits:
            assert batch_index.cycles - before == want_cycles


def test_ip_suppressed_tip_mid_window(captures):
    """A None ip inside a captured window: the batch stops at the first
    pair that touches it, exactly where the oracle does."""
    labeled = private_labeled("nginx", thin=False)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
    judged = 0
    for ips, sigs in windows(captures, "nginx"):
        if len(ips) < 4:
            continue
        ips = ips[:2] + [None] + ips[3:]
        got = batch_index.check_batch(ips, sigs)
        want = ref_index.check_window(ips, sigs)
        assert (got.violation, got.checked, got.low_credit) == (
            want.violation, want.checked, want.low_credit
        )
        assert got.violation == (ips[1], None)
        assert_same_state(batch_index, ref_index)
        judged += 1
    assert judged


class CountingSigs(list):
    """A signature column that counts indexed reads: only the per-edge
    loop indexes ``sigs``; the sweep iterates it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def trusted_windows(labeled, server, captures):
    """The captured windows of ``server`` whose every pair ``labeled``
    trusts (the oracle says so: no violation, no low-credit pair)."""
    ref_index = ReferenceSearchIndex(labeled)
    return [
        (ips, sigs) for ips, sigs in windows(captures, server)
        if len(ips) > 1
        and not (want := ref_index.check_window(ips, sigs)).low_credit
        and want.violation is None
    ]


def assert_same_outcome(got, want):
    assert (got.violation, got.checked, got.low_credit) == (
        want.violation, want.checked, want.low_credit
    )


@pytest.mark.parametrize("server", SERVER_NAMES)
@pytest.mark.parametrize("memo", [0, EDGE_ENTRIES], ids=["memo-off",
                                                          "memo-on"])
def test_trusted_window_takes_the_sweep(captures, server, memo):
    """With the memo off a fully trusted window is one sweep; with it
    on, the per-edge loop, so the memo counts every pair."""
    labeled = private_labeled(server, thin=False)
    batch_index = FlowSearchIndex(labeled, edge_cache_entries=memo)
    ref_index = ReferenceSearchIndex(labeled, edge_cache_entries=memo)
    clean = trusted_windows(labeled, server, captures)
    assert clean, f"{server}: no fully trusted window captured"
    pairs = 0
    for ips, sigs in clean:
        counted = CountingSigs(sigs)
        got = batch_index.check_batch(ips, counted)
        assert counted.reads == (len(ips) - 1 if memo else 0)
        assert_same_outcome(got, ref_index.check_window(ips, sigs))
        assert got.checked == len(ips) - 1
        assert_same_state(batch_index, ref_index)
        pairs += len(ips) - 1
    if memo:
        assert batch_index.memo_hits + batch_index.memo_misses == pairs


def test_promoted_window_takes_the_sweep(captures):
    """Promoting a window's low-credit pairs through the index makes
    the next check of that window one sweep."""
    labeled = private_labeled("nginx", thin=True)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
    promoted = 0
    for ips, sigs in windows(captures, "nginx"):
        got = batch_index.check_batch(ips, sigs)
        assert_same_outcome(got, ref_index.check_window(ips, sigs))
        if got.violation is not None or not got.low_credit:
            continue
        for position in range(1, len(ips)):
            pair = (ips[position - 1], ips[position])
            if pair in got.low_credit:
                tnt = unpack_tnt_sig(sigs[position])
                labeled.promote(*pair, tnt)
                batch_index.promote(*pair, tnt)
                ref_index.promote(*pair, tnt)
        counted = CountingSigs(sigs)
        again = batch_index.check_batch(ips, counted)
        assert counted.reads == 0, "a promoted window left the sweep"
        assert again.low_credit == []
        assert_same_outcome(again, ref_index.check_window(ips, sigs))
        assert_same_state(batch_index, ref_index)
        promoted += 1
    assert promoted


def untrained_sig(labeled, src, dst):
    """A TNT signature never seen on ``src -> dst``."""
    sig = pack_tnt_sig((True, False) * 20)
    while labeled.tnt_matches(src, dst, unpack_tnt_sig(sig)):
        sig += 1
    return sig


@pytest.mark.parametrize("memo", [0, EDGE_ENTRIES], ids=["memo-off",
                                                          "memo-on"])
def test_untrusted_pair_at_every_position_falls_back(captures, memo):
    labeled = private_labeled("nginx", thin=False)
    ips, sigs = max(trusted_windows(labeled, "nginx", captures),
                    key=lambda window: len(window[0]))
    assert len(ips) > 8
    for position in range(1, len(ips)):
        for shape in ("unseen-run", "off-graph", "suppressed"):
            window_ips, window_sigs = list(ips), list(sigs)
            if shape == "unseen-run":
                window_sigs[position] = untrained_sig(
                    labeled, ips[position - 1], ips[position]
                )
            else:
                window_ips[position] = (
                    0xDEAD0000 if shape == "off-graph" else None
                )
            batch_index = FlowSearchIndex(labeled, edge_cache_entries=memo)
            ref_index = ReferenceSearchIndex(
                labeled, edge_cache_entries=memo
            )
            counted = CountingSigs(window_sigs)
            got = batch_index.check_batch(window_ips, counted)
            want = ref_index.check_window(window_ips, window_sigs)
            assert counted.reads > 0
            assert_same_outcome(got, want)
            assert_same_state(batch_index, ref_index)
            if shape == "unseen-run":
                assert got.low_credit == [(ips[position - 1], ips[position])]
                assert got.checked == len(ips) - 1
            else:
                assert got.violation == (
                    ips[position - 1], window_ips[position]
                )
                assert got.checked == position


def test_probe_costs_are_half_cycle_multiples():
    """The sweep charges a whole window in one add; that equals the
    per-pair sum exactly only while every ``check_batch`` charge is a
    multiple of 0.5 cycles."""
    for name in ("CREDIT_CACHE_PROBE_CYCLES", "SEARCH_PROBE_CYCLES",
                 "EDGE_CACHE_PROBE_CYCLES"):
        value = getattr(costs, name)
        assert (value * 2).is_integer(), f"{name} = {value!r}"


class TestEmptyRunPromotion:
    """The slow path confirms pairs whose TNT run is empty.  Promoting
    one trusts that run and no other, in the promoting index, in an
    index that shares the labelling, and in one built from it later."""

    @staticmethod
    def _edge(labeled):
        """An in-graph edge with no label: low credit on every run."""
        return next(
            (edge.src, edge.dst)
            for edge in sorted(labeled.itc.edges,
                               key=lambda edge: (edge.src, edge.dst))
            if (edge.src, edge.dst) not in labeled.labels
        )

    def _indexes(self):
        labeled = private_labeled("nginx", thin=True)
        src, dst = self._edge(labeled)
        promoting = FlowSearchIndex(labeled)
        sharing = FlowSearchIndex(labeled)
        ref_promoting = ReferenceSearchIndex(labeled)
        ref_sharing = ReferenceSearchIndex(labeled)
        labeled.promote(src, dst, ())
        promoting.promote(src, dst, ())
        ref_promoting.promote(src, dst, ())
        fresh = FlowSearchIndex(labeled)
        ref_fresh = ReferenceSearchIndex(labeled)
        return (src, dst), [
            (promoting, ref_promoting),
            (sharing, ref_sharing),
            (fresh, ref_fresh),
        ]

    def test_empty_run_is_trusted_everywhere(self):
        pair, indexes = self._indexes()
        for index, ref_index in indexes:
            got = index.check_batch(list(pair), [1, 1])
            assert_same_outcome(got, ref_index.check_window(list(pair),
                                                            [1, 1]))
            assert got.violation is None
            assert got.low_credit == []
            assert_same_state(index, ref_index)

    def test_other_runs_stay_low_credit_everywhere(self):
        pair, indexes = self._indexes()
        sig = pack_tnt_sig((True,))
        for index, ref_index in indexes:
            got = index.check_batch(list(pair), [1, sig])
            assert_same_outcome(got, ref_index.check_window(list(pair),
                                                            [1, sig]))
            assert got.low_credit == [pair]
            assert_same_state(index, ref_index)


@pytest.mark.parametrize("server", SERVER_NAMES)
def test_memory_bytes_matches_reference(server):
    labeled = private_labeled(server, thin=True)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
    assert batch_index.memory_bytes() == ref_index.memory_bytes()
    edges = sorted({(e.src, e.dst) for e in labeled.itc.edges})[:20]
    for number, (src, dst) in enumerate(edges):
        tnt = tuple(bool(number >> bit & 1) for bit in range(number % 9))
        for index in (batch_index, ref_index):
            index.promote(src, dst, tnt)
        assert batch_index.memory_bytes() == ref_index.memory_bytes()


@pytest.mark.parametrize("server", SERVER_NAMES)
def test_confirmed_pairs_match_packet_oracle(captures, server):
    """The slow path confirms exactly the window pairs the packet-object
    decode of the tail yields, TNT runs stitched across PSBs."""
    snapshots, proc = captures[server]
    pipeline = server_pipeline(server)
    checker = FastPathChecker(
        FlowSearchIndex(pipeline.labeled), proc.image, pkt_count=30
    )
    engine = SlowPathEngine(proc.machine.memory, pipeline.ocfg)
    stitched = 0
    for data in snapshots:
        result = checker.check(data)
        tail = result.tail
        start = tail.start
        records = fast_decode(data[start:]).tip_records()
        window = records[-(checker.pkt_count + 1):]
        assert result.first_record_offset == (
            window[0].offset + start if window else None
        )
        slow = engine.check(
            result.slow_path_source(), result.window_ips,
            result.window_sigs,
        )
        assert slow.ok, slow.reason
        assert slow.confirmed_pairs == [
            (prev.ip, cur.ip, cur.tnt_before)
            for prev, cur in zip(window, window[1:])
        ]
        # Window records whose TNT run began in an earlier segment.
        stitched += sum(
            entry.patch_sig != 1
            and entry.seg.rec_offsets[0] + entry.base
            >= result.first_record_offset
            for entry in tail.entries if entry.seg.record_count
        )
    assert stitched, f"{server}: no TNT run straddled a PSB in the windows"
