"""``check_batch`` and the packed window hand-off against their oracles.

The fast path has one data shape from scan to verdict to slow-path
hand-off: packed ip / TNT-signature columns.  This suite holds the two
places that shape replaced an object path to the oracles kept in
``tests/``:

- :meth:`FlowSearchIndex.check_batch` against the per-edge walk of
  ``tests/searchindex_reference.py``, on tail windows captured from all
  four servers, with the edge memo on and off and ``promote`` calls
  interleaved: violation edge, ``checked``, ``low_credit``, charged
  cycles, memo hits / misses / invalidations and ``memory_bytes()``;
- the slow path's ``confirmed_pairs``, built from the window columns,
  against the pairs of the packet-object decode of
  ``tests/packet_reference.py`` — including stitched multi-segment
  tails, where a TNT run straddles a PSB.
"""

import random

import pytest

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
