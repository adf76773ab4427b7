"""``check_batch`` and the packed window hand-off against their oracles.

The fast path has one data shape from scan to verdict to slow-path
hand-off: packed ip / TNT-signature columns.  This suite holds the two
places that shape replaced an object path to the oracles kept in
``tests/``:

- :meth:`FlowSearchIndex.check_batch` against the per-edge walk of
  ``tests/searchindex_reference.py``, on tail windows captured from all
  four servers, with ``promote`` calls interleaved: violation edge,
  ``checked``, ``low_credit``, charged cycles and ``memory_bytes()``.
  A fully trusted window must take the one-pass membership sweep, and
  every window it cannot judge (an untrusted pair anywhere, a ``None``
  ip) the per-edge loop, with the same outcome and charge;
- the slow path's ``confirmed_pairs``, built from the window columns,
  against the pairs of the packet-object decode of
  ``tests/packet_reference.py`` — including stitched multi-segment
  tails, where a TNT run straddles a PSB.
"""

import copy
import random

import pytest

from repro import costs
from repro.experiments.common import (
    SERVER_NAMES,
    run_server,
    server_pipeline,
    server_requests,
)
from repro.ipt.packets import pack_tnt_sig
from repro.itccfg import FlowSearchIndex, ITCEdge
from repro.itccfg import searchindex
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.policy import FlowGuardPolicy
from repro.monitor.slowpath import SlowPathEngine
from repro.osmodel import Kernel
from tests.packet_reference import fast_decode
from tests.searchindex_reference import ReferenceSearchIndex


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
    labeled = copy.deepcopy(server_pipeline(server).labeled)
    if thin:
        for key in sorted(labeled.labels)[::2]:
            del labeled.labels[key]
    # A new state: tables derived for the source must be rebuilt.
    labeled.generation += 1
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
    assert batch_index.memory_bytes() == ref_index.memory_bytes()


@pytest.mark.parametrize("server", SERVER_NAMES)
@pytest.mark.parametrize("thin", [False, True], ids=["trained", "thinned"])
def test_check_batch_matches_edge_walk(captures, server, thin):
    labeled = private_labeled(server, thin)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
    rng = random.Random(f"{server}-{thin}")
    promotions = 0
    for ips, sigs in windows(captures, server):
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
            sig = sigs[position]
            labeled.promote(src, dst, sig)
            if rng.random() < 0.7:
                batch_index.promote(src, dst, sig)
                ref_index.promote(src, dst, sig)
            promotions += 1
            assert_same_state(batch_index, ref_index)
    if thin:
        assert promotions, "thinned labels must leave edges to promote"


def test_violation_stops_both_at_the_same_pair(captures):
    labeled = private_labeled("nginx", thin=False)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
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


@pytest.mark.parametrize("shape", ["trained-src", "none-src", "untrained-src"])
def test_ip_suppressed_tip_fails_closed(shape):
    """An IP-suppressed TIP puts a None ip in the window.  The pair it
    ends or starts is out of graph (a violation at that pair), charged
    what an untrained source pays: the credit probe plus the source
    search.  It must never reach a bisect."""
    from repro import costs

    labeled = private_labeled("nginx", thin=False)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
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
        costs.CREDIT_CACHE_PROBE_CYCLES
        + src_probes * costs.SEARCH_PROBE_CYCLES
    )
    got = batch_index.check_batch(ips, sigs)
    want = ref_index.check_window(ips, sigs)
    assert got.violation == want.violation == tuple(ips)
    assert got.checked == want.checked == 1
    assert got.low_credit == want.low_credit == []
    assert_same_state(batch_index, ref_index)
    assert batch_index.cycles == want_cycles


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
def test_trusted_window_takes_the_sweep(captures, server):
    """A fully trusted window is one sweep: the per-edge loop never
    indexes its signatures."""
    labeled = private_labeled(server, thin=False)
    batch_index = FlowSearchIndex(labeled)
    ref_index = ReferenceSearchIndex(labeled)
    clean = trusted_windows(labeled, server, captures)
    assert clean, f"{server}: no fully trusted window captured"
    for ips, sigs in clean:
        counted = CountingSigs(sigs)
        got = batch_index.check_batch(ips, counted)
        assert counted.reads == 0
        assert_same_outcome(got, ref_index.check_window(ips, sigs))
        assert got.checked == len(ips) - 1
        assert_same_state(batch_index, ref_index)


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
                sig = sigs[position]
                labeled.promote(*pair, sig)
                batch_index.promote(*pair, sig)
                ref_index.promote(*pair, sig)
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
    while labeled.tnt_matches(src, dst, sig):
        sig += 1
    return sig


def test_untrusted_pair_at_every_position_falls_back(captures):
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
            batch_index = FlowSearchIndex(labeled)
            ref_index = ReferenceSearchIndex(labeled)
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
    for name in ("CREDIT_CACHE_PROBE_CYCLES", "SEARCH_PROBE_CYCLES"):
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
        labeled.promote(src, dst, 1)
        promoting.promote(src, dst, 1)
        ref_promoting.promote(src, dst, 1)
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
        sig = pack_tnt_sig(
            bool(number >> bit & 1) for bit in range(number % 9)
        )
        for index in (batch_index, ref_index):
            index.promote(src, dst, sig)
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
            (prev.ip, cur.ip, pack_tnt_sig(cur.tnt_before))
            for prev, cur in zip(window, window[1:])
        ]
        # Window records whose TNT run began in an earlier segment.
        stitched += sum(
            entry.patch_sig != 1
            and entry.seg.rec_offsets[0] + entry.base
            >= result.first_record_offset
            for entry in tail.entries if entry.seg.ip_column()
        )
    assert stitched, f"{server}: no TNT run straddled a PSB in the windows"


class TestSharedTables:
    """Every index over one state of a labelling shares one set of
    search tables (``CreditLabeledITC.derived``); any mutation of the
    labelling or its graph moves a generation, and an index built after
    it rebuilds them.  An index is always the one the reference builds
    at the same moment: it sees every change made before it was built,
    none made after, and never a sibling's own ``promote``."""

    @staticmethod
    def probe(labeled, src, dst, sig):
        """A fresh index and a fresh reference over ``labeled`` now,
        with the one-pair window ``src -> dst`` over the run ``sig``."""
        return (
            FlowSearchIndex(labeled), ReferenceSearchIndex(labeled),
            [src, dst], [1, sig],
        )

    @staticmethod
    def assert_like(index, ref_index, ips, sigs):
        got = index.check_batch(ips, sigs)
        want = ref_index.check_window(ips, sigs)
        assert_same_outcome(got, want)
        assert_same_state(index, ref_index)
        return got

    @staticmethod
    def unlabelled_edge(labeled):
        return next(
            (edge.src, edge.dst)
            for edge in sorted(labeled.itc.edges,
                               key=lambda edge: (edge.src, edge.dst))
            if (edge.src, edge.dst) not in labeled.labels
        )

    @pytest.mark.parametrize("mutation", ["promote", "observe_pair",
                                          "add_edge"])
    def test_an_index_sees_exactly_the_changes_before_it(self, mutation):
        labeled = private_labeled("nginx", thin=True)
        tnt = pack_tnt_sig((True, False))
        if mutation == "add_edge":
            src, dst = labeled.itc.edges[0].src, 0xDEAD0000
        else:
            src, dst = self.unlabelled_edge(labeled)
        before, ref_before, ips, sigs = self.probe(labeled, src, dst, tnt)
        generation = (labeled.generation, labeled.itc.generation)
        if mutation == "promote":
            labeled.promote(src, dst, tnt)
        elif mutation == "observe_pair":
            labeled.observe_pair(src, dst, tnt)
        else:
            labeled.itc.add_edge(ITCEdge(src, dst, 0))
        assert (labeled.generation, labeled.itc.generation) != generation
        after, ref_after, _, _ = self.probe(labeled, src, dst, tnt)
        assert after._src_arr is not before._src_arr
        got_after = self.assert_like(after, ref_after, ips, sigs)
        got_before = self.assert_like(before, ref_before, ips, sigs)
        if mutation == "add_edge":
            assert got_before.violation == (src, dst)
            assert got_after.violation is None
            assert got_after.low_credit == [(src, dst)]
        else:
            # Only the later index holds the edge in its hot cache; the
            # earlier one finds the promotion through the shared
            # labelling, at the cost of the two searches.
            assert (src, dst) in after._hot
            assert (src, dst) not in before._hot
            assert got_after.low_credit == got_before.low_credit == []
            assert before.cycles > after.cycles

    def test_a_sibling_promote_stays_its_own(self):
        labeled = private_labeled("nginx", thin=True)
        src, dst = self.unlabelled_edge(labeled)
        tnt = pack_tnt_sig((False,))
        promoting, ref_promoting, ips, sigs = self.probe(
            labeled, src, dst, tnt
        )
        sibling, ref_sibling, _, _ = self.probe(labeled, src, dst, tnt)
        assert sibling._src_arr is promoting._src_arr
        assert sibling._trusted is not promoting._trusted
        promoting.promote(src, dst, tnt)
        ref_promoting.promote(src, dst, tnt)
        later, ref_later, _, _ = self.probe(labeled, src, dst, tnt)
        assert later._src_arr is promoting._src_arr  # labelling unchanged
        assert self.assert_like(
            promoting, ref_promoting, ips, sigs
        ).low_credit == []
        for index, ref_index in ((sibling, ref_sibling),
                                 (later, ref_later)):
            assert (src, dst) not in index._hot
            assert self.assert_like(
                index, ref_index, ips, sigs
            ).low_credit == [(src, dst)]

    def test_deploys_build_the_tables_once(self, monkeypatch):
        builds = []
        real = searchindex.search_tables

        def counting(labeled):
            builds.append(labeled)
            return real(labeled)

        monkeypatch.setattr(searchindex, "search_tables", counting)
        pipeline = server_pipeline("exim")
        indexes = []
        for _ in range(5):
            monitor, proc = pipeline.deploy(Kernel())
            indexes.append(monitor.protected_for(proc).index)
        assert builds == [pipeline.labeled]
        assert len({id(index._tgt_flat) for index in indexes}) == 1
        assert len({id(index._hot) for index in indexes}) == 5

    def test_every_mutation_rebuilds_once(self, monkeypatch):
        builds = []
        real = searchindex.search_tables

        def counting(labeled):
            builds.append(labeled)
            return real(labeled)

        monkeypatch.setattr(searchindex, "search_tables", counting)
        labeled = private_labeled("vsftpd", thin=True)
        src, dst = self.unlabelled_edge(labeled)
        expected = 0
        for mutate in (
            lambda: None,
            lambda: labeled.promote(src, dst, pack_tnt_sig((True,))),
            lambda: labeled.observe_pair(src, dst, pack_tnt_sig((False,))),
            lambda: labeled.itc.add_edge(ITCEdge(src, 0xBEEF0000, 0)),
            lambda: setattr(labeled, "itc", copy.deepcopy(labeled.itc)),
        ):
            mutate()
            expected += 1
            for _ in range(3):
                FlowSearchIndex(labeled)
            assert len(builds) == expected
