"""Fast-path caching correctness: incremental tail decode, the
content-addressed segment cache, and the edge-verdict memo.

The contract under test is *bit-identical verdicts*: caching changes
what the fast path costs, never what it concludes.  The suite checks
the incremental ``decode_tail_columnar`` against a reimplementation of
the old full-redecode loop, verdict/window parity with caches on vs off
(including the full attack matrix), the invalidation rules (truncated
segments are never cached; ``promote`` drops stale edge memos), LRU
bounds, zero-copy slicing, and fleet-level verdict parity with an exact
cycle ledger.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.attacks import (
    build_flushing_request,
    build_retlib_request,
    build_rop_request,
    build_srop_request,
    run_recon,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.ipt import columnar
from repro.ipt.columnar import (
    columnar_decode_parallel,
    columnar_scan,
    psb_offsets,
)
from repro.ipt.packets import PSB_PATTERN, TIP_HEADER, encode_ip_packet
from repro.ipt.segment_cache import SegmentDecodeCache
from repro.itccfg import (
    CreditLabeledITC,
    FlowSearchIndex,
    ITCCFG,
    ITCEdge,
)
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel, ProcessState
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)
from tests.packet_reference import (
    fast_decode,
    packets_of,
    segment_records,
    tail_records,
)
from tests.searchindex_reference import check_pair

LIBS = {"libsim.so": build_libsim()}

#: cache capacities used throughout — small enough to exercise eviction
#: in the bound tests, large enough for full reuse in the parity tests.
SEG_ENTRIES = 64
EDGE_ENTRIES = 1024


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        LIBS,
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            nginx_request("/x", "POST", b"small-body"),
            nginx_request("/y", "HEAD"),
        ],
        mode="socket",
    )


@pytest.fixture(scope="module")
def recon():
    return run_recon(build_nginx(), LIBS, vdso=build_vdso())


@pytest.fixture(scope="module")
def trace(pipeline):
    """A real captured nginx ToPA snapshot plus the process image."""
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    monitor, proc = pipeline.deploy(kernel)
    for _ in range(4):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    pp = monitor.protected_for(proc)
    pp.encoder.flush()
    return bytes(pp.topa.snapshot()), proc.image


def snapshot_cuts(data, count=10):
    """Growing prefixes of a trace: the shape of consecutive endpoint
    checks on a filling ring (cuts land mid-packet freely)."""
    step = max(64, len(data) // count)
    return list(range(step, len(data), step)) + [len(data)]


def make_checker(pipeline, image, cached, **kwargs):
    cache = SegmentDecodeCache(SEG_ENTRIES) if cached else None
    index = FlowSearchIndex(
        pipeline.labeled,
        edge_cache_entries=EDGE_ENTRIES if cached else 0,
    )
    checker = FastPathChecker(
        index, image, pkt_count=kwargs.pop("pkt_count", 12),
        require_cross_module=False, require_executable=False,
        segment_cache=cache, **kwargs,
    )
    return checker, cache, index


def fingerprint(result):
    """Everything verdict-relevant about a FastPathResult — costs and
    probe counts excluded, the cache is allowed to change those."""
    return (
        result.verdict.value,
        result.checked_pairs,
        tuple(result.low_credit_pairs),
        result.violation_edge,
        result.window_offset,
        result.first_record_offset,
        tuple(result.window_ips),
        tuple(result.window_sigs),
        tuple((e.base, bytes(e.seg.data)) for e in result.tail.entries),
    )


def reference_decode_tail(checker, data):
    """The pre-incremental decode_tail: re-decodes ``data[start:]`` for
    every candidate start.  Kept here as the behavioral oracle; returns
    ``(records, packets, cycles, start)`` in stream offsets."""
    offsets = psb_offsets(data)
    if not offsets:
        return [], [], 0.0, len(data)

    def decode_from(start):
        result = fast_decode(data[start:])
        records = [
            dataclasses.replace(r, offset=r.offset + start)
            for r in result.tip_records()
        ]
        packets = [
            dataclasses.replace(p, offset=p.offset + start)
            for p in result.packets
        ]
        return records, packets, result.cycles, start

    for start in reversed(offsets):
        decoded = decode_from(start)
        records = decoded[0]
        if len(records) > checker.pkt_count and checker._spans_modules(
            [r.ip for r in records[-(checker.pkt_count + 1):]]
        ):
            return decoded
    return decode_from(offsets[0])


def tail_views(checker, data):
    """``decode_tail_columnar`` in the oracle's shape."""
    tail = checker.decode_tail_columnar(data)
    packets = packets_of(tail.slow_source().parts)
    return tail_records(tail), packets, tail.cycles, tail.start


class TestIncrementalDecodeTail:
    """The incremental tail walk is observationally identical to the
    old quadratic loop — records, packets, charged cycles, start."""

    def test_matches_reference_on_trace_cuts(self, pipeline, trace):
        data, image = trace
        checker, _, _ = make_checker(pipeline, image, cached=False)
        for cut in snapshot_cuts(data):
            got = tail_views(checker, data[:cut])
            want = reference_decode_tail(checker, data[:cut])
            assert got[0] == want[0], f"records differ at cut {cut}"
            assert got[1] == want[1], f"packets differ at cut {cut}"
            assert got[2] == pytest.approx(want[2]), (
                f"cycles differ at cut {cut}"
            )
            assert got[3] == want[3], f"start differs at cut {cut}"

    def test_matches_reference_with_module_requirements(
        self, pipeline, trace
    ):
        data, image = trace
        checker, _, _ = make_checker(pipeline, image, cached=False)
        checker.require_cross_module = True
        checker.require_executable = True
        for cut in snapshot_cuts(data, count=5):
            got = tail_views(checker, data[:cut])
            want = reference_decode_tail(checker, data[:cut])
            assert got[0] == want[0]
            assert got[2] == pytest.approx(want[2])
            assert got[3] == want[3]

    def test_empty_and_psb_free_input(self, pipeline, trace):
        _, image = trace
        checker, _, _ = make_checker(pipeline, image, cached=False)
        assert tail_views(checker, b"") == ([], [], 0.0, 0)
        assert tail_views(checker, b"\x00" * 16) == ([], [], 0.0, 16)


class TestVerdictParity:
    """Caches on vs off produce bit-identical FastPathResults."""

    def test_snapshot_series_identical(self, pipeline, trace):
        data, image = trace
        plain, _, _ = make_checker(pipeline, image, cached=False)
        cached, cache, _ = make_checker(pipeline, image, cached=True)
        cuts = snapshot_cuts(data)
        base = [fingerprint(plain.check(data[:cut])) for cut in cuts]
        # Two passes so the second is hit-dominated.
        for _ in range(2):
            warm = [fingerprint(cached.check(data[:cut])) for cut in cuts]
            assert warm == base
        assert cache.hits > 0

    def test_cache_shared_across_checkers(self, pipeline, trace):
        """Two checkers sharing one cache (the fleet shape): the second
        checker's identical snapshot decodes entirely from cache."""
        data, image = trace
        cache = SegmentDecodeCache(SEG_ENTRIES)
        results = []
        for _ in range(2):
            index = FlowSearchIndex(pipeline.labeled)
            checker = FastPathChecker(
                index, image, pkt_count=12,
                require_cross_module=False, require_executable=False,
                segment_cache=cache,
            )
            results.append(fingerprint(checker.check(data)))
        assert results[0] == results[1]
        assert cache.hits > 0


SECURITY_MATRIX = [
    ("rop", build_rop_request),
    ("srop", build_srop_request),
    ("retlib", build_retlib_request),
    ("flushing", build_flushing_request),
]


class TestSecurityMatrixParity:
    """Every attack in the §7.1.2 matrix is detected identically with
    the caches enabled — same endpoints, same process fate."""

    @pytest.mark.parametrize(
        "name,build", SECURITY_MATRIX, ids=[n for n, _ in SECURITY_MATRIX]
    )
    def test_attack_detected_identically(
        self, name, build, pipeline, recon
    ):
        outcomes = []
        for policy in (
            None,
            FlowGuardPolicy(
                segment_cache_entries=SEG_ENTRIES,
                edge_cache_entries=EDGE_ENTRIES,
            ),
        ):
            kernel = Kernel()
            kernel.fs.create("/index.html", b"<html>x</html>")
            monitor, proc = pipeline.deploy(kernel, policy=policy)
            proc.push_connection(build(recon))
            kernel.run(proc)
            outcomes.append(
                (
                    [d.syscall_nr for d in monitor.detections],
                    proc.state,
                )
            )
        detections, state = outcomes[0]
        assert detections, f"{name} went undetected on the baseline"
        assert state is ProcessState.KILLED
        assert outcomes[1] == outcomes[0], (
            f"{name}: cached run diverged from uncached"
        )

    def test_benign_traffic_passes_with_caches(self, pipeline):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        policy = FlowGuardPolicy(
            segment_cache_entries=SEG_ENTRIES,
            edge_cache_entries=EDGE_ENTRIES,
        )
        monitor, proc = pipeline.deploy(kernel, policy=policy)
        conns = [
            proc.push_connection(nginx_request("/index.html"))
            for _ in range(5)
        ]
        kernel.run(proc)
        assert proc.state is ProcessState.EXITED
        assert monitor.detections == []
        for conn in conns:
            assert bytes(conn.outbound).startswith(b"HTTP/1.1 200")
        stats = monitor.cache_stats()
        assert stats["segment"]["hits"] > 0


class TestTruncatedNeverCached:
    def test_truncated_segment_not_stored(self):
        cache = SegmentDecodeCache(8)
        # TIP header declaring a 4-byte IP payload, only 2 bytes present.
        segment = PSB_PATTERN + bytes([0x0D, 4, 1, 2])
        for _ in range(3):
            seg, _ = cache.decode_segment_columnar(segment)
            assert seg.truncated
        assert len(cache) == 0
        assert cache.misses == 3
        assert cache.hits == 0

    def test_truncated_rebase_applied(self):
        """Uncached truncated columns rebase like cached ones: the
        caller carries the stream base."""
        cache = SegmentDecodeCache(8)
        tip, _ = encode_ip_packet(TIP_HEADER, 0x400010, 0)
        segment = PSB_PATTERN + tip + bytes([0x0D, 4, 1, 2])
        seg, _ = cache.decode_segment_columnar(segment)
        assert seg.truncated
        record = segment_records(seg, base=100)[0]
        assert record.offset == 100 + len(PSB_PATTERN)

    def test_completed_segment_cached_after_fill(self):
        """Once the ring fills in the missing bytes, the now-complete
        segment hashes differently and is cached normally."""
        cache = SegmentDecodeCache(8)
        truncated = PSB_PATTERN + bytes([0x0D, 2, 1])
        complete = PSB_PATTERN + bytes([0x0D, 2, 1, 2])
        cache.decode_segment_columnar(truncated)
        assert len(cache) == 0
        first, _ = cache.decode_segment_columnar(complete)
        assert not first.truncated
        assert len(cache) == 1
        again, _ = cache.decode_segment_columnar(complete)
        assert cache.hits == 1
        assert segment_records(again) == segment_records(first)


class TestPromoteInvalidation:
    def make_labeled(self):
        itc = ITCCFG()
        itc.nodes = {0x100, 0x200, 0x300}
        itc.add_edge(ITCEdge(0x100, 0x200, 0x110))
        itc.add_edge(ITCEdge(0x200, 0x300, 0x210))
        itc.add_edge(ITCEdge(0x100, 0x300, 0x120))
        labeled = CreditLabeledITC(itc=itc)
        labeled.observe_trace([(0x100, ()), (0x200, (True,))])
        return labeled

    def test_promote_invalidates_memo(self):
        index = FlowSearchIndex(self.make_labeled(), edge_cache_entries=8)
        first = check_pair(index, 0x100, 0x300)
        assert first.low_credit == [(0x100, 0x300)]
        memoized = check_pair(index, 0x100, 0x300)
        assert memoized.low_credit == [(0x100, 0x300)]
        assert index.memo_hits == 1
        index.promote(0x100, 0x300)
        # Without invalidation the stale LOW memo would be returned.
        after = check_pair(index, 0x100, 0x300)
        assert after.violation is None
        assert after.low_credit == []
        assert index.memo_invalidations == 1

    def test_promote_only_invalidates_promoted_edge(self):
        index = FlowSearchIndex(self.make_labeled(), edge_cache_entries=8)
        check_pair(index, 0x100, 0x300)
        check_pair(index, 0x200, 0x300)
        index.promote(0x100, 0x300)
        assert index.memo_invalidations == 1
        check_pair(index, 0x200, 0x300)
        assert index.memo_hits == 1  # the other memo survived

    def test_memoized_verdicts_match_uncached(self):
        plain = FlowSearchIndex(self.make_labeled())
        memo = FlowSearchIndex(self.make_labeled(), edge_cache_entries=8)
        edges = [
            (0x100, 0x200, (True,)),
            (0x100, 0x200, (False,)),
            (0x100, 0x300, ()),
            (0x200, 0x300, ()),
            (0x300, 0x100, ()),
            (0xDEAD, 0xBEEF, ()),
        ]
        for _ in range(2):  # second pass is all memo hits
            for src, dst, tnt in edges:
                want = check_pair(plain, src, dst, tnt)
                got = check_pair(memo, src, dst, tnt)
                assert (got.violation, got.low_credit) == (
                    want.violation, want.low_credit
                )
        assert memo.memo_hits == len(edges)


class TestLRUBounds:
    def test_segment_cache_bounded(self):
        cache = SegmentDecodeCache(entries=4)
        segments = [PSB_PATTERN + b"\x00" * i for i in range(6)]
        for segment in segments:
            cache.decode_segment_columnar(segment)
        assert len(cache) == 4
        assert cache.evictions == 2
        # The oldest two were evicted; re-probing them misses.
        misses = cache.misses
        cache.decode_segment_columnar(segments[0])
        assert cache.misses == misses + 1
        # The newest is still resident.
        cache.decode_segment_columnar(segments[-1])
        assert cache.hits == 1

    def test_segment_cache_lru_order(self):
        cache = SegmentDecodeCache(entries=2)
        a, b, c = (PSB_PATTERN + b"\x00" * i for i in range(3))
        cache.decode_segment_columnar(a)
        cache.decode_segment_columnar(b)
        cache.decode_segment_columnar(a)  # refresh a
        cache.decode_segment_columnar(c)  # evicts b, not a
        assert cache.evictions == 1
        hits = cache.hits
        cache.decode_segment_columnar(a)
        assert cache.hits == hits + 1

    def test_segment_cache_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            SegmentDecodeCache(entries=0)

    def test_edge_memo_bounded(self):
        labeled = TestPromoteInvalidation().make_labeled()
        index = FlowSearchIndex(labeled, edge_cache_entries=2)
        for dst in (0x200, 0x300, 0x400, 0x500):
            check_pair(index, 0x100, dst)
        assert index.edge_cache_stats()["resident"] == 2


class TestZeroCopy:
    def test_parallel_serial_path_slices_zero_copy(self, trace, monkeypatch):
        data, _ = trace
        seen = []
        real = columnar.columnar_scan

        def spy(segment, *args, **kwargs):
            seen.append(segment)
            return real(segment, *args, **kwargs)

        monkeypatch.setattr(columnar, "columnar_scan", spy)
        columnar_decode_parallel(data)
        assert seen
        for segment in seen:
            assert isinstance(segment, memoryview)
            assert segment.obj is data  # a slice, not a copy

    def test_checker_decode_tail_slices_zero_copy(
        self, pipeline, trace, monkeypatch
    ):
        data, image = trace
        seen = []
        real = columnar_scan

        def spy(segment, *args, **kwargs):
            seen.append(segment)
            return real(segment, *args, **kwargs)

        import repro.monitor.fastpath as fastpath

        monkeypatch.setattr(fastpath, "columnar_scan", spy)
        checker, _, _ = make_checker(pipeline, image, cached=False)
        checker.decode_tail_columnar(data)
        assert seen
        for segment in seen:
            assert isinstance(segment, memoryview)
            assert segment.obj is data


class TestTelemetryCounters:
    def test_segment_cache_counters(self, trace):
        data, _ = trace
        with telemetry.capture() as tel:
            cache = SegmentDecodeCache(SEG_ENTRIES)
            offsets = psb_offsets(data)
            bounds = offsets + [len(data)]
            view = memoryview(data)
            for _ in range(2):
                for begin, end in zip(offsets, bounds[1:]):
                    cache.decode_segment_columnar(view[begin:end])
            hits = tel.metrics.counter("ipt.segment_cache.hits").total()
            misses = tel.metrics.counter(
                "ipt.segment_cache.misses"
            ).total()
        assert hits == cache.hits > 0
        assert misses == cache.misses > 0

    def test_eviction_counter(self):
        with telemetry.capture() as tel:
            cache = SegmentDecodeCache(entries=1)
            cache.decode_segment_columnar(PSB_PATTERN)
            cache.decode_segment_columnar(PSB_PATTERN + b"\x00")
            evictions = tel.metrics.counter(
                "ipt.segment_cache.evictions"
            ).total()
        assert evictions == cache.evictions == 1

    def test_edge_cache_counters(self):
        labeled = TestPromoteInvalidation().make_labeled()
        with telemetry.capture() as tel:
            index = FlowSearchIndex(labeled, edge_cache_entries=8)
            check_pair(index, 0x100, 0x300)
            check_pair(index, 0x100, 0x300)
            index.promote(0x100, 0x300)
            assert tel.metrics.counter(
                "itccfg.edge_cache.hits"
            ).total() == 1
            assert tel.metrics.counter(
                "itccfg.edge_cache.misses"
            ).total() == 1
            assert tel.metrics.counter(
                "itccfg.edge_cache.invalidations"
            ).total() == 1


class TestFleetParity:
    """Caches across a whole fleet run: identical verdict streams,
    exact cycle ledger, and actual cross-process reuse."""

    @staticmethod
    def _run(cached):
        from repro.experiments.common import (
            seed_server_fs,
            server_pipeline,
            server_requests,
        )

        config = FleetConfig(
            workers=2,
            ring_policy=RingPolicy.STALL,
            # Unbounded queue: backpressure must not reshape the
            # submitted work between the two runs.
            max_queue_depth=1_000_000,
        )
        policy = FlowGuardPolicy(
            segment_cache_entries=SEG_ENTRIES if cached else 0,
            edge_cache_entries=EDGE_ENTRIES if cached else 0,
        )
        with telemetry.capture():
            service = FleetService(config, policy=policy)
            seed_server_fs(service.kernel)
            for name in ("nginx", "nginx"):
                service.add_workload(
                    server_pipeline(name), server_requests(name, 1)
                )
            result = service.run()
        verdicts = {}
        for task in service.dispatcher.tasks:
            verdicts.setdefault(task.pid, []).append(
                (task.kind, task.syscall_nr, task.verdict)
            )
        return result, verdicts

    def test_fleet_verdicts_and_ledger(self):
        base, base_verdicts = self._run(cached=False)
        warm, warm_verdicts = self._run(cached=True)
        assert warm_verdicts == base_verdicts
        assert base.accounting["exact"] and warm.accounting["exact"]
        assert warm.caches["segment"]["hits"] > 0
        assert warm.detections == base.detections
        assert warm.quarantined_pids == base.quarantined_pids
