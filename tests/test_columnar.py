"""Columnar decode engine correctness.

The fast path runs one engine: a table-driven scan into packed columns
plus one batched edge check.  The suite holds it to two oracles — the
packet-object decoder of ``tests/packet_reference.py`` (same TIP
records, trailing stitch state, FUP addresses, packet counts,
truncation flags, ``PacketError`` messages and charged cycles) and the
per-edge loop of ``tests/searchindex_reference.py`` (same verdicts and
cycles, ``promote`` included) — on synthetic and real traces,
including every truncation cut and random corruption.  It also covers
the tail walk against the quadratic re-decode loop it replaced,
zero-copy slicing, the slow-path hand-off trim, corrupt and truncated
middle segments, the full attack matrix, and a fleet run under fault
injection.
"""

import dataclasses
import random

import pytest

from repro import costs, telemetry
from repro.attacks import (
    build_flushing_request,
    build_retlib_request,
    build_rop_request,
    build_srop_request,
    run_recon,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion, columnar
from repro.ipt.columnar import (
    ColumnarTail,
    NO_IP,
    columnar_decode_parallel,
    columnar_scan,
    psb_boundaries,
    psb_offsets,
    sync_to_psb,
)
from repro.ipt.msr import RTIT_CTL
from repro.ipt.packets import (
    FUP_HEADER,
    OVF_BYTE,
    PAD_BYTE,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    TIP_HEADER,
    TIP_PGD_HEADER,
    TIP_PGE_HEADER,
    compose_tnt_sigs,
    encode_ip_packet,
    encode_tnt,
    pack_tnt_sig,
    unpack_tnt_sig,
)
from repro.itccfg import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker, FastPathResult, Verdict
from repro.osmodel import Kernel, ProcessState
from repro.pipeline import FlowGuardPipeline
from repro.resilience import DegradationLedger, FaultPlan
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)
from tests.packet_reference import (
    PacketKind,
    fast_decode,
    packets_of,
    segment_records,
    tail_records,
)
from tests.scan_reference import full_scan_reference
from tests.searchindex_reference import ReferenceSearchIndex

LIBS = {"libsim.so": build_libsim()}


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
    step = max(64, len(data) // count)
    return list(range(step, len(data), step)) + [len(data)]


def make_checker(pipeline, image, **kwargs):
    index = FlowSearchIndex(pipeline.labeled)
    checker = FastPathChecker(
        index, image, pkt_count=kwargs.pop("pkt_count", 12),
        require_cross_module=False, require_executable=False, **kwargs,
    )
    return checker, index


def fingerprint(result):
    """Everything verdict-relevant about a FastPathResult, the tail's
    segments (base and bytes: the slow path's input) included."""
    return (
        result.verdict.value,
        result.checked_pairs,
        tuple(result.low_credit_pairs),
        result.violation_edge,
        result.window_offset,
        result.corrupt_segments,
        result.first_record_offset,
        tuple(result.window_ips),
        tuple(result.window_sigs),
        tuple((e.base, bytes(e.seg.data)) for e in result.tail.entries),
    )


def build_stream(seed, packets=300):
    """A deterministic random-but-valid packet stream exercising every
    packet kind, IP compression width changes and suppressed IPs."""
    rng = random.Random(seed)
    out = bytearray(PSB_PATTERN)
    out.append(PSBEND_BYTE)
    addresses = (
        [0x400000 + 16 * i for i in range(48)]
        + [0x7F0000000000 + 32 * i for i in range(16)]
    )
    last_ip = 0
    for _ in range(packets):
        roll = rng.random()
        if roll < 0.35:
            bits = tuple(
                rng.random() < 0.5 for _ in range(rng.randint(1, 6))
            )
            out += encode_tnt(bits)
        elif roll < 0.70:
            header = rng.choice(
                (TIP_HEADER, TIP_HEADER, TIP_HEADER,
                 TIP_PGE_HEADER, TIP_PGD_HEADER)
            )
            target = (
                None if rng.random() < 0.1 else rng.choice(addresses)
            )
            encoded, last_ip = encode_ip_packet(header, target, last_ip)
            out += encoded
        elif roll < 0.80:
            encoded, last_ip = encode_ip_packet(
                FUP_HEADER, rng.choice(addresses), last_ip
            )
            out += encoded
        elif roll < 0.88:
            out.append(PAD_BYTE)
        elif roll < 0.96:
            out += PSB_PATTERN
            out.append(PSBEND_BYTE)
            last_ip = 0
        else:
            out.append(OVF_BYTE)
    return bytes(out)


def assert_scan_parity(data, sync=False):
    """The columnar scan and the packet decode agree on everything,
    including the error message."""
    try:
        col = columnar_scan(data, sync=sync)
        col_error = None
    except PacketError as exc:
        col, col_error = None, str(exc)
    try:
        obj = fast_decode(data, sync=sync)
        obj_error = None
    except PacketError as exc:
        obj, obj_error = None, str(exc)
    assert col_error == obj_error
    if obj is None:
        return
    obj_records, obj_trailing = obj.tip_records_with_state()
    assert segment_records(col) == obj_records
    assert unpack_tnt_sig(col.trailing) == obj_trailing
    assert col.cycles == obj.cycles
    assert col.truncated == obj.truncated
    assert col.pkt_count == len(obj.packets)


class TestScanParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_synthetic_streams(self, seed):
        assert_scan_parity(build_stream(seed))

    def test_real_trace(self, trace):
        data, _ = trace
        assert_scan_parity(data)

    def test_every_truncation_cut(self):
        data = build_stream(7, packets=60)
        for cut in range(len(data) + 1):
            assert_scan_parity(data[:cut])

    def test_corruption_flips(self):
        data = build_stream(11, packets=80)
        rng = random.Random(99)
        for _ in range(150):
            position = rng.randrange(len(data))
            flipped = bytearray(data)
            flipped[position] ^= 1 << rng.randrange(8)
            assert_scan_parity(bytes(flipped))

    def test_sync_skips_garbage_prefix(self):
        data = b"\xde\xad\xbe\xef" + build_stream(3, packets=40)
        assert_scan_parity(data, sync=True)

    def test_sync_without_psb(self):
        seg = columnar_scan(b"\xde\xad\xbe\xef", sync=True)
        assert seg.ip_column() == []
        assert seg.scanned == seg.pkt_count == 0
        assert seg.cycles == 0.0

    def test_empty(self):
        assert_scan_parity(b"")

    def test_telemetry_counters_match(self, trace):
        """One scan meters one call, the bytes it consumed and the
        packets the oracle decodes from them."""
        data, _ = trace
        with telemetry.capture() as tel:
            columnar_scan(data)
            totals = {
                name: tel.metrics.counter(f"ipt.columnar_scan.{name}").total()
                for name in ("calls", "bytes", "packets")
            }
        assert totals == {
            "calls": 1,
            "bytes": len(data),
            "packets": len(fast_decode(data).packets),
        }


class TestPackedSigs:
    @pytest.mark.parametrize("bits", [
        (), (True,), (False,), (True, False, True),
        (False,) * 9, (True, False) * 7,
    ])
    def test_roundtrip(self, bits):
        assert unpack_tnt_sig(pack_tnt_sig(bits)) == tuple(bits)

    def test_compose_is_concatenation(self):
        front = (True, False, False)
        back = (False, True)
        assert compose_tnt_sigs(
            pack_tnt_sig(front), pack_tnt_sig(back)
        ) == pack_tnt_sig(front + back)

    def test_compose_empty_identity(self):
        sig = pack_tnt_sig((True, False))
        assert compose_tnt_sigs(1, sig) == sig
        assert compose_tnt_sigs(sig, 1) == sig

    def test_injective_on_prefix_runs(self):
        # A run of not-taken bits must not collapse into the empty run.
        assert pack_tnt_sig((False,)) != pack_tnt_sig(())
        assert pack_tnt_sig((False, False)) != pack_tnt_sig((False,))


class TestCheckBatch:
    def checked_window(self, pipeline, trace, cut):
        data, image = trace
        checker, _ = make_checker(pipeline, image)
        tail = checker.decode_tail_columnar(data[:cut])
        return tail.window(checker.pkt_count + 1)

    def test_matches_edge_loop(self, pipeline, trace):
        data, image = trace
        loop_index = ReferenceSearchIndex(pipeline.labeled)
        batch_index = FlowSearchIndex(pipeline.labeled)
        for cut in snapshot_cuts(data):
            ips, sigs, _ = self.checked_window(pipeline, trace, cut)
            want = loop_index.check_window(ips, sigs)
            batch = batch_index.check_batch(ips, sigs)
            assert batch.violation == want.violation
            assert batch.checked == want.checked
            assert batch.low_credit == want.low_credit
            assert batch_index.cycles == loop_index.cycles

    def test_violation_early_stop(self, pipeline, trace):
        ips, sigs, _ = self.checked_window(
            pipeline, trace, len(trace[0])
        )
        assert len(ips) > 3
        evil = 0xDEAD0000
        ips = ips[:2] + [evil] + ips[2:]
        sigs = sigs[:2] + [1] + sigs[2:]
        index = FlowSearchIndex(pipeline.labeled)
        batch = index.check_batch(ips, sigs)
        assert batch.violation == (ips[1], evil)
        assert batch.checked == 2

    def test_promote_keeps_parity(self, pipeline, trace):
        ips, sigs, _ = self.checked_window(
            pipeline, trace, len(trace[0])
        )
        middle = len(ips) // 2
        promoted = (ips[middle - 1], ips[middle])
        loop_index = ReferenceSearchIndex(pipeline.labeled)
        batch_index = FlowSearchIndex(pipeline.labeled)
        loop_index.check_window(ips, sigs)
        batch_index.check_batch(ips, sigs)
        for index in (loop_index, batch_index):
            index.promote(*promoted, sigs[middle])
        batch = batch_index.check_batch(ips, sigs)
        want = loop_index.check_window(ips, sigs)
        assert want.violation is None
        assert batch.low_credit == want.low_credit
        assert batch_index.cycles == loop_index.cycles
        assert promoted not in batch.low_credit

    def test_short_windows(self, pipeline):
        index = FlowSearchIndex(pipeline.labeled)
        assert index.check_batch([], []).checked == 0
        assert index.check_batch([0x400000], [1]).checked == 0
        assert index.cycles == 0.0


def reference_check(checker, index, data):
    """The per-edge check loop of the reference ``index`` over the
    packet oracle's decode of the tail's bytes — the oracle for
    :meth:`FastPathChecker.check`'s window and batched edge check (no
    path index: the checkers under test run without one).  Only the
    tail's extent, cycles and segments come from the checker; the
    records never pass through ``ColumnarTail.window``."""
    tail = checker.decode_tail_columnar(data)
    start = tail.start
    records = [
        dataclasses.replace(r, offset=r.offset + start)
        for r in fast_decode(data[start:]).tip_records()
    ]
    window = records[-(checker.pkt_count + 1):]
    common = dict(
        decode_cycles=tail.cycles,
        window_ips=[r.ip for r in window],
        window_sigs=[pack_tnt_sig(r.tnt_before) for r in window],
        first_record_offset=window[0].offset if window else None,
        window_offset=tail.start,
        tail=tail,
        corrupt_segments=checker.last_corrupt_segments,
    )
    if len(records) < 2:
        return FastPathResult(Verdict.INSUFFICIENT, **common)
    before = index.cycles
    low_credit = []
    for checked, (prev, cur) in enumerate(zip(window, window[1:]), 1):
        lookup = index.check_edge(prev.ip, cur.ip, cur.tnt_before)
        if not lookup.in_graph:
            return FastPathResult(
                Verdict.VIOLATION, checked_pairs=checked,
                violation_edge=(prev.ip, cur.ip),
                search_cycles=index.cycles - before, **common,
            )
        if lookup.credit.name != "HIGH" or not lookup.tnt_ok:
            low_credit.append((prev.ip, cur.ip))
    checked = len(window) - 1
    ratio = (checked - len(low_credit)) / checked
    return FastPathResult(
        Verdict.PASS if ratio >= checker.cred_ratio else Verdict.SUSPICIOUS,
        checked_pairs=checked, low_credit_pairs=low_credit,
        search_cycles=index.cycles - before, **common,
    )


def splice_truncated_segment(data, offsets, index):
    """``data`` with PSB segment ``index`` cut mid-packet, the rest of
    the stream intact.  Returns ``(spliced, resync_offset)``."""
    begin, end = offsets[index], offsets[index + 1]
    segment = data[begin:end]
    for cut in range(len(segment) - 1, len(PSB_PATTERN), -1):
        if not columnar_scan(segment[:cut]).truncated:
            continue
        spliced = data[:begin] + segment[:cut] + data[end:]
        shift = len(segment) - cut
        if psb_offsets(spliced) == (
            offsets[:index + 1] + [o - shift for o in offsets[index + 1:]]
        ):
            return spliced, begin + cut
    raise AssertionError("no clean mid-packet cut in the segment")


class TestCheckerParity:
    """``check`` agrees with the per-edge reference loop, and degrades
    a broken middle segment to the clean suffix after it."""

    def test_snapshot_series(self, pipeline, trace):
        data, image = trace
        checker, index = make_checker(pipeline, image)
        oracle, _ = make_checker(pipeline, image)
        oracle_index = ReferenceSearchIndex(pipeline.labeled)
        for cut in snapshot_cuts(data, count=12):
            got = checker.check(data[:cut])
            want = reference_check(oracle, oracle_index, data[:cut])
            assert fingerprint(got) == fingerprint(want)
            assert got.decode_cycles == want.decode_cycles
            assert got.search_cycles == want.search_cycles
        assert index.cycles == oracle_index.cycles

    def test_decode_tail_legacy_shape(self, pipeline, trace):
        """The tail's materialised views cover exactly ``data[start:]``:
        records and the slow-path source's packets are the packet
        decode of that suffix, rebased, and the charged cycles are that
        decode's."""
        data, image = trace
        checker, _ = make_checker(pipeline, image)
        for cut in snapshot_cuts(data, count=6):
            tail = checker.decode_tail_columnar(data[:cut])
            start = tail.start
            suffix = fast_decode(data[start:cut])
            assert tail_records(tail) == [
                dataclasses.replace(r, offset=r.offset + start)
                for r in suffix.tip_records()
            ]
            assert packets_of(tail.slow_source()) == [
                dataclasses.replace(p, offset=p.offset + start)
                for p in suffix.packets
            ]
            assert tail.cycles == pytest.approx(suffix.cycles)

    def _assert_resynced(self, pipeline, image, data, resync):
        ledger = DegradationLedger()
        # A huge pkt_count forces the backward walk down to the break.
        checker, _ = make_checker(
            pipeline, image, pkt_count=10**6, ledger=ledger
        )
        result = checker.check(data)
        assert result.corrupt_segments == 1
        assert result.window_offset == resync
        assert result.window_ips
        assert result.first_record_offset >= resync
        assert ledger.count("corrupt-segment") == 1
        assert ledger.count("psb-resync") == 1
        return result

    def test_corrupted_segment_parity(self, pipeline, trace):
        """A corrupt middle segment stops the tail walk at the PSB after
        it (no window stitched across the gap), charged for the bytes
        scanned, and the ledger records the corruption and the
        re-sync."""
        data, image = trace
        offsets = psb_offsets(data)
        assert len(offsets) >= 3
        begin, end = offsets[1], offsets[2]
        assert end - begin > len(PSB_PATTERN) + 32
        pos = begin + len(PSB_PATTERN) + (end - begin - len(PSB_PATTERN)) // 2
        corrupt = data[:pos - 8] + b"\xff" * 16 + data[pos + 8:]
        result = self._assert_resynced(pipeline, image, corrupt, end)
        clean, _ = make_checker(pipeline, image, pkt_count=10**6)
        suffix = clean.decode_tail_columnar(corrupt[end:])
        assert result.decode_cycles == pytest.approx(
            suffix.cycles
            + (end - begin) * costs.FAST_DECODE_CYCLES_PER_BYTE
        )

    def test_truncated_middle_segment_resyncs(self, pipeline, trace):
        """A middle segment that ends mid-packet is corruption mimicking
        truncation: same stop, same ledger entries."""
        data, image = trace
        offsets = psb_offsets(data)
        assert len(offsets) >= 3
        spliced, resync = splice_truncated_segment(data, offsets, 1)
        self._assert_resynced(pipeline, image, spliced, resync)


class TestSlowPathHandOff:
    def test_trim_starts_at_psb_before_window(self, pipeline, trace):
        """The slow-path source holds the tail segments from the PSB at
        or before the checked window's first TIP onward: its packets are
        the whole tail's, cut at that PSB."""
        data, image = trace
        checker, _ = make_checker(pipeline, image)
        for cut in snapshot_cuts(data, count=6):
            result = checker.check(data[:cut])
            source = result.slow_path_source()
            packets = packets_of(result.tail.slow_source())
            if result.window_ips:
                first = result.first_record_offset
                begin = max(
                    i for i, p in enumerate(packets)
                    if p.kind is PacketKind.PSB and p.offset <= first
                )
                packets = packets[begin:]
            assert packets_of(source) == packets


SECURITY_MATRIX = [
    ("rop", build_rop_request),
    ("srop", build_srop_request),
    ("retlib", build_retlib_request),
    ("flushing", build_flushing_request),
]


class TestEngineOracle:
    """The full attack matrix through the fast path, and a fleet run
    under the standard fault mix."""

    @pytest.mark.parametrize(
        "name,build", SECURITY_MATRIX, ids=[n for n, _ in SECURITY_MATRIX]
    )
    def test_attack_matrix(self, name, build, pipeline, recon):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        monitor, proc = pipeline.deploy(kernel)
        proc.push_connection(build(recon))
        kernel.run(proc)
        assert monitor.detections, f"{name} went undetected"
        assert proc.state is ProcessState.KILLED

    @staticmethod
    def _faulted_fleet():
        from repro.experiments.common import (
            seed_server_fs,
            server_pipeline,
            server_requests,
        )

        config = FleetConfig(
            workers=2,
            ring_policy=RingPolicy.STALL,
            max_queue_depth=1_000_000,
            faults=FaultPlan.standard_mix(seed=5),
        )
        with telemetry.capture():
            service = FleetService(config)
            seed_server_fs(service.kernel)
            service.add_workload(
                server_pipeline("nginx"), server_requests("nginx", 1)
            )
            result = service.run()
        return {
            "verdicts": [
                (t.pid, t.kind, t.syscall_nr, t.verdict, t.degraded)
                for t in service.dispatcher.tasks
            ],
            "quarantined": result.quarantined_pids,
            "monitor_cycles": result.monitor_cycles,
            "ledger": (result.resilience or {}).get("degradations"),
            "accounting_exact": result.accounting["exact"],
        }

    def test_fleet_fault_injection_parity(self):
        """Under the standard fault mix a fleet run degrades (the
        ledger is non-empty), reconciles its cycle ledger exactly and
        quarantines no clean process; a second run with the same plan
        reproduces verdicts, cycles and ledger exactly."""
        first = self._faulted_fleet()
        assert first["accounting_exact"]
        assert first["ledger"]
        assert first["quarantined"] == []
        assert self._faulted_fleet() == first


def reference_decode_tail(checker, data):
    """The quadratic tail decode the walk replaced: re-decodes
    ``data[start:]`` for every candidate start.  Kept here as the
    behavioral oracle; returns ``(records, packets, cycles, start)`` in
    stream offsets."""
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
    packets = packets_of(tail.slow_source())
    return tail_records(tail), packets, tail.cycles, tail.start


class TestIncrementalDecodeTail:
    """The incremental tail walk is observationally identical to the
    old quadratic loop — records, packets, charged cycles, start."""

    def test_matches_reference_on_trace_cuts(self, pipeline, trace):
        data, image = trace
        checker, _ = make_checker(pipeline, image)
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
        checker, _ = make_checker(pipeline, image)
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
        checker, _ = make_checker(pipeline, image)
        assert tail_views(checker, b"") == ([], [], 0.0, 0)
        assert tail_views(checker, b"\x00" * 16) == ([], [], 0.0, 16)


class TestZeroCopy:
    def test_decode_tail_columnar_scans_its_keys(
        self, pipeline, trace, monkeypatch
    ):
        """One copy per scanned segment: the walk scans the bytes it
        keys its kept segments by, so the scan copies nothing more."""
        data, image = trace
        seen = []
        real = columnar_scan

        def spy(segment, *args, **kwargs):
            seen.append(segment)
            return real(segment, *args, **kwargs)

        import repro.monitor.fastpath as fastpath

        monkeypatch.setattr(fastpath, "columnar_scan", spy)
        checker, _ = make_checker(pipeline, image)
        tail = checker.decode_tail_columnar(data)
        assert seen
        keys = list(checker._last_walk)
        for segment in seen:
            assert type(segment) is bytes
            assert any(segment is key for key in keys)
        for entry in tail.entries:
            assert bytes(entry.seg.data) == data[
                entry.base:entry.base + len(entry.seg.data)
            ]

    def test_parallel_scan_slices_zero_copy(self, trace):
        data, _ = trace
        result = columnar_decode_parallel(data)
        assert result.columns
        for seg, _ in result.columns:
            assert isinstance(seg.data, memoryview)
            assert seg.data.obj is data


class TestEngineKnob:
    """The decode-engine knob is gone: naming it fails loudly."""

    def test_checker_rejects_unknown_engine(self, pipeline, trace):
        _, image = trace
        with pytest.raises(TypeError, match="engine"):
            FastPathChecker(
                FlowSearchIndex(pipeline.labeled), image,
                engine="columnar",
            )

    def test_cli_engine_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["attack", "rop"], ["serve", "nginx"], ["bench"],
                     ["stats", "nginx"], ["fleet"], ["top"]):
            assert "engine" not in vars(parser.parse_args(argv))
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--engine", "columnar"])


class TestPsbOffsetsMemoryview:
    """Satellite regression: memoryview input takes the same scan path
    as bytes (one conversion up front, identical offsets)."""

    def test_parity_with_bytes(self, trace):
        data, _ = trace
        assert psb_offsets(memoryview(data)) == psb_offsets(data)

    def test_parity_on_slices(self, trace):
        data, _ = trace
        view = memoryview(data)
        for cut in snapshot_cuts(data, count=5):
            assert psb_offsets(view[:cut]) == psb_offsets(data[:cut])

    def test_synthetic(self):
        data = build_stream(5, packets=50)
        assert psb_offsets(memoryview(data)) == psb_offsets(data)


def walked_psbs(data):
    """The PSB offsets the fast path's backward tail walk visits, newest
    first: its entries' bases, with nothing to stop it early (no span
    requirement, an unbounded ``pkt_count``; these streams decode
    cleanly)."""
    checker = FastPathChecker(
        None, None, pkt_count=10**6,
        require_cross_module=False, require_executable=False,
    )
    tail = checker.decode_tail_columnar(data)
    assert checker.last_corrupt_segments == 0
    return [entry.base for entry in tail.entries]


class TestPsbOffsetsReversed:
    """The backward tail walk's inline PSB search (``rfind`` from the
    end) visits the forward scan's offsets, newest first, and both find
    the true PSBs where an IP payload ending ``82 02`` right before a
    PSB makes the pattern match at more than one alignment."""

    def test_matches_forward_scan(self, trace):
        data, _ = trace
        for cut in snapshot_cuts(data, count=8):
            assert walked_psbs(data[:cut]) == (
                psb_offsets(data[:cut])[::-1]
            )
        assert walked_psbs(memoryview(data)) == (
            psb_offsets(data)[::-1]
        )
        assert walked_psbs(b"\x00" * 40) == []

    @pytest.mark.parametrize("run", [1, 2, 3, 5, 8])
    def test_overlapping_pattern_runs(self, run):
        # A TIP whose payload ends 82 02, then a PSB: the PSB is the
        # last eight bytes of the 82 02 run.
        tip, _ = encode_ip_packet(TIP_HEADER, 0x400282, 0x400000)
        assert tip == b"\x0d\x02\x82\x02"
        stream = bytes(build_stream(run, packets=60))
        for data, expected in (
            (
                PSB_PATTERN + b"\x23" + tip + PSB_PATTERN + b"\x23"
                + tip * run + PSB_PATTERN,
                [0, 13, 22 + 4 * run],
            ),
            (
                b"\x82\x02" * (4 + run) + b"\x23" + PSB_PATTERN,
                [2 * run, 2 * (4 + run) + 1],
            ),
            (
                stream + tip + PSB_PATTERN,
                psb_offsets(stream) + [len(stream) + len(tip)],
            ),
        ):
            assert psb_offsets(data) == expected
            assert walked_psbs(data) == expected[::-1]

    def test_width_eight_payload_of_pattern_pairs(self):
        # The whole payload is four 82 02 pairs: a PSB's twin.
        fup, _ = encode_ip_packet(FUP_HEADER, 0x400010, 0)
        tip, _ = encode_ip_packet(TIP_HEADER, 0x0282028202820282, 0)
        assert tip == b"\x0d\x08" + PSB_PATTERN
        group = PSB_PATTERN + fup + bytes([PSBEND_BYTE])
        data = group + tip + group
        psb = len(group) + len(tip)
        assert psb_offsets(data) == [0, psb]
        assert walked_psbs(data) == [psb, 0]
        assert sync_to_psb(data, 1) == psb
        assert len(columnar_scan(data).ip_column()) == 1


def _psb_group(ip):
    fup, _ = encode_ip_packet(FUP_HEADER, ip, 0)
    return PSB_PATTERN + fup + bytes([PSBEND_BYTE])


class TestPsbAlignment:
    """A PSB is the last eight bytes of a maximal ``82 02`` run: the
    packet after it is a FUP or PSBEND, never ``0x82``.  Every PSB
    finder and both scanners' sync apply that rule."""

    # PSB FUP PSBEND | TIP 0d 02 82 02 | PSB FUP PSBEND | TIP
    DATA = (
        _psb_group(0x400010) + b"\x0d\x02\x82\x02"
        + _psb_group(0x400282) + b"\x0d\x02\x10\x05"
    )

    def test_finders_take_the_last_alignment(self):
        data = self.DATA
        assert psb_offsets(data) == [0, 19]
        assert walked_psbs(data) == [19, 0]
        assert sync_to_psb(data, 1) == 19
        assert sync_to_psb(memoryview(data), 1) == 19
        assert psb_boundaries(data) == [0, 19, len(data)]

    def test_scan_sync_skips_the_payload_pair(self):
        # A segment cut two bytes early starts with the payload's 82 02:
        # the sync must land on the PSB, not on the pair before it.
        data = self.DATA
        synced = columnar_scan(data[17:], sync=True)
        assert [(r.ip, r.offset) for r in segment_records(synced)] == [
            (r.ip, r.offset + 2)
            for r in segment_records(columnar_scan(data[19:]))
        ] == [(0x400510, 17)]

    def test_encoder_stream_tail_walk_is_clean(self):
        """An encoder-built stream with a PSB after every TIP to an
        address ending 0x0282: the fast path's backward tail walk must
        stitch every segment without a ``corrupt-segment``."""
        config = IPTConfig(psb_period=1)
        config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN)
        encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 14)]))
        src = 0x400010
        for i in range(40):
            encoder.on_branch(BranchEvent(
                CoFIKind.COND_BRANCH, src, src + 8, taken=(i % 3 == 0),
            ))
            dst = 0x400282 if i % 2 == 0 else 0x400510 + 16 * i
            encoder.on_branch(BranchEvent(CoFIKind.RET, src + 8, dst))
            src = dst
        encoder.flush()
        data = encoder.output.snapshot()
        assert b"\x82\x02" + PSB_PATTERN in data
        ledger = DegradationLedger()
        checker = FastPathChecker(
            None, None, pkt_count=10**6,
            require_cross_module=False, require_executable=False,
            ledger=ledger,
        )
        tail = checker.decode_tail_columnar(data)
        assert checker.last_corrupt_segments == 0
        assert ledger.counts() == {}
        assert tail.start == 0
        ips, _, first = tail.window(tail.count)
        assert ips == columnar_scan(data).ip_column()
        assert len(ips) == 40
        assert first == columnar_scan(data).rec_offsets[0]


class TestColumnarSegmentViews:
    def test_record_accessors(self):
        data = build_stream(13, packets=120)
        seg = columnar_scan(data)
        records = fast_decode(data).tip_records()
        assert len(seg.ip_column()) == len(records)
        assert seg.ip_column() == [r.ip for r in records]
        assert seg.sig_column() == [
            pack_tnt_sig(r.tnt_before) for r in records
        ]
        assert list(seg.rec_offsets) == [r.offset for r in records]
        assert segment_records(seg, base=100) == [
            dataclasses.replace(r, offset=r.offset + 100) for r in records
        ]

    def test_suppressed_ip_uses_sentinel(self):
        stream = bytearray(PSB_PATTERN)
        stream.append(PSBEND_BYTE)
        encoded, last = encode_ip_packet(TIP_HEADER, 0x400010, 0)
        stream += encoded
        encoded, _ = encode_ip_packet(TIP_HEADER, None, last)
        stream += encoded
        for seg in (
            columnar_scan(bytes(stream)),
            columnar._scan_python(bytes(stream), False),
        ):
            assert seg.ip_column() == [0x400010, None]
        assert list(full_scan_reference(bytes(stream)).rec_ips) == [
            0x400010, NO_IP,
        ]


class TestTailWindowMemo:
    """A PSB resets IP compression, not branch context: the tail walk
    folds the TNT run an older segment ends with onto the first record
    of the newer one.  The tail keeps no window memo, so a window taken
    once the older segment joins the tail carries the stitched first
    signature, and windows of every length agree with the packet
    oracle."""

    @staticmethod
    def segments():
        """Two PSB segments; the older one ends in a dangling TNT run
        that belongs to the newer one's first record."""
        older = bytearray(PSB_PATTERN)
        older.append(PSBEND_BYTE)
        encoded, _ = encode_ip_packet(TIP_HEADER, 0x400010, 0)
        older += encoded + encode_tnt((True, False, True))
        newer = bytearray(PSB_PATTERN)
        newer.append(PSBEND_BYTE)
        newer += encode_tnt((False, True))
        encoded, last = encode_ip_packet(TIP_HEADER, 0x400020, 0)
        newer += encoded + encode_tnt((True,))
        encoded, _ = encode_ip_packet(TIP_HEADER, 0x400030, last)
        newer += encoded
        return bytes(older), bytes(newer)

    @staticmethod
    def checker():
        return FastPathChecker(
            None, None, pkt_count=10,
            require_cross_module=False, require_executable=False,
        )

    @staticmethod
    def oracle_window(data, n):
        records = fast_decode(data).tip_records()[-n:]
        return (
            [r.ip for r in records],
            [pack_tnt_sig(r.tnt_before) for r in records],
            records[0].offset,
        )

    def test_prepend_drops_the_memo(self):
        """Adding the older segment changes the window's first
        signature, never its ips."""
        older, newer = self.segments()
        checker = self.checker()
        before = checker.decode_tail_columnar(newer).window(2)
        assert before[1][0] == pack_tnt_sig((False, True))
        tail = checker.decode_tail_columnar(older + newer)
        assert len(tail.entries) == 2
        after = tail.window(2)
        assert after is not before
        assert after[0] == before[0]
        assert after[1][0] == pack_tnt_sig((True, False, True, False, True))
        assert after[1][1:] == before[1][1:]
        assert after == self.oracle_window(older + newer, 2)

    def test_other_length_rebuilds(self):
        """A window of another length, taken between two equal ones,
        leaves the second equal to the first."""
        older, newer = self.segments()
        tail = self.checker().decode_tail_columnar(older + newer)
        pair = tail.window(2)
        assert tail.window(3)[0] == [0x400010, 0x400020, 0x400030]
        assert tail.window(3) == self.oracle_window(older + newer, 3)
        assert tail.window(2) == pair
        assert pair == self.oracle_window(older + newer, 2)


# -- the one-pass tail walk and window, against the packet oracle ------------


#: ``(name, base, end, is_executable)`` of the stub image the walk
#: differential judges module spans against; :func:`build_tail_stream`
#: draws addresses from all three and from outside them.
WALK_MODULES = (
    ("exe", 0x400000, 0x400180, True),
    ("lib", 0x400180, 0x400300, False),
    ("vdso", 0x7F0000000000, 0x7F0000000200, True),
)
WALK_ADDRESSES = (
    [0x400000 + 16 * i for i in range(48)]
    + [0x7F0000000000 + 32 * i for i in range(16)]
    + [0x500000 + 64 * i for i in range(4)]  # in no module
    # Its two-byte payload is ``82 02``: right before a PSB it
    # lengthens the PSB's pattern run (see ``TestPsbAlignment``).
    + [0x400282] * 8
)
#: a TIP target whose full-width payload is four ``82 02`` pairs, a
#: PSB's twin; :func:`build_tail_stream` puts it only right before a
#: PSB, the one place the stream stays unambiguous.
PSB_TWIN_IP = 0x0282028202820282


class _StubModule:
    def __init__(self, name, base, end, is_executable):
        self.name = name
        self.base = base
        self.end = end
        self.is_executable = is_executable


class _StubImage:
    """What ``module_ranges`` reads of an image."""

    def __init__(self):
        self.derived = {}

    def all_modules(self):
        return [_StubModule(*module) for module in WALK_MODULES]


def reference_spans(ips, cross_module, executable):
    names = set()
    has_exec = False
    for ip in ips:
        for name, base, end, is_executable in WALK_MODULES:
            if ip is not None and base <= ip < end:
                names.add(name)
                has_exec = has_exec or is_executable
                break
    return (has_exec or not executable) and (
        len(names) >= 2 or not cross_module
    )


def build_tail_stream(seed, segments=10, corrupt=None):
    """PSB segments of TNT runs and TIPs (a tenth IP-suppressed), some
    with no TIP at all and most ending in a dangling TNT run, so runs
    stitch across one or more PSBs.  Segment ``corrupt`` gets an
    undecodable header byte between two packets."""
    rng = random.Random(seed)
    out = bytearray()
    for index in range(segments):
        out += PSB_PATTERN
        out.append(PSBEND_BYTE)
        last_ip = 0
        tips = 0 if rng.random() < 0.25 else rng.randint(1, 9)
        packets = ["tip"] * tips + ["tnt"] * rng.randint(0, 6)
        rng.shuffle(packets)
        if index == corrupt:
            packets.insert(rng.randint(0, len(packets)), "bad")
        roll = rng.random()
        if roll < 0.7:
            packets.append("tnt")  # the run that dangles past the PSB
        elif roll < 0.85 and index < segments - 1:
            packets.append("twin")
        for packet in packets:
            if packet == "tnt":
                out += encode_tnt(tuple(
                    rng.random() < 0.5 for _ in range(rng.randint(1, 6))
                ))
            elif packet == "bad":
                out.append(0xFF)
            elif packet == "twin":
                encoded, last_ip = encode_ip_packet(
                    TIP_HEADER, PSB_TWIN_IP, last_ip
                )
                assert encoded.endswith(PSB_PATTERN)
                out += encoded
                continue  # no PAD: the PSB must follow at once
            else:
                target = (
                    None if rng.random() < 0.1
                    else rng.choice(WALK_ADDRESSES)
                )
                encoded, last_ip = encode_ip_packet(
                    TIP_HEADER, target, last_ip
                )
                out += encoded
            if rng.random() < 0.1:
                out.append(PAD_BYTE)
    return bytes(out)


def reference_walk(data, pkt_count, cross_module, executable):
    """``FastPathChecker.decode_tail_columnar`` rebuilt on the packet
    oracle: segments newest first, each decoded by ``fast_decode``,
    stopping at a
    corrupt or truncated middle segment, or once the tail holds more
    than ``pkt_count`` records and — judged once, on the newest
    ``pkt_count + 1`` — spans the required modules.  The window and
    every record come from one ``fast_decode`` of the walked suffix,
    which carries TNT runs across PSBs.  Returns a dict of what the
    walk must produce; ``stop`` is the segment a corrupt or truncated
    middle segment stopped it at, with whether its decode raised."""
    size = len(data)
    offsets = psb_offsets(data)
    cycles = 0.0
    corrupt = 0
    stop = None
    start = size
    entries = []
    count = 0
    judged = False
    check_span = cross_module or executable
    for begin, end in reversed(list(zip(offsets, offsets[1:] + [size]))):
        if end == size:
            start = begin
        segment = data[begin:end]
        penalty = (end - begin) * costs.FAST_DECODE_CYCLES_PER_BYTE
        try:
            decoded = fast_decode(segment)
        except PacketError:
            cycles += penalty
            corrupt += 1
            stop = (segment, True)
            break
        if decoded.truncated and end < size:
            cycles += decoded.cycles + penalty
            corrupt += 1
            stop = (segment, False)
            break
        cycles += decoded.cycles
        entries.append((begin, segment))
        count += len(decoded.tip_records())
        start = begin
        if count > pkt_count and not judged:
            newest = fast_decode(data[start:]).tip_records()[
                -(pkt_count + 1):
            ]
            if not check_span or reference_spans(
                [r.ip for r in newest], cross_module, executable
            ):
                break
            judged = True
    records = [
        dataclasses.replace(r, offset=r.offset + entries[-1][0])
        for r in fast_decode(data[entries[-1][0]:]).tip_records()
    ] if entries else []
    return {
        "start": start,
        "cycles": cycles,
        "corrupt": corrupt,
        "entries": entries,
        "records": records,
        "stop": stop,
    }


def oracle_window(records, n):
    window = records[-n:] if n else []
    return (
        [r.ip for r in window],
        [pack_tnt_sig(r.tnt_before) for r in window],
        window[0].offset if window else None,
    )


WALK_SPANS = [(False, False), (True, False), (False, True), (True, True)]


class TestOnePassTailWalk:
    """The inline tail walk and the one-pass ``ColumnarTail.window``
    against :func:`reference_walk`: the window's ips, signatures and
    first offset, the tail's start, charged cycles, entries and record
    count, and the corrupt-segment count — on random multi-segment
    streams cut at random points, with every span requirement (so
    windows that fail it keep walking), and corrupt and truncated
    middle segments."""

    @staticmethod
    def walk_checker(pkt_count, spans):
        return FastPathChecker(
            None, _StubImage(), pkt_count=pkt_count,
            require_cross_module=spans[0], require_executable=spans[1],
        )

    def assert_walk(self, checker, data):
        tail = checker.decode_tail_columnar(data)
        want = reference_walk(
            bytes(data), checker.pkt_count, checker.require_cross_module,
            checker.require_executable,
        )
        assert tail.start == want["start"]
        assert tail.cycles == want["cycles"]
        assert checker.last_corrupt_segments == want["corrupt"]
        assert [
            (entry.base, bytes(entry.seg.data)) for entry in tail.entries
        ] == want["entries"]
        records = want["records"]
        assert tail.count == len(records)
        n = checker.pkt_count + 1
        assert tail.window(n) == oracle_window(records, n)
        assert tail_records(tail) == records
        return tail, want

    @pytest.mark.parametrize("spans", WALK_SPANS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_tails(self, seed, spans):
        rng = random.Random(f"walk-{seed}-{spans}")
        data = build_tail_stream(seed, segments=rng.randint(3, 12))
        checker = self.walk_checker(rng.randint(1, 24), spans)
        cuts = sorted(rng.sample(range(1, len(data)), 8)) + [len(data)]
        walked = 0
        for cut in cuts:
            _, want = self.assert_walk(checker, data[:cut])
            walked += len(want["entries"]) > 1
        assert walked, "no cut walked more than one segment"

    @pytest.mark.parametrize("spans", WALK_SPANS)
    def test_corrupt_middle_segment(self, spans):
        for seed in range(4):
            data = build_tail_stream(100 + seed, segments=8, corrupt=3)
            offsets = psb_offsets(data)
            assert len(offsets) == 8
            for pkt_count in (1, 6, 10**6):
                checker = self.walk_checker(pkt_count, spans)
                _, want = self.assert_walk(checker, data)
                if pkt_count == 10**6:
                    # The walk reached the corruption: the window is
                    # the clean suffix after it.
                    assert want["corrupt"] == 1
                    assert want["start"] == offsets[4]

    def test_corrupt_newest_segment(self):
        """A corrupt newest segment stops the walk before any record:
        the tail starts at that segment and holds nothing."""
        for seed in range(3):
            data = build_tail_stream(150 + seed, segments=5, corrupt=4)
            checker = self.walk_checker(4, (False, False))
            tail, want = self.assert_walk(checker, data)
            assert want["corrupt"] == 1 and not tail.entries
            assert tail.start == psb_offsets(data)[4]

    def test_payload_pattern_pairs_before_psbs(self):
        """Streams with a PSB's twin (a TIP payload of four ``82 02``
        pairs) right before a PSB: the inline PSB search resumes in
        front of the whole run, never at the payload."""
        hits = 0
        for seed in range(40):
            data = build_tail_stream(400 + seed, segments=8)
            if PSB_PATTERN + PSB_PATTERN not in data:
                continue
            hits += 1
            checker = self.walk_checker(10**6, (False, False))
            tail, want = self.assert_walk(checker, data)
            assert want["corrupt"] == 0 and tail.start == 0
        assert hits

    def test_truncated_middle_segment(self):
        stopped = 0
        for seed in range(4):
            data = build_tail_stream(200 + seed, segments=8)
            offsets = psb_offsets(data)
            for index in range(1, 7):
                try:
                    spliced, resync = splice_truncated_segment(
                        data, offsets, index
                    )
                except AssertionError:  # no clean mid-packet cut
                    continue
                checker = self.walk_checker(10**6, (False, False))
                _, want = self.assert_walk(checker, spliced)
                assert want["corrupt"] == 1
                assert want["start"] == resync
                stopped += 1
        assert stopped

    def test_ip_suppressed_records_lie_in_no_module(self):
        """A window of suppressed TIPs and one module never spans, so
        the walk runs on to the stream's first segment."""
        stream = bytearray()
        for ip in (0x400010, None, 0x400020, None, 0x400030, None):
            stream += PSB_PATTERN
            stream.append(PSBEND_BYTE)
            encoded, _ = encode_ip_packet(TIP_HEADER, ip, 0)
            stream += encoded + encode_tnt((True,))
        checker = self.walk_checker(2, (True, False))
        tail, want = self.assert_walk(checker, bytes(stream))
        assert tail.start == 0 and len(tail.entries) == 6
        assert tail.window(3)[0] == [None, 0x400030, None]

    @pytest.mark.parametrize("seed", range(4))
    def test_walk_over_each_longer_suffix(self, seed):
        """The walk over each longer PSB suffix of one stream folds the
        dangling runs of the older segments it adds: a window of any
        length is the oracle's over that suffix."""
        data = build_tail_stream(300 + seed, segments=10)
        checker = self.walk_checker(10**6, (False, False))
        stitched = 0
        for begin in reversed(psb_offsets(data)):
            tail, want = self.assert_walk(checker, data[begin:])
            records = want["records"]
            for n in (4, tail.count, len(records) + 5):
                assert tail.window(n) == oracle_window(records, n)
            stitched += any(entry.patch_sig != 1 for entry in tail.entries)
        assert stitched, "no suffix stitched a run across a PSB"

    def test_empty_and_recordless_tails(self):
        assert ColumnarTail().window(4) == ([], [], None)
        stream = bytearray()
        for _ in range(3):
            stream += PSB_PATTERN
            stream.append(PSBEND_BYTE)
            stream += encode_tnt((True, False))
        checker = self.walk_checker(2, (False, False))
        tail, _ = self.assert_walk(checker, bytes(stream))
        assert tail.count == 0 and len(tail.entries) == 3
        assert tail.window(3) == ([], [], None)
        checker = self.walk_checker(2, (False, False))
        self.assert_walk(checker, b"")
        self.assert_walk(checker, b"\x00" * 16)

    def test_check_builds_the_window_once(self, pipeline, trace,
                                          monkeypatch):
        """A check builds its window once (the walk judges module spans
        without one) and hands those lists to the result."""
        data, image = trace
        builds = []
        real = ColumnarTail.window

        def counting(tail, n):
            builds.append(n)
            return real(tail, n)

        monkeypatch.setattr(ColumnarTail, "window", counting)
        checker, _ = make_checker(pipeline, image)
        checker.require_cross_module = checker.require_executable = True
        for cut in snapshot_cuts(data, count=6):
            del builds[:]
            result = checker.check(data[:cut])
            assert builds == [checker.pkt_count + 1]
            assert result.tail.window(checker.pkt_count + 1) == (
                result.window_ips, result.window_sigs,
                result.first_record_offset,
            )

    # -- the previous walk's segments ----------------------------------------

    @staticmethod
    def count_scans(monkeypatch):
        """The bytes of every segment the tail walk hands the scan."""
        import repro.monitor.fastpath as fastpath

        scans = []
        real = fastpath.columnar_scan

        def counting(segment, *args, **kwargs):
            scans.append(bytes(segment))
            return real(segment, *args, **kwargs)

        monkeypatch.setattr(fastpath, "columnar_scan", counting)
        return scans

    def assert_reuse(self, checker, snapshots, scans):
        """Walk ``snapshots`` in turn on one checker, each against
        :func:`reference_walk` and against a fresh checker's ledger,
        and check that a walk scans exactly the segments whose bytes
        the previous walk did not keep: a clean segment is kept, one
        whose decode raised never is.  Returns how many segments the
        walks took from a previous walk."""
        kept = set()
        reused = 0
        for data in snapshots:
            fresh = self.walk_checker(
                checker.pkt_count,
                (checker.require_cross_module, checker.require_executable),
            )
            fresh.ledger = DegradationLedger()
            fresh.owner_pid = checker.owner_pid
            fresh.decode_tail_columnar(bytes(data))
            before = len(checker.ledger.events)
            del scans[:]
            _, want = self.assert_walk(checker, data)
            walked = [segment for _, segment in want["entries"]]
            expect = [segment for segment in walked if segment not in kept]
            if want["stop"] is not None:
                segment, raised = want["stop"]
                if raised or segment not in kept:
                    expect.append(segment)
                if not raised:
                    walked.append(segment)
            assert scans == expect
            reused += len(walked) - len(expect)
            kept = set(walked)
            assert [
                (e.kind, e.pid, e.detail)
                for e in checker.ledger.events[before:]
            ] == [(e.kind, e.pid, e.detail) for e in fresh.ledger.events]
        return reused

    def reuse_checkers(self, seed, spans):
        """A checker whose walks stop early, then one that walks every
        segment (so every segment a snapshot keeps is walked again)."""
        rng = random.Random(f"reuse-{seed}-{spans}")
        checkers = []
        for pkt_count in (rng.choice([4, 12]), 10**6):
            checker = self.walk_checker(pkt_count, spans)
            checker.ledger = DegradationLedger()
            checker.owner_pid = 7
            checkers.append(checker)
        return checkers

    def assert_reuse_each(self, seed, spans, snapshots, scans):
        reused = [
            self.assert_reuse(checker, snapshots, scans)
            for checker in self.reuse_checkers(seed, spans)
        ]
        assert reused[-1], "the whole walks kept no segment"

    @pytest.mark.parametrize("spans", WALK_SPANS)
    @pytest.mark.parametrize("seed", range(3))
    def test_reuse_over_growing_cuts(self, seed, spans, monkeypatch):
        """Growing cuts of one stream, each walked twice: the repeat
        scans nothing, a longer cut only its changed segments."""
        scans = self.count_scans(monkeypatch)
        data = build_tail_stream(500 + seed, segments=12)
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, len(data)), 10)) + [len(data)]
        snapshots = [data[:cut] for cut in cuts for _ in range(2)]
        self.assert_reuse_each(seed, spans, snapshots, scans)
        checker = self.reuse_checkers(seed, spans)[0]
        checker.decode_tail_columnar(data)
        del scans[:]
        checker.decode_tail_columnar(data)
        assert scans == []

    @pytest.mark.parametrize("spans", WALK_SPANS)
    @pytest.mark.parametrize("seed", range(3))
    def test_reuse_across_a_ring_wrap(self, seed, spans, monkeypatch):
        """A ring that wraps drops its head, so every kept segment sits
        at a smaller offset in the next snapshot."""
        scans = self.count_scans(monkeypatch)
        data = build_tail_stream(600 + seed, segments=16)
        capacity = len(data) // 3
        ends = range(capacity, len(data) + 1, max(1, capacity // 10))
        snapshots = [data[end - capacity:end] for end in ends]
        self.assert_reuse_each(seed, spans, snapshots, scans)

    @pytest.mark.parametrize("spans", WALK_SPANS)
    @pytest.mark.parametrize("seed", range(3))
    def test_reuse_across_a_drain(self, seed, spans, monkeypatch):
        """A drain empties the buffer: the next snapshot restarts
        mid-stream, its old bytes gone and its offsets from zero."""
        scans = self.count_scans(monkeypatch)
        data = build_tail_stream(700 + seed, segments=14)
        rng = random.Random(seed)
        drain = rng.randrange(len(data) // 3, 2 * len(data) // 3)
        cuts = sorted(rng.sample(range(drain + 1, len(data)), 4))
        snapshots = [data[:drain // 2], data[:drain]] + [
            data[drain:cut] for cut in cuts + [len(data)]
        ]
        self.assert_reuse_each(seed, spans, snapshots, scans)

    @pytest.mark.parametrize("spans", WALK_SPANS)
    @pytest.mark.parametrize("seed", range(3))
    def test_reuse_after_a_lossy_resync(self, seed, spans, monkeypatch):
        """A lossy ring overwrote its oldest bytes; the drain re-syncs
        at the first PSB it still holds."""
        scans = self.count_scans(monkeypatch)
        data = build_tail_stream(800 + seed, segments=14)
        offsets = psb_offsets(data)
        snapshots = [data[:offsets[6]], data[:offsets[8] + 5]]
        for psb, end in ((2, 10), (5, 12), (9, len(offsets))):
            stop = len(data) if end == len(offsets) else offsets[end]
            snapshots.append(data[offsets[psb]:stop])
        self.assert_reuse_each(seed, spans, snapshots, scans)

    @pytest.mark.parametrize("spans", WALK_SPANS)
    def test_reused_segment_corrupt_in_next_snapshot(self, spans,
                                                     monkeypatch):
        """A segment the previous walk kept arrives corrupt: the walk
        rescans it, stops there and ledgers it as a fresh checker
        would; the same corruption again is rescanned, never kept, and
        the clean bytes after it are scanned anew."""
        scans = self.count_scans(monkeypatch)
        for seed in range(4):
            data = build_tail_stream(900 + seed, segments=10)
            offsets = psb_offsets(data)
            checker = self.reuse_checkers(seed, spans)[-1]
            at = offsets[5] + len(PSB_PATTERN)  # its PSBEND
            corrupt = data[:at] + b"\xff" + data[at + 1:]
            grown = corrupt + build_tail_stream(950 + seed, segments=2)
            snapshots = [data, corrupt, corrupt, grown, data]
            assert self.assert_reuse(checker, snapshots, scans)
            assert checker.ledger.count("corrupt-segment") == 3

    def test_reused_segment_truncated_in_next_snapshot(self, monkeypatch):
        """A snapshot catches the producer mid-packet, and the next one
        has a PSB right after the cut: the kept (truncated) segment now
        lies in the middle and is judged corrupt, as a fresh walk
        judges it."""
        scans = self.count_scans(monkeypatch)
        judged = 0
        for seed in range(4):
            data = build_tail_stream(1000 + seed, segments=8)
            offsets = psb_offsets(data)
            for index in range(1, 7):
                try:
                    spliced, resync = splice_truncated_segment(
                        data, offsets, index
                    )
                except AssertionError:  # no clean mid-packet cut
                    continue
                checker = self.reuse_checkers(seed, (False, False))[-1]
                assert self.assert_reuse(
                    checker, [spliced[:resync], spliced, spliced], scans
                )
                assert checker.ledger.count("corrupt-segment") == 2
                judged += 1
        assert judged

    def test_reuse_of_a_mutated_memoryview(self):
        """A ring drain's ``memoryview`` is overwritten after its check:
        the tail that check returned keeps the bytes it judged, and the
        next walk judges the new bytes."""
        data = build_tail_stream(1100, segments=10)
        other = build_tail_stream(1101, segments=10)[:len(data)]
        buffer = bytearray(data)
        checker = self.walk_checker(10**6, (False, False))
        tail, want = self.assert_walk(checker, memoryview(buffer))
        buffer[:len(other)] = other
        assert [
            (entry.base, bytes(entry.seg.data)) for entry in tail.entries
        ] == want["entries"]
        assert tail_records(tail) == want["records"]
        self.assert_walk(checker, memoryview(buffer))
        buffer[:] = data
        self.assert_walk(checker, memoryview(buffer))
