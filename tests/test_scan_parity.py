"""Scanner tri-parity, column-walk parity, and the perf-PR plumbing.

``columnar_scan`` runs the regex/translate vectorised pure-Python scan
or the optional ctypes C kernel.  This suite property-tests both
against the per-byte dispatch walk (``tests/scan_reference.py``, the
oracle) — every column (the far column included), every charged cycle,
every ``PacketError`` message — on structured streams, uniform-random
buffers, every truncation cut, and random corruption flips.  It also
pins the full decoder's column walk (``_ColumnWalk``) against the
reference decoder's byte cursor and packet-list cursor
(``tests/full_decoder_reference.py``, ``TraceMismatch`` messages
included), that the platform alone picks the scanner, the bursty
open-loop schedule, and the append-only performance trajectory.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ipt import columnar, scan_kernel
from repro.ipt.columnar import (
    SIG_MAX_BITS,
    _bits_sig,
    columnar_scan,
    scan_kernel_active,
)
from repro.ipt.full_decoder import TraceMismatch, _ColumnWalk
from repro.ipt.packets import (
    PacketError,
    TIP_HEADER,
    encode_ip_packet,
    encode_tnt,
    pack_tnt_sig,
)
from tests.full_decoder_reference import byte_cursor, packet_cursor
from tests.packet_reference import fast_decode
from tests.scan_reference import columnar_scan_reference, full_scan_reference
from tests.test_columnar import build_stream

KERNEL_AVAILABLE = scan_kernel.load() is not None

needs_kernel = pytest.mark.skipif(
    not KERNEL_AVAILABLE, reason="C scan kernel not buildable here"
)


# -- scanner tri-parity -------------------------------------------------------


def segment_columns(seg):
    """Every column and scalar a ColumnarSegment carries."""
    return (
        seg.pkt_count,
        seg.scanned,
        seg.cycles,
        seg.truncated,
        tuple(seg.ip_column()),
        tuple(seg.rec_offsets),
        tuple(seg.sig_column()),
        bytes(seg.far),
        seg.trailing,
    )


def scan_outcomes(data, sync=False):
    """(columns-or-None, error-string-or-None) from all live scanners."""
    outcomes = {}
    scanners = {
        "reference": lambda: columnar_scan_reference(data, sync=sync),
        "python": lambda: columnar._scan_python(data, sync),
    }
    if KERNEL_AVAILABLE:
        lib = scan_kernel.load()
        scanners["kernel"] = lambda: columnar._scan_kernel_segment(
            lib, data, sync
        )
    for name, scan in scanners.items():
        try:
            outcomes[name] = (segment_columns(scan()), None)
        except PacketError as exc:
            outcomes[name] = (None, str(exc))
    return outcomes


def assert_tri_parity(data, sync=False):
    outcomes = scan_outcomes(data, sync=sync)
    baseline = outcomes.pop("reference")
    for name, outcome in outcomes.items():
        assert outcome == baseline, (
            f"{name} diverges from reference on {data[:40].hex()}..."
        )


class TestScannerTriParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_structured_streams(self, seed):
        assert_tri_parity(build_stream(seed, packets=200))

    @pytest.mark.parametrize("seed", range(12))
    def test_uniform_random_buffers(self, seed):
        rng = random.Random(1000 + seed)
        assert_tri_parity(rng.randbytes(rng.randint(1, 600)))
        assert_tri_parity(rng.randbytes(rng.randint(1, 600)), sync=True)

    def test_every_truncation_cut(self):
        data = build_stream(7, packets=60)
        for cut in range(len(data) + 1):
            assert_tri_parity(data[:cut])

    @pytest.mark.parametrize("seed", range(8))
    def test_corruption_flips(self, seed):
        rng = random.Random(2000 + seed)
        data = bytearray(build_stream(seed, packets=120))
        for _ in range(6):
            data[rng.randrange(len(data))] = rng.randrange(256)
        assert_tri_parity(bytes(data))
        assert_tri_parity(bytes(data), sync=True)

    def test_pad_and_tnt_run_batching_edges(self):
        # Maximal PAD runs and long TNT runs are the vectorised scan's
        # bulk paths; hit the run boundaries explicitly.
        tnt_run = b"\x02\x7f" * 400      # 2400 TNT bits, many flushes
        cases = [
            b"",
            b"\x00" * 1024,
            tnt_run,
            b"\x00" * 257 + tnt_run + b"\x00" * 3,
            tnt_run + b"\x02",           # truncated TNT after a run
            tnt_run + b"\x02\x01",       # invalid payload after a run
            b"\x02\x00",                 # invalid payload (0)
            b"\x02\x01",                 # invalid payload (1)
            b"\x02\x80",                 # invalid payload (>0x7f)
            b"\x00\x02",                 # truncated TNT after PAD
        ]
        for data in cases:
            assert_tri_parity(data)

    @pytest.mark.parametrize("pad", [b"", b"\x00"])
    def test_one_long_tnt_run(self, pad):
        # 160,000 TNT packets between two TIPs and after the last: one
        # maximal packet run, which the Python scan takes 256 packets at
        # a time, or the same packets split by PAD bytes.
        run = (b"\x02\x7f" + pad) * 160_000
        first, last_ip = encode_ip_packet(TIP_HEADER, 0x400000, 0)
        second, _ = encode_ip_packet(TIP_HEADER, 0x400010, last_ip)
        assert_tri_parity(first + run + second + run)

    def test_sync_prefix_and_clean_truncation(self):
        stream = build_stream(3, packets=50)
        garbage = b"\xde\xad\xbe\xef" * 9
        assert_tri_parity(garbage + stream, sync=True)
        # A trailing PSB prefix is a clean truncation, not an error.
        from repro.ipt.packets import PSB_PATTERN
        for cut in range(1, len(PSB_PATTERN)):
            assert_tri_parity(stream + PSB_PATTERN[:cut])

    def test_dispatcher_matches_forced_lanes(self):
        """columnar_scan equals the reference with whatever kernel the
        host builds (``TestKernelGating`` covers a host where none
        loads)."""
        data = build_stream(11, packets=150)
        want = segment_columns(columnar_scan_reference(data))
        assert scan_kernel_active() == KERNEL_AVAILABLE
        assert segment_columns(columnar_scan(data)) == want


class TestKernelGating:
    """``scan_kernel.load()`` alone gates the kernel: where it returns
    no library, the scan runs pure Python."""

    def test_off_mode_never_builds(self, monkeypatch):
        """With no kernel loaded, columnar_scan never calls the kernel
        path and still equals the reference."""
        data = build_stream(11, packets=150)
        want = segment_columns(columnar_scan_reference(data))

        def boom(*args):
            raise AssertionError("kernel path taken with no kernel")

        monkeypatch.setattr(scan_kernel, "load", lambda: None)
        monkeypatch.setattr(columnar, "_scan_kernel_segment", boom)
        assert not scan_kernel_active()
        assert segment_columns(columnar_scan(data)) == want
        assert segment_columns(columnar_scan(data, sync=True)) == (
            segment_columns(columnar_scan_reference(data, sync=True))
        )


def tnt_run_stream(seed, runs):
    """A TIP, then per entry of ``runs`` a TNT run of exactly that many
    branches (random packet widths and outcomes) closed by a TIP."""
    rng = random.Random(seed)
    encoded, last_ip = encode_ip_packet(TIP_HEADER, 0x400000, 0)
    out = bytearray(encoded)
    for index, bits in enumerate(runs):
        while bits:
            width = rng.randint(1, min(6, bits))
            out += encode_tnt(tuple(rng.random() < 0.5 for _ in range(width)))
            bits -= width
        encoded, last_ip = encode_ip_packet(
            TIP_HEADER, 0x400000 + 16 * (index + 1), last_ip
        )
        out += encoded
    return bytes(out)


class TestSignatureColumn:
    """The signature column: built by the scanners in a register while
    the run fits ``SIG_MAX_BITS`` bits, read from the packed TNT
    bitstream past it; the oracle reads every one from its bit range."""

    @pytest.mark.parametrize("bits", [61, 62, 63, 300, 701])
    def test_run_length_edges(self, bits):
        runs = [bits, 0, bits, 5]
        data = tnt_run_stream(bits, runs)
        assert_tri_parity(data)
        lengths = [0] + runs
        full = full_scan_reference(data)
        assert [
            end - start
            for start, end in zip(full.rec_bit_start, full.rec_bit_end)
        ] == lengths
        assert any(length > SIG_MAX_BITS for length in lengths) == (
            bits > SIG_MAX_BITS
        )
        seg = columnar_scan(data)
        assert [sig.bit_length() - 1 for sig in seg.sig_column()] == lengths
        assert seg.sig_column() == [
            pack_tnt_sig(record.tnt_before)
            for record in fast_decode(data).tip_records()
        ]

    def test_run_edges_every_truncation_cut(self):
        data = tnt_run_stream(5, [61, 62, 63, 130, 2])
        for cut in range(len(data) + 1):
            assert_tri_parity(data[:cut])

    @pytest.mark.parametrize("seed", range(6))
    def test_sig_column_is_the_bit_range_signature(self, seed):
        data = build_stream(seed, packets=200) + tnt_run_stream(
            seed, [63, 200, 62, 1]
        )
        full = full_scan_reference(data)
        for seg in (columnar_scan(data), columnar_scan(memoryview(data))):
            assert seg.sig_column() == [
                _bits_sig(full.tnt_bits, start, end)
                for start, end in zip(full.rec_bit_start, full.rec_bit_end)
            ]
            assert seg.trailing == _bits_sig(
                full.tnt_bits, full.pend_start, full.total_bits
            )


# -- the full decoder's column walk vs the reference cursors ------------------


def drive_cursor(cursor, ops):
    """Run an op script against a cursor, recording every result and
    the first TraceMismatch (message text included — the contract)."""
    out = []
    for op, arg in ops:
        try:
            if op == "tnt":
                out.append(("tnt", cursor.next_tnt_bit()))
            elif op == "tip":
                out.append(("tip", cursor.next_tip()))
            elif op == "far":
                out.append(("far", cursor.next_far_resume(arg)))
            else:
                out.append(("initial", cursor.initial_ip()))
        except TraceMismatch as exc:
            out.append(("mismatch", str(exc)))
            break
    return out


def cursor_pair(streams):
    """(column walk, reference cursors) over the same multi-part tail."""
    parts, base = [], 0
    for stream in streams:
        parts.append((columnar_scan(stream), base))
        base += len(stream)
    return _ColumnWalk(parts), (byte_cursor(parts), packet_cursor(parts))


def assert_same_script(streams, script):
    """The column walk and both reference cursors agree on every result
    of ``script``; returns the walk's."""
    walk, references = cursor_pair(streams)
    got = drive_cursor(walk, script)
    for reference in references:
        assert drive_cursor(reference, script) == got
    return got


def op_script(rng, length=120):
    ops = [("initial", None)] if rng.random() < 0.5 else []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("tnt", None))
        elif roll < 0.9:
            ops.append(("tip", None))
        else:
            # Usually a wrong source — both cursors must produce the
            # same FUP-mismatch (or expected-FUP) message.
            ops.append(("far", rng.choice((0x400010, 0x12345))))
    return ops


class TestByteCursorParity:
    """The full decoder's column walk against the reference decoder's
    byte cursor and packet-list cursor, on op scripts."""

    @pytest.mark.parametrize("seed", range(10))
    def test_single_part_scripts(self, seed):
        rng = random.Random(seed)
        assert_same_script([build_stream(seed, packets=80)], op_script(rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_part_scripts(self, seed):
        rng = random.Random(100 + seed)
        streams = [
            build_stream(3 * seed + i, packets=40) for i in range(3)
        ]
        assert_same_script(streams, op_script(rng, length=200))

    def test_exhaustion_returns_none(self):
        got = assert_same_script(
            [build_stream(5, packets=10)], [("tip", None)] * 50
        )
        assert got[-1] in (("tip", None), got[-1])

    def test_unconsumed_tnt_before_tip_message(self):
        stream = bytearray(encode_tnt((True, False, True)))
        encoded, _ = encode_ip_packet(TIP_HEADER, 0x400000, 0)
        stream += encoded
        got = assert_same_script(
            [bytes(stream)], [("tnt", None), ("tip", None)]
        )
        assert got[-1][0] == "mismatch"
        assert "unconsumed TNT bits" in got[-1][1]

    @pytest.mark.parametrize("kind", ["tip", "fup", "tip.pge"])
    def test_suppressed_ip_messages(self, kind):
        from tests.test_slowpath import CODE, far_or_tip_case

        _, data, offset = far_or_tip_case(kind)
        script = [("initial", None), ("tip" if kind == "tip" else "far", CODE)]
        got = assert_same_script([data], script)
        assert got[-1] == (
            "mismatch", f"IP-suppressed {kind} at offset {offset}"
        )


# -- no scan switch -----------------------------------------------------------


class TestPolicyKnobs:
    """No policy, fleet knob or environment variable selects an engine,
    lane or scan kernel."""

    STALE = ("engine", "scan_kernel", "slow_lane")

    def test_defaults(self):
        from repro.fleet.service import FleetConfig
        from repro.monitor.policy import FlowGuardPolicy

        for config in (FlowGuardPolicy(), FleetConfig()):
            assert not set(self.STALE) & set(config.to_dict())

    def test_scan_switch_removed(self):
        """The platform alone picks the scanner: the old switch's names
        are gone, and its environment variable no longer fails an
        import."""
        for name in ("set_scan_kernel", "scan_kernel_mode", "_KERNEL_MODES"):
            assert not hasattr(columnar, name)
        assert not hasattr(scan_kernel, "available")
        env = dict(os.environ)
        env["REPRO_SCAN_KERNEL"] = "of"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.ipt.columnar"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("lane", ["columnar", "objects"])
    def test_slow_lane_values(self, lane):
        """Neither former lane value is a constructor keyword any more."""
        from repro.fleet.service import FleetConfig
        from repro.monitor.policy import FlowGuardPolicy

        for cls in (FlowGuardPolicy, FleetConfig):
            with pytest.raises(TypeError, match="slow_lane"):
                cls(slow_lane=lane)

    def test_with_endpoints_carries_knobs(self):
        """A clone keeps the PSB knob, survives a dict round trip, and
        grows no stale engine/lane/kernel key."""
        from repro.monitor.policy import FlowGuardPolicy

        policy = FlowGuardPolicy(psb_period=256)
        clone = dataclasses.replace(
            policy, endpoints=policy.endpoints | {0x400010}
        )
        assert clone.psb_period == 256
        assert FlowGuardPolicy.from_dict(clone.to_dict()) == clone
        assert not set(self.STALE) & set(clone.to_dict())

    def test_fleet_config_knobs(self):
        """The fleet config carries no checking knob: without a policy
        the fleet runs the default one, and it takes no cache size."""
        from repro.fleet.service import FleetConfig, FleetService
        from repro.monitor.policy import FlowGuardPolicy

        service = FleetService(FleetConfig())
        assert service.monitor.policy == FlowGuardPolicy()
        for knob in ("segment_cache_entries", "edge_cache_entries"):
            with pytest.raises(TypeError, match=knob):
                FleetConfig(**{knob: 8})


# -- bursty open-loop schedule ------------------------------------------------


class TestBurstySchedule:
    def test_builtin_scenario_registered(self):
        from repro.loadgen import builtin_scenario

        scenario = builtin_scenario("bursty-open")
        assert scenario.mode == "open"
        assert scenario.burst == 3
        assert set(scenario.servers) == {"vsftpd", "openssh"}

    def test_burst_validation(self):
        from repro.loadgen import builtin_scenario
        from dataclasses import replace

        scenario = replace(builtin_scenario("bursty-open"), burst=0)
        with pytest.raises(ValueError, match="burst"):
            scenario.validate()

    def test_burst_one_matches_legacy_schedule(self):
        # burst=1 must reduce to the classic (k+1)*interarrival law the
        # existing open scenarios were digested under.
        interarrival = 60_000.0
        for burst in (1, 3, 5):
            times = [
                (k // burst + 1) * interarrival * burst
                for k in range(12)
            ]
            if burst == 1:
                assert times == [
                    (k + 1) * interarrival for k in range(12)
                ]
            # Same average rate: the last arrival of N requests lands
            # no later than ceil(N/burst) full burst periods.
            assert times[-1] == ((11 // burst) + 1) * interarrival * burst
            # Arrivals clump in groups of `burst` at identical times.
            for k in range(0, 12 - burst, burst):
                assert len(set(times[k:k + burst])) == 1

    def test_bursty_point_is_deterministic(self):
        from dataclasses import replace

        from repro.loadgen import builtin_scenario
        from repro.loadgen.engine import run_load_point

        scenario = replace(
            builtin_scenario("bursty-open"),
            sessions=2, connections_upper_bound=2, workers=1,
        )
        a = run_load_point(scenario, 2)
        b = run_load_point(scenario, 2)
        assert a.digest == b.digest
        assert a.completed == a.offered


# -- repro bench: the scenario picks the workload, not the engine -------------


class TestBenchEngineFlag:
    def test_parser_accepts_engines(self):
        """``bench`` parses without an engine and rejects a stale
        ``--engine`` whatever value it names."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["bench", "--scenario", "smoke"])
        assert args.scenario == "smoke"
        assert "engine" not in vars(args)
        for value in ("columnar", "objects"):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["bench", "--scenario", "smoke", "--engine", value]
                )


# -- performance trajectory ---------------------------------------------------


class TestTrajectory:
    def _loadgen_payload(self, knee=80.0, green=True):
        return {
            "quick": False,
            "scenario": {"name": "nginx-closed"},
            "knee": {"connections": 3, "throughput": knee},
            "search": {
                "best_connections": 3,
                "max_throughput": knee,
                "probes": 3,
                "slo_latency": 60_000.0,
                "slo_percentile": 99.0,
            },
            "gates": {"a": green, "b": True},
        }

    def test_seeded_baseline(self):
        from repro.experiments import trajectory

        doc = trajectory.new_trajectory()
        assert doc["entries"][0]["label"] == "pr7"
        assert doc["entries"][0]["knee_throughput"] >= (
            trajectory.KNEE_FLOOR
        )

    def test_append_only(self):
        from repro.experiments import trajectory

        doc = trajectory.new_trajectory()
        before = json.dumps(doc["entries"][0], sort_keys=True)
        entry = trajectory.entry_from_loadgen(
            self._loadgen_payload(), "pr8"
        )
        doc2 = trajectory.append_entry(doc, entry)
        assert [e["label"] for e in doc2["entries"]] == ["pr7", "pr8"]
        # The prior entry survives byte-for-byte.
        assert json.dumps(
            doc2["entries"][0], sort_keys=True
        ) == before

    def test_same_label_replaces_in_place(self):
        from repro.experiments import trajectory

        doc = trajectory.new_trajectory()
        doc = trajectory.append_entry(
            doc, trajectory.entry_from_loadgen(
                self._loadgen_payload(knee=80.0), "pr8"
            ),
        )
        doc = trajectory.append_entry(
            doc, trajectory.entry_from_loadgen(
                self._loadgen_payload(knee=81.0), "pr8"
            ),
        )
        assert [e["label"] for e in doc["entries"]] == ["pr7", "pr8"]
        assert doc["entries"][1]["knee_throughput"] == 81.0

    def test_gates(self):
        from repro.experiments import trajectory

        doc = trajectory.new_trajectory()
        assert trajectory.gates_passed(doc) == []
        # A regressing full-run entry fails the no-regression gate.
        bad = trajectory.entry_from_loadgen(
            self._loadgen_payload(knee=10.0), "pr9"
        )
        failing = trajectory.append_entry(doc, bad)
        failed = trajectory.gates_passed(failing)
        assert "knee_at_or_above_floor" in failed
        assert "no_regression_vs_first" in failed
        # A red loadgen run is recorded but flagged.
        red = trajectory.entry_from_loadgen(
            self._loadgen_payload(green=False), "pr9"
        )
        assert "all_entries_green" in trajectory.gates_passed(
            trajectory.append_entry(doc, red)
        )

    def test_record_roundtrip(self, tmp_path):
        from repro.experiments import trajectory

        loadgen_path = tmp_path / "loadgen.json"
        loadgen_path.write_text(json.dumps(self._loadgen_payload()))
        out = tmp_path / "traj.json"
        doc = trajectory.record(str(loadgen_path), str(out), "pr8")
        assert [e["label"] for e in doc["entries"]] == ["pr7", "pr8"]
        reloaded = trajectory.load_trajectory(str(out))
        assert reloaded == doc
        assert "Performance trajectory" in trajectory.format_table(doc)

    def test_kind_mismatch_rejected(self, tmp_path):
        from repro.experiments import trajectory

        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"kind": "loadgen-bench"}))
        with pytest.raises(ValueError, match="not a loadgen-trajectory"):
            trajectory.load_trajectory(str(bad))
