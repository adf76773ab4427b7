"""Robustness of the decoders against hostile or corrupted input.

The fast decoder's scan processes attacker-influenced bytes (the trace
of a hijacked process) and kernel-buffer tails cut at arbitrary points;
it must terminate with either a result or a PacketError — never hang,
never crash with an unrelated exception.  Where it recovers, it must
recover what the packet-object oracle in ``tests/packet_reference.py``
decodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ipt import (
    IPTConfig,
    IPTEncoder,
    PacketError,
    ToPA,
    ToPARegion,
    columnar_decode_parallel,
    columnar_scan,
)
from repro.ipt.msr import RTIT_CTL
from repro.cpu.events import BranchEvent, CoFIKind
from tests.packet_reference import fast_decode, packets_of, segment_records


def _sample_trace() -> bytes:
    config = IPTConfig()
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 14)]))
    for i in range(60):
        encoder.on_branch(
            BranchEvent(CoFIKind.COND_BRANCH, 0x400000 + 8 * i,
                        0x400010 + 8 * i, taken=(i % 3 != 0))
        )
        if i % 4 == 0:
            encoder.on_branch(
                BranchEvent(CoFIKind.RET, 0x400100 + i, 0x400200 + i)
            )
    encoder.flush()
    return encoder.output.snapshot()


class TestFastDecodeRobustness:
    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_hang_or_crash(self, data):
        try:
            result = columnar_scan(data)
        except PacketError:
            return
        assert result.pkt_count == len(fast_decode(data).packets)

    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sync_mode_tolerates_garbage_prefix(self, garbage):
        data = garbage + _sample_trace()
        # Syncing to the first PSB must recover the real packets even
        # when the prefix is arbitrary junk.
        result = columnar_scan(data, sync=True)
        reference = columnar_scan(_sample_trace())
        synced = fast_decode(data, sync=True).synced_offset
        got = (
            result.pkt_count,
            segment_records(result, base=-synced),
        )
        want = (
            reference.pkt_count,
            segment_records(reference),
        )
        # The garbage may itself contain a fake PSB pattern; in that
        # rare case decoding starts earlier but must still terminate.
        if synced == len(garbage):
            assert got == want

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_truncation_tolerated(self, cut):
        data = _sample_trace()
        cut = min(cut, len(data))
        result = columnar_scan(data[:cut])
        # Whole-packet prefix decodes; mid-packet cut flags truncation.
        assert result.truncated or result.scanned == cut

    @given(st.binary(max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_parallel_agrees_with_serial_on_valid_streams(self, junk):
        data = _sample_trace()
        parallel = columnar_decode_parallel(data)
        assert packets_of(parallel.columns) == fast_decode(data).packets


class TestFullDecodeRobustness:
    def test_packets_for_wrong_binary_reported(self):
        """Full decode of a trace against mismatched memory must raise
        TraceMismatch, not produce silently wrong flow."""
        from repro.cpu.memory import Memory, PROT_EXEC, PROT_READ
        from repro.ipt import FullDecoder, TraceMismatch

        source = [(columnar_scan(_sample_trace()), 0)]
        memory = Memory()
        memory.map_region(0x400000, 0x2000, PROT_READ | PROT_EXEC)
        # All zeroes decodes as NOP sled: the decoder walks NOPs and
        # then hits a packet it cannot reconcile or runs off the map.
        with pytest.raises(TraceMismatch):
            decoder = FullDecoder(memory, max_insns=100_000)
            result = decoder.decode(source)
            # A NOP sled consumes no packets; walking off the mapped
            # region must raise before the instruction budget is spent.
            if result.insn_count >= 100_000:  # pragma: no cover
                raise TraceMismatch("budget exhausted on a NOP sled")


# -- the slow path on mangled snapshots ---------------------------------------


@pytest.fixture(scope="module")
def nginx_snapshots():
    """An undertrained nginx (Fig. 5d's protocol), its pipeline and the
    ToPA snapshots its fast path checked."""
    from repro.experiments.common import (
        libraries,
        seed_server_fs,
        training_corpus,
    )
    from repro.loadgen import mix_requests
    from repro.monitor.fastpath import FastPathChecker
    from repro.monitor.policy import FlowGuardPolicy
    from repro.osmodel import Kernel
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import SERVER_BUILDERS, build_vdso

    pipeline = FlowGuardPipeline.offline(
        "nginx", SERVER_BUILDERS["nginx"](), libraries(),
        vdso=build_vdso(), corpus=training_corpus("nginx")[:2],
        mode="socket", kernel_setup=seed_server_fs,
    )
    policy = FlowGuardPolicy(cache_slow_path_negatives=False)
    snapshots = []
    original = FastPathChecker.check

    def capture(checker, data):
        snapshots.append(bytes(data))
        return original(checker, data)

    FastPathChecker.check = capture
    try:
        kernel = Kernel()
        seed_server_fs(kernel)
        _, proc = pipeline.deploy(kernel, policy=policy)
        for request in mix_requests("nginx", 6, seed=3, mix="varied"):
            proc.push_connection(request)
        kernel.run(proc)
    finally:
        FastPathChecker.check = original
    assert len(snapshots) >= 20
    return pipeline, policy, snapshots


def _suppress_ip(data: bytes, packet) -> bytes:
    """``data`` with ``packet`` (a TIP-family packet) re-encoded with
    its IP suppressed."""
    at = packet.offset
    return data[:at] + bytes((data[at], 0)) + data[at + 2 + data[at + 1]:]


def _mangled(snapshots, seed):
    """Truncations, byte flips and IP-suppressed TIP/TIP.PGE/FUP packets
    of a spread of the snapshots."""
    import random

    from tests.packet_reference import PacketKind

    rng = random.Random(seed)
    targets = (PacketKind.TIP, PacketKind.TIP_PGE, PacketKind.FUP)
    step = max(1, len(snapshots) // 12)
    for data in snapshots[::step]:
        for _ in range(4):
            yield data[:rng.randrange(len(data) + 1)]
            flipped = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            yield bytes(flipped)
        packets = [
            p for p in fast_decode(data).packets if p.kind in targets
        ]
        for packet in rng.sample(packets, min(6, len(packets))):
            yield _suppress_ip(data, packet)


class TestSlowPathRobustness:
    """Mangled snapshots through ``FastPathChecker.check`` and then
    ``SlowPathEngine.check(result.slow_path_source(), ...)``: every
    outcome is a result, never an uncaught exception."""

    VERDICTS = ("decoder desync: ", "forward-edge violation: ",
                "backward-edge violation: ", "ret at ")

    def _judge(self, pp, data):
        result = pp.checker.check(data)
        slow = pp.slow.check(
            result.slow_path_source(), result.window_ips,
            result.window_sigs,
        )
        assert slow.ok or slow.reason.startswith(self.VERDICTS), slow.reason
        return slow

    def test_fresh_checkers(self, nginx_snapshots):
        from repro.osmodel import Kernel

        pipeline, policy, snapshots = nginx_snapshots
        outcomes = set()
        for data in _mangled(snapshots, seed=1):
            monitor, proc = pipeline.deploy(Kernel(), policy=policy)
            slow = self._judge(monitor.protected_for(proc), data)
            outcomes.add(slow.ok or slow.reason.split(":")[0])
        assert True in outcomes and "decoder desync" in outcomes

    def test_one_checker_in_sequence(self, nginx_snapshots):
        """One checker for every input, so each walk reuses the segments
        the previous walk scanned."""
        from repro.osmodel import Kernel

        pipeline, policy, snapshots = nginx_snapshots
        monitor, proc = pipeline.deploy(Kernel(), policy=policy)
        pp = monitor.protected_for(proc)
        outcomes = set()
        for data in _mangled(snapshots, seed=2):
            slow = self._judge(pp, data)
            outcomes.add(slow.ok or slow.reason.split(":")[0])
        assert True in outcomes and "decoder desync" in outcomes
