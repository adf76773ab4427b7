"""End-to-end FlowGuard monitor tests on the nginx analogue."""

from dataclasses import fields, replace

import pytest

from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel, ProcessState, SIGKILL, Sys
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)

TRAIN_CORPUS = [
    nginx_request("/index.html"),
    nginx_request("/missing.html"),
    nginx_request("/data.txt"),
    nginx_request("/x", "POST", b"body-bytes"),
    nginx_request("/index.html", "HEAD"),
    b"BOGUS garbage\n",
]


@pytest.fixture(scope="module")
def nginx_pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        {"libsim.so": build_libsim()},
        vdso=build_vdso(),
        corpus=TRAIN_CORPUS,
        mode="socket",
    )


def fresh_kernel():
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>hello</html>")
    kernel.fs.create("/data.txt", b"1234567890" * 5)
    return kernel


class TestOfflinePhase:
    def test_training_labels_edges(self, nginx_pipeline):
        assert nginx_pipeline.training is not None
        assert nginx_pipeline.training.inputs_replayed == len(TRAIN_CORPUS)
        assert nginx_pipeline.training.edges_observed > 0
        assert 0 < nginx_pipeline.labeled.trained_ratio() < 1

    def test_cfg_sizes_sane(self, nginx_pipeline):
        stats = nginx_pipeline.ocfg.stats()
        assert stats["exec_blocks"] > 50
        assert stats["lib_blocks"] > 100
        itc_stats = nginx_pipeline.itc.stats()
        assert 0 < itc_stats["nodes"] < stats["blocks"]
        assert itc_stats["edges"] > 0


class TestBenignTraffic:
    def test_no_detection_and_no_kill(self, nginx_pipeline):
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        conns = [
            proc.push_connection(nginx_request("/index.html"))
            for _ in range(5)
        ]
        kernel.run(proc)
        assert proc.state is ProcessState.EXITED
        assert monitor.detections == []
        for conn in conns:
            assert bytes(conn.outbound).startswith(b"HTTP/1.1 200")

    def test_checks_triggered_by_write_endpoints(self, nginx_pipeline):
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        stats = monitor.stats_for(proc)
        assert stats.checks > 0
        assert stats.trace_cycles > 0

    def test_slow_path_rare_after_training(self, nginx_pipeline):
        """§7.2.1: with training + caching, slow path happens rarely."""
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        for _ in range(20):
            proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        stats = monitor.stats_for(proc)
        assert stats.checks >= 20
        # Early checks may demote to the slow path; caching of slow-path
        # negatives must keep the overall rate low.
        assert stats.slow_path_rate < 0.5
        assert stats.fast_passes > 0

    def test_negative_caching_improves(self, nginx_pipeline):
        """Slow-path confirmations promote edges for later checks."""
        import copy

        kernel = fresh_kernel()
        # Use an untrained pipeline clone: everything starts low-credit.
        from repro.itccfg.credits import CreditLabeledITC

        untrained = CreditLabeledITC(itc=nginx_pipeline.itc)
        monitor = nginx_pipeline.make_monitor(kernel)
        proc = kernel.spawn("nginx")
        monitor.protect(proc, untrained, nginx_pipeline.ocfg)
        for _ in range(8):
            proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        stats = monitor.stats_for(proc)
        assert monitor.detections == []
        # The first request runs the slow path; subsequent identical
        # requests hit promoted (cached) edges.
        assert stats.slow_path_runs < stats.checks

    def test_overhead_small(self, nginx_pipeline):
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        for _ in range(10):
            proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        overhead = monitor.overhead_for(proc)
        assert 0 < overhead < 0.5

    def test_unprotected_process_not_intercepted(self, nginx_pipeline):
        kernel = fresh_kernel()
        monitor = nginx_pipeline.make_monitor(kernel)
        proc = nginx_pipeline.spawn_unprotected(kernel)
        proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        assert monitor.detections == []
        assert proc.state is ProcessState.EXITED


class TestMalformedWindow:
    def test_ip_suppressed_tip_fails_closed(self, nginx_pipeline,
                                            monkeypatch):
        """An IP-suppressed TIP at the newest end of the window: the
        pair it ends is out of graph, so the check is a fast-path
        VIOLATION whose edge and reason name the suppressed ip (None) —
        not a ``TypeError`` from the index or the report."""
        from repro.ipt.packets import TIP_HEADER, encode_ip_packet
        from repro.monitor.fastpath import FastPathChecker

        suppressed = encode_ip_packet(TIP_HEADER, None, 0)[0]
        check = FastPathChecker.check
        monkeypatch.setattr(
            FastPathChecker, "check",
            lambda checker, data: check(checker, bytes(data) + suppressed),
        )
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        assert proc.state is ProcessState.KILLED
        [detection] = monitor.detections
        assert detection.path == "fast"
        assert detection.edge[1] is None
        assert detection.reason.endswith(" -> suppressed")


class TestPolicy:
    def test_with_endpoints_extends(self):
        policy = FlowGuardPolicy()
        extended = replace(
            policy, endpoints=policy.endpoints | {int(Sys.OPEN)}
        )
        assert int(Sys.OPEN) in extended.endpoints
        assert int(Sys.OPEN) not in policy.endpoints

    def test_with_endpoints_keeps_every_field(self):
        custom = {
            "pkt_count": 7,
            "cred_ratio": 0.5,
            "require_cross_module": False,
            "require_executable": False,
            "endpoints": frozenset({int(Sys.WRITE)}),
            "check_on_pmi": True,
            "cache_slow_path_negatives": False,
            "path_sensitive": True,
            "psb_period": 256,
        }
        default = FlowGuardPolicy()
        # A new policy field must be added here, with a non-default value.
        assert set(custom) == {f.name for f in fields(FlowGuardPolicy)}
        for name, value in custom.items():
            assert getattr(default, name) != value, name
        policy = FlowGuardPolicy(**custom)
        clone = replace(
            policy, endpoints=policy.endpoints | {int(Sys.OPEN)}
        )
        for name, value in custom.items():
            if name != "endpoints":
                assert getattr(clone, name) == value, name
        assert clone.endpoints == {int(Sys.WRITE), int(Sys.OPEN)}

    @pytest.mark.parametrize(
        "key", ["bogus", "decode_mode", "decode_pool", "pool", "index_shards",
                "engine", "slow_lane", "scan_kernel"]
    )
    def test_from_dict_rejects_unknown_keys(self, key):
        data = FlowGuardPolicy().to_dict()
        assert FlowGuardPolicy.from_dict(data) == FlowGuardPolicy()
        data[key] = 0
        with pytest.raises(ValueError, match=key):
            FlowGuardPolicy.from_dict(data)

    def test_uninstall_restores_table(self, nginx_pipeline):
        kernel = fresh_kernel()
        before = dict(kernel.syscall_table)
        monitor = nginx_pipeline.make_monitor(kernel)
        assert kernel.syscall_table != before
        monitor.uninstall()
        assert kernel.syscall_table == before

    def test_pmi_counted(self, nginx_pipeline):
        kernel = fresh_kernel()
        monitor, proc = nginx_pipeline.deploy(kernel)
        # Enough traffic to fill the 16 KiB ToPA at least once.
        for _ in range(30):
            proc.push_connection(nginx_request("/data.txt"))
        kernel.run(proc)
        stats = monitor.stats_for(proc)
        assert stats.pmi_count >= 1
