"""Tests for the high-level FlowGuardPipeline API."""

import pytest

from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel, ProcessState
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)

LIBS = {"libsim.so": build_libsim()}


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx", build_nginx(), LIBS, vdso=build_vdso(),
        corpus=[nginx_request("/a"), nginx_request("/b", "HEAD")],
        mode="socket",
    )


class TestOffline:
    def test_offline_without_corpus(self):
        untrained = FlowGuardPipeline.offline(
            "nginx", build_nginx(), LIBS, vdso=build_vdso()
        )
        assert untrained.training is None
        assert untrained.path_index is None
        assert untrained.labeled.trained_ratio() == 0.0
        assert untrained.itc.edge_count > 0

    def test_offline_artifacts_consistent(self, pipeline):
        # Every trained edge must actually exist in the ITC-CFG.
        for src, dst in pipeline.labeled.high_credit_edges():
            assert pipeline.itc.has_edge(src, dst)


class TestDeploy:
    def test_two_processes_one_monitor(self, pipeline):
        """A single kernel module protects multiple instances."""
        kernel = Kernel()
        kernel.fs.create("/a", b"A" * 64)
        monitor = pipeline.make_monitor(kernel)
        _, proc1 = pipeline.deploy(kernel, monitor=monitor)
        _, proc2 = pipeline.deploy(kernel, monitor=monitor)
        assert proc1.cr3 != proc2.cr3
        proc1.push_connection(nginx_request("/a"))
        proc2.push_connection(nginx_request("/a"))
        kernel.run(proc1)
        kernel.run(proc2)
        assert monitor.detections == []
        assert monitor.stats_for(proc1).checks > 0
        assert monitor.stats_for(proc2).checks > 0

    def test_stats_for_unprotected_raises(self, pipeline):
        kernel = Kernel()
        monitor = pipeline.make_monitor(kernel)
        proc = pipeline.spawn_unprotected(kernel)
        with pytest.raises(KeyError):
            monitor.stats_for(proc)

    def test_policy_flows_through_deploy(self, pipeline):
        kernel = Kernel()
        kernel.fs.create("/a", b"x")
        policy = FlowGuardPolicy(pkt_count=7)
        monitor, proc = pipeline.deploy(kernel, policy=policy)
        assert monitor.policy.pkt_count == 7
        assert monitor.protected_for(proc).checker.pkt_count == 7

    def test_deploy_registers_program_once(self, pipeline):
        kernel = Kernel()
        pipeline.deploy(kernel)
        pipeline.deploy(kernel)
        assert "nginx" in kernel.programs
