"""Tests for the path-sensitive fast-path extension (§7.1.2 future work)."""

from dataclasses import replace

import pytest

from repro.itccfg import PathIndex
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)


class TestPathIndex:
    def test_gram_extraction(self):
        index = PathIndex(gram=3)
        added = index.observe_sequence([1, 2, 3, 4])
        assert added == 2  # (1,2,3) and (2,3,4)
        assert index.contains((1, 2, 3))
        assert index.contains((2, 3, 4))
        assert not index.contains((1, 3, 4))

    def test_long_window_checked_gramwise(self):
        index = PathIndex(gram=3)
        index.observe_sequence([1, 2, 3, 4, 5])
        assert index.contains((1, 2, 3, 4, 5))
        assert not index.contains((1, 2, 3, 5, 4))

    def test_short_window_suffix_tolerance(self):
        """A window starting mid-path must not false-demote."""
        index = PathIndex(gram=4)
        index.observe_sequence([1, 2, 3, 4])
        assert index.contains((3, 4))  # suffix of a trained gram
        assert index.contains((1, 2))  # prefix of a trained gram
        assert not index.contains((4, 1))

    def test_untrained_grams(self):
        index = PathIndex(gram=2)
        index.observe_sequence([1, 2, 3])
        missing = index.untrained_grams([1, 2, 9, 3])
        assert (2, 9) in missing and (9, 3) in missing
        assert (1, 2) not in missing

    def test_gram_minimum(self):
        with pytest.raises(ValueError):
            PathIndex(gram=1)

    def test_memory_accounting(self):
        index = PathIndex(gram=2)
        index.observe_sequence([1, 2, 3])
        assert index.memory_bytes() == 2 * 8 * 2  # two 2-grams

    def test_idempotent_training(self):
        index = PathIndex(gram=3)
        index.observe_sequence([1, 2, 3, 4])
        assert index.observe_sequence([1, 2, 3, 4]) == 0

    def test_stitched_window_caught_where_edges_pass(self):
        """The security value of path matching: a window whose every
        *pair* (edge) was trained but whose order is novel — exactly
        what an attacker chaining trained NOP-gadget edges produces —
        has untrained grams."""
        index = PathIndex(gram=3)
        index.observe_sequence([1, 2, 3, 4])  # path one
        index.observe_sequence([4, 2, 5])  # path two
        stitched = [1, 2, 5]
        # Every consecutive pair is individually trained...
        assert index.contains((1, 2))
        assert index.contains((2, 5))
        # ...but the stitched 3-gram never occurred.
        assert index.untrained_grams(stitched) == [(1, 2, 5)]


@pytest.fixture(scope="module")
def trained_pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        {"libsim.so": build_libsim()},
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            # Multi-connection session: trains the accept-loop
            # wrap-around grams the runtime windows cross.
            (nginx_request("/index.html"),) * 3,
        ],
        mode="socket",
        kernel_setup=lambda k: k.fs.create("/index.html", b"<html>x</html>"),
    )


class TestPathSensitiveMonitor:
    def _serve(self, pipeline, policy, requests):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        monitor, proc = pipeline.deploy(kernel, policy=policy)
        for request in requests:
            proc.push_connection(request)
        kernel.run(proc)
        return monitor, proc

    def test_pipeline_builds_path_index(self, trained_pipeline):
        assert trained_pipeline.path_index is not None
        assert trained_pipeline.path_index.trained_gram_count > 0

    def test_trained_traffic_stays_fast(self, trained_pipeline):
        policy = FlowGuardPolicy(path_sensitive=True)
        monitor, proc = self._serve(
            trained_pipeline, policy,
            [nginx_request("/index.html")] * 4,
        )
        stats = monitor.stats_for(proc)
        assert monitor.detections == []
        assert stats.slow_path_rate < 0.5  # warm path stays fast

    def test_novel_sequence_demotes_to_slow_path(self, trained_pipeline):
        """A request type never trained produces untrained k-grams: the
        path-sensitive checker must demote where edge checking may not.
        The paper's prediction — "it may introduce larger number of slow
        path checking" — is exactly what we measure."""
        edge_policy = FlowGuardPolicy(path_sensitive=False,
                                      cache_slow_path_negatives=False)
        path_policy = FlowGuardPolicy(path_sensitive=True,
                                      cache_slow_path_negatives=False)
        novel = [nginx_request("/never-trained"),  # 404 path
                 nginx_request("/index.html")]
        edge_monitor, _ = self._serve(trained_pipeline, edge_policy, novel)
        path_monitor, _ = self._serve(trained_pipeline, path_policy, novel)
        assert edge_monitor.detections == []
        assert path_monitor.detections == []  # no false positives!
        edge_stats_slow = edge_monitor._protected  # noqa: SLF001
        edge_slow = sum(
            pp.stats.slow_path_runs for pp in edge_monitor._protected.values()
        )
        path_slow = sum(
            pp.stats.slow_path_runs for pp in path_monitor._protected.values()
        )
        assert path_slow >= edge_slow

    def test_policy_copy_preserves_flag(self):
        policy = FlowGuardPolicy(path_sensitive=True)
        assert replace(policy, endpoints={99}).path_sensitive is True
