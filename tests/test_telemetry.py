"""Tests for the unified telemetry subsystem.

Covers the three sinks in isolation (metrics registry, span tracer,
cycle profiler), the cycle-accounting invariants of an instrumented
protected run (the profiler's view must equal the MonitorStats
accumulators), and the ``repro stats`` CLI surface.
"""

import json

import pytest

from repro import telemetry
from repro.itccfg.credits import CreditLabeledITC
from repro.monitor.flowguard import MonitorStats
from repro.osmodel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.telemetry.metrics import MetricsRegistry, series_name
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry import tracing
from repro.telemetry.tracing import Tracer
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)
from tests.meter_view import assert_view_matches_stats


def _enabled(sink):
    """A registry or tracer switched on, as ``Telemetry.enable`` does."""
    sink.enabled = True
    return sink


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    """Every test starts and ends with disabled, empty global state."""
    tel = telemetry.get_telemetry()
    tel.disable()
    tel.reset()
    yield tel
    tel.disable()
    tel.reset()


class TestMetricsRegistry:
    def test_counter_labels_fan_out_into_series(self):
        reg = _enabled(MetricsRegistry())
        checks = reg.counter("monitor.checks")
        checks.inc(path="fast")
        checks.inc(path="fast")
        checks.inc(path="slow")
        assert checks.value(path="fast") == 2
        assert checks.value(path="slow") == 1
        assert checks.total() == 3
        snap = reg.snapshot()
        assert snap["counters"]['monitor.checks{path="fast"}'] == 2

    def test_series_name_is_stable_under_label_order(self):
        reg = _enabled(MetricsRegistry())
        c = reg.counter("x")
        c.inc(b=1, a=2)
        c.inc(a=2, b=1)
        assert c.value(a=2, b=1) == 2
        assert series_name("x", (("a", "2"), ("b", "1"))) == 'x{a="2",b="1"}'

    def test_gauge_and_histogram(self):
        reg = _enabled(MetricsRegistry())
        reg.gauge("ratio").set(0.5, program="nginx")
        h = reg.histogram("window")
        for v in (10, 30, 20):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["min"] == 10
        assert summary["max"] == 30
        assert summary["mean"] == pytest.approx(20.0)
        assert reg.snapshot()["gauges"]['ratio{program="nginx"}'] == 0.5

    def test_disabled_registry_is_a_no_op(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_instruments_memoized_and_reset_keeps_them(self):
        reg = _enabled(MetricsRegistry())
        assert reg.counter("c") is reg.counter("c")
        reg.counter("c").inc(5)
        reg.reset()
        assert reg.counter("c").total() == 0


class TestTracer:
    def test_nesting_records_parents(self):
        tracer = _enabled(Tracer())
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        inner, outer = tracer.spans[0], tracer.spans[1]
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_s >= 0

    def test_disabled_spans_still_measure_but_are_not_retained(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.duration_ns >= 0
        assert tracer.spans == []

    def test_traced_decorator(self):
        tracer = _enabled(Tracer())

        @tracer.traced("my.phase")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert tracer.spans[0].name == "my.phase"

    def test_chrome_export_is_loadable(self, tmp_path):
        tracer = _enabled(Tracer())
        with tracer.span("a", key="v"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(str(path)) == 2
        payload = json.loads(path.read_text())
        assert {e["name"] for e in payload["traceEvents"]} == {"a", "b"}
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)

    def test_jsonl_export(self, tmp_path):
        tracer = _enabled(Tracer())
        with tracer.span("one", n=1):
            pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        line = json.loads(path.read_text().splitlines()[0])
        assert line["name"] == "one"
        assert line["attrs"] == {"n": 1}

    def test_buffer_cap_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        tracer = _enabled(Tracer())
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2
        assert tracer.spans[0].name == "s2"


class _FakeProcess:
    def __init__(self, pid):
        self.pid = pid


class _FakeProtected:
    def __init__(self, pid):
        self.process = _FakeProcess(pid)
        self.stats = MonitorStats()


class TestCycleProfiler:
    def test_views_sum_registered_cells(self):
        first, second = _FakeProtected(1), _FakeProtected(2)
        first.stats.charge("fast", "decode", 10.0)
        first.stats.charge("fast", "search", 5.0)
        second.stats.charge("slow", "decode", 2.0)
        prof = CycleProfiler()
        prof.register(first)
        prof.register(second)
        assert prof.per_phase() == {"decode": 12.0, "search": 5.0}
        assert prof.per_component() == {"fast": 15.0, "slow": 2.0}
        assert prof.total() == 17.0
        # A view, not a copy: later charges show up without a write.
        second.stats.charge("slow", "decode", 1.0)
        assert prof.snapshot()["cells"]["slow/decode"] == 3.0
        prof.reset()
        assert prof.total() == 0.0

    def test_trace_reads_cumulative_stats(self):
        pp = _FakeProtected(3)
        prof = CycleProfiler()
        prof.register(pp, tenant="alpha")
        pp.stats.trace_cycles = 100.0
        pp.stats.trace_cycles = 150.0
        assert prof.snapshot()["cells"] == {
            "ipt.encoder.alpha.pid3/trace": 150.0
        }

    def test_charge_folds_phases_into_accumulators(self):
        stats = MonitorStats()
        stats.charge("fast", "decode", 10.0)
        stats.charge("fast", "search", 4.0)
        stats.charge("slow", "shadow-stack", 3.0)
        stats.charge("slow", "upcall", 2.0)
        stats.charge("mon", "intercept", 1.0)
        assert (stats.decode_cycles, stats.check_cycles,
                stats.other_cycles) == (10.0, 7.0, 3.0)
        assert stats.cells[("slow", "shadow-stack")] == 3.0
        with pytest.raises(KeyError):
            stats.charge("ipt.encoder.pid1", "trace", 1.0)


NGINX_CORPUS = [
    nginx_request("/index.html"),
    nginx_request("/missing"),
    nginx_request("/p", "POST", b"form"),
]


@pytest.fixture(scope="module")
def nginx_pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        {"libsim.so": build_libsim()},
        vdso=build_vdso(),
        corpus=NGINX_CORPUS,
        mode="socket",
    )


def _serve(pipeline, labeled=None, requests=8):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>hello</html>")
    monitor = pipeline.make_monitor(kernel)
    proc = kernel.spawn("nginx")
    monitor.protect(
        proc,
        labeled if labeled is not None else pipeline.labeled,
        pipeline.ocfg,
    )
    for _ in range(requests):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    return monitor, proc


class TestCycleAccountingInvariants:
    """The profiler's view folds back into the MonitorStats
    accumulators."""

    def test_protected_run_reconciles_exactly(self, nginx_pipeline):
        with telemetry.capture() as tel:
            monitor, proc = _serve(nginx_pipeline)
            stats = monitor.stats_for(proc)
            assert monitor.detections == []
            assert stats.checks > 0
            assert_view_matches_stats(tel.profiler, monitor.all_stats())

    def test_fast_and_slow_counts_sum_to_checks(self, nginx_pipeline):
        # An untrained credit map forces slow-path runs, covering the
        # upcall / shadow-stack / slow-decode phases too.
        untrained = CreditLabeledITC(itc=nginx_pipeline.itc)
        with telemetry.capture() as tel:
            monitor, proc = _serve(nginx_pipeline, labeled=untrained)
            stats = monitor.stats_for(proc)
            assert monitor.detections == []
            assert stats.slow_path_runs > 0
            assert stats.fast_passes + stats.slow_path_runs == stats.checks
            checks = tel.metrics.counter("monitor.checks")
            assert checks.value(path="fast") == stats.fast_passes
            assert checks.value(path="slow") == stats.slow_path_runs
            assert checks.total() == stats.checks
            assert_view_matches_stats(tel.profiler, monitor.all_stats())
        phases = tel.profiler.per_phase()
        assert phases["upcall"] > 0
        assert phases["decode"] > 0

    def test_disabled_run_records_nothing(self, nginx_pipeline):
        tel = telemetry.get_telemetry()
        monitor, proc = _serve(nginx_pipeline)
        assert monitor.stats_for(proc).checks > 0
        assert tel.profiler.total() == 0.0
        assert tel.metrics.snapshot()["counters"] == {}
        assert tel.tracer.spans == []

    def test_edge_counters_match_stats(self, nginx_pipeline):
        with telemetry.capture() as tel:
            monitor, proc = _serve(nginx_pipeline)
            stats = monitor.stats_for(proc)
            m = tel.metrics
            assert m.counter("monitor.edges_checked").total() == (
                stats.edges_checked
            )
            assert m.counter("monitor.low_credit_edges").total() == (
                stats.low_credit_edges
            )


class TestServerRunSnapshot:
    def test_run_server_attaches_snapshot_when_enabled(self):
        from repro.experiments.common import run_server, server_requests

        with telemetry.capture():
            run = run_server(
                "exim", server_requests("exim", 2), protected=True
            )
        assert run.telemetry is not None
        assert run.telemetry["metrics"]["counters"]
        assert run.telemetry["profile"]["total_cycles"] > 0

    def test_run_server_snapshot_none_when_disabled(self):
        from repro.experiments.common import run_server, server_requests

        run = run_server("exim", server_requests("exim", 2), protected=True)
        assert run.telemetry is None


class TestStatsCLI:
    def test_stats_command_reconciles_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        code = main([
            "stats", "exim", "-n", "2",
            "--trace-out", str(trace),
            "--spans-out", str(spans),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 4
        assert payload["context"]["kind"] == "solo"
        assert "reconciliation" not in payload["monitor"]
        assert payload["monitor"]["processes"]
        assert payload["telemetry"]["metrics"]["counters"]
        chrome = json.loads(trace.read_text())
        assert chrome["traceEvents"]
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        assert spans.read_text().strip()
        # The CLI restores the global disabled state.
        assert not telemetry.get_telemetry().enabled
