"""Tests for the observability plane (sampler, flight recorder, SLOs).

Pins the plane's contracts: exact nearest-rank percentiles from the
rewritten Histogram, sampler cadence and ring eviction, the flight
recorder's bounded journal and auto-dumps (VIOLATION, ledger drift),
zero allocation when disabled, determinism under seeded fault
injection, SLO error-budget arithmetic, the plane's exact-accounting
audit on a real run, and the StatsReport v2 -> v3 migration.
"""

import json

import pytest

from repro import telemetry
from repro.experiments.common import (
    libraries,
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.experiments.fleet_scaling import build_fleet
from repro.osmodel import Kernel
from repro.resilience import FaultPlan, RetryPolicy
from repro.stats_report import SCHEMA_VERSION, StatsReport
from repro.telemetry.metrics import MetricsRegistry, nearest_rank
from repro.telemetry import plane as plane_module
from repro.telemetry.plane import (
    FlightRecorder,
    ObservabilityPlane,
    SLOConfig,
    SLOEngine,
    SLObjective,
    TimeseriesSampler,
)


def _enabled_registry() -> MetricsRegistry:
    """A registry switched on, as ``Telemetry.enable`` does."""
    reg = MetricsRegistry()
    reg.enabled = True
    return reg


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    """Every test starts and ends with disabled, empty global state."""
    tel = telemetry.get_telemetry()
    tel.detach_plane()
    tel.disable()
    tel.reset()
    yield tel
    tel.detach_plane()
    tel.disable()
    tel.reset()


# -- exact percentiles (the Histogram.summary fix) ---------------------------


class TestExactPercentiles:
    def test_nearest_rank_small_sets(self):
        assert nearest_rank([], 99) == 0.0
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([1.0, 2.0], 50) == 1.0
        assert nearest_rank([1.0, 2.0], 99) == 2.0

    def test_fractional_percentile_ranks_exactly(self):
        values = [float(v) for v in range(1, 1001)]
        assert nearest_rank(values, 99.9) == 999.0
        assert nearest_rank(values, 99.95) == 1000.0
        assert nearest_rank(values, 99.0) == nearest_rank(values, 99) == 990.0
        assert nearest_rank(values[:10], 12.5) == 2.0

    def test_histogram_percentiles_are_exact(self):
        reg = _enabled_registry()
        h = reg.histogram("lag")
        for v in range(100, 0, -1):  # reverse insert: order must not matter
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        cell = h.summary()
        assert cell["p50"] == 50.0
        assert cell["p95"] == 95.0
        assert cell["p99"] == 99.0
        assert cell["count"] == 100
        assert cell["max"] == 100.0

    def test_labeled_series_keep_separate_observations(self):
        reg = _enabled_registry()
        h = reg.histogram("lag")
        h.observe(1.0, kind="a")
        h.observe(100.0, kind="b")
        assert h.percentile(99, kind="a") == 1.0
        assert h.percentile(99, kind="b") == 100.0

    def test_snapshot_carries_exact_percentiles(self):
        reg = _enabled_registry()
        h = reg.histogram("lag")
        for v in (1.0, 2.0, 3.0, 1000.0):
            h.observe(v)
        cell = reg.snapshot()["histograms"]["lag"]
        assert cell["p50"] == 2.0
        assert cell["p99"] == 1000.0

    def test_reset_clears_observations(self):
        h = _enabled_registry().histogram("x")
        h.observe(5.0)
        h.reset()
        assert h.percentile(99) == 0.0
        assert h.summary() is None


# -- sampler -----------------------------------------------------------------


def _plane(interval=100.0) -> ObservabilityPlane:
    tel = telemetry.get_telemetry()
    plane = ObservabilityPlane(interval=interval)
    tel.attach_plane(plane)
    return plane


class TestTimeseriesSampler:
    def test_cadence_on_the_virtual_grid(self):
        plane = _plane(interval=100.0)
        sampler = plane.sampler
        assert sampler.maybe_sample(50.0) is None
        first = sampler.maybe_sample(130.0)
        assert first is not None and first["t"] == 130.0
        # Same window: no second sample until the next boundary.
        assert sampler.maybe_sample(180.0) is None
        assert sampler.maybe_sample(200.0) is not None
        assert sampler.taken == 2

    def test_ring_eviction_keeps_newest(self):
        tel = telemetry.get_telemetry()
        sampler = TimeseriesSampler(
            tel.metrics, tel.profiler, interval=10.0, capacity=3,
        )
        for t in (10, 20, 30, 40, 50):
            sampler.sample(float(t))
        assert sampler.taken == 5
        assert sampler.dropped == 2
        assert [s["t"] for s in sampler.samples] == [30.0, 40.0, 50.0]
        assert [s["seq"] for s in sampler.samples] == [2, 3, 4]


# -- flight recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_ring_evicts_in_order(self, monkeypatch):
        monkeypatch.setattr(plane_module, "FLIGHT_CAPACITY", 3)
        flight = FlightRecorder()
        for i in range(5):
            flight.record("k", float(i), pid=i)
        assert flight.seq == 5
        assert flight.dropped == 2
        assert [e["seq"] for e in flight.events] == [2, 3, 4]
        assert flight.counts == {"k": 5}  # counts survive eviction

    def test_dumps_are_bounded(self, monkeypatch):
        monkeypatch.setattr(plane_module, "MAX_DUMPS", 2)
        flight = FlightRecorder()
        flight.record("k", 1.0)
        for i in range(4):
            flight.dump(f"r{i}", float(i), None)
        assert len(flight.dumps) == 2
        assert flight.dumps_suppressed == 2
        assert [d["reason"] for d in flight.dumps] == ["r0", "r1"]

    def test_dump_freezes_event_tail_and_samples(self, monkeypatch):
        monkeypatch.setattr(plane_module, "DUMP_EVENTS", 2)
        monkeypatch.setattr(plane_module, "DUMP_SAMPLES", 1)
        tel = telemetry.get_telemetry()
        sampler = TimeseriesSampler(tel.metrics, tel.profiler,
                                    interval=10.0)
        flight = FlightRecorder()
        for i in range(5):
            flight.record("k", float(i))
        sampler.sample(10.0)
        sampler.sample(20.0)
        dump = flight.dump("why", 20.0, sampler)
        assert [e["seq"] for e in dump["events"]] == [3, 4]
        assert [s["t"] for s in dump["samples"]] == [20.0]

    def test_auto_dump_on_violation(self):
        from repro.attacks import build_rop_request, run_recon
        from repro.workloads import build_nginx, build_vdso

        plane = _plane(interval=2000.0)
        recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
        kernel = Kernel()
        seed_server_fs(kernel)
        monitor, proc = server_pipeline("nginx").deploy(kernel)
        proc.push_connection(build_rop_request(recon))
        kernel.run(proc)
        assert monitor.detections
        assert len(plane.flight.dumps) >= 1
        assert plane.flight.dumps[0]["reason"].startswith("VIOLATION")
        # The dump froze the forced sample taken at violation time.
        assert plane.flight.dumps[0]["samples"]

    def test_auto_dump_on_ledger_drift(self):
        plane = _plane(interval=100.0)
        assert plane.check_reconciliation("fleet-accounting",
                                          {"exact": True})
        assert not plane.check_reconciliation("fleet-accounting",
                                              {"exact": False})
        assert len(plane.flight.dumps) == 1
        assert plane.flight.dumps[0]["reason"] == \
            "ledger drift: fleet-accounting"
        assert plane.flight.counts.get("ledger-drift") == 1

    def test_deterministic_under_seeded_faults(self):
        def one_run():
            tel = telemetry.get_telemetry()
            tel.reset()
            plane = ObservabilityPlane(interval=2000.0)
            tel.attach_plane(plane)
            try:
                service = build_fleet(
                    2, 2, 1,
                    faults=FaultPlan.standard_mix(seed=7),
                    retry=RetryPolicy(max_attempts=3,
                                      task_timeout=2_000.0),
                )
                result = service.run()
                return (
                    result.schedule_digest,
                    plane.sampler.taken,
                    dict(plane.flight.counts),
                    [d["reason"] for d in plane.flight.dumps],
                )
            finally:
                tel.detach_plane()
                tel.disable()

        # First run settles the shared trained pipelines (slow-path
        # promotion); the measured pair must then be identical.
        one_run()
        assert one_run() == one_run()


# -- SLO engine --------------------------------------------------------------


def _sample(t, counters=None, gauges=None, histograms=None, total=0.0):
    return {
        "seq": 0,
        "t": t,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
        "profile": {"total": total, "phases": {}},
    }


class TestSLOEngine:
    def test_objective_validation(self):
        with pytest.raises(ValueError, match="unknown SLO objective"):
            SLObjective(name="x", kind="nope", max_value=1.0)
        with pytest.raises(ValueError, match="needs a metric"):
            SLObjective(name="x", kind="gauge", max_value=1.0)
        with pytest.raises(ValueError, match="target"):
            SLObjective(name="x", kind="overhead", max_value=1.0,
                        target=0.0)
        for q in (0, 250, 90):
            with pytest.raises(ValueError, match="q must be one of"):
                SLObjective(name="x", kind="histogram_quantile",
                            metric="lag", max_value=1.0, q=q)
        with pytest.raises(ValueError, match="unknown SLObjective keys"):
            SLObjective.from_dict({"name": "x", "kind": "overhead",
                                   "max_value": 1.0, "bogus": 1})

    def test_config_round_trip(self, tmp_path):
        config = SLOConfig.default()
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = SLOConfig.load(str(path))
        assert loaded.to_dict() == config.to_dict()
        with pytest.raises(ValueError, match="unknown SLOConfig"):
            SLOConfig.from_dict({"objective": []})

    def test_budget_burn_arithmetic(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="g", kind="gauge", metric="depth",
                        max_value=1.0, target=0.5),
        ]))
        samples = [_sample(float(i), gauges={"depth": v})
                   for i, v in enumerate([0.0, 2.0, 0.0, 2.0])]
        obj = engine.evaluate(samples)["objectives"][0]
        assert obj["windows"] == 4
        assert obj["violations"] == 2
        assert obj["compliance"] == 0.5
        # burn = violation rate / error budget = 0.5 / 0.5
        assert obj["budget_burn"] == 1.0
        assert obj["met"] is True  # compliance == target exactly

    def test_zero_error_budget_burns_to_cap(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="g", kind="gauge", metric="depth",
                        max_value=1.0, target=1.0),
        ]))
        samples = [_sample(0.0, gauges={"depth": 5.0})]
        obj = engine.evaluate(samples)["objectives"][0]
        assert obj["budget_burn"] == SLOEngine.BURN_CAP
        assert obj["met"] is False

    def test_absent_metric_windows_do_not_count(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="g", kind="gauge", metric="depth",
                        max_value=1.0),
        ]))
        report = engine.evaluate([_sample(0.0), _sample(1.0)])
        obj = report["objectives"][0]
        assert obj["windows"] == 0
        assert obj["compliance"] == 1.0
        assert report["met"] is True

    def test_counter_window_uses_deltas(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="c", kind="counter_window", metric="events",
                        max_value=0.0, target=0.5),
        ]))
        cumulative = [0.0, 3.0, 3.0, 7.0]
        samples = [_sample(float(i), counters={"events": v})
                   for i, v in enumerate(cumulative)]
        obj = engine.evaluate(samples)["objectives"][0]
        # Window deltas 0, 3, 0, 4: two violating windows of four.
        assert obj["windows"] == 4
        assert obj["violations"] == 2
        assert obj["worst"] == 4.0

    def test_labeled_breakdown(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="c", kind="counter_window", metric="events",
                        max_value=0.0, target=0.5),
        ]))
        samples = [
            _sample(0.0, counters={'events{kind="a"}': 0.0}),
            _sample(1.0, counters={'events{kind="a"}': 2.0,
                                   'events{kind="b"}': 1.0}),
        ]
        obj = engine.evaluate(samples)["objectives"][0]
        assert obj["breakdown"]['events{kind="a"}']["violations"] == 1
        assert obj["breakdown"]['events{kind="b"}']["violations"] == 1

    def test_histogram_quantile_prefers_unlabeled_else_worst(self):
        engine = SLOEngine(SLOConfig(objectives=[
            SLObjective(name="h", kind="histogram_quantile", metric="lag",
                        q=99, max_value=10.0),
        ]))
        labeled = _sample(0.0, histograms={
            'lag{kind="a"}': {"p99": 5.0}, 'lag{kind="b"}': {"p99": 50.0},
        })
        obj = engine.evaluate([labeled])["objectives"][0]
        assert obj["worst"] == 50.0 and obj["violations"] == 1


# -- the plane on a real run -------------------------------------------------


class TestPlaneIntegration:
    def test_fleet_run_reconciles_exactly(self):
        plane = _plane(interval=2000.0)
        service = build_fleet(2, 2, 1)
        result = service.run()
        assert result.accounting["exact"]
        assert result.resilience["ledger_reconcile"]["exact"]
        assert result.slo is not None
        assert result.slo["sampler"]["samples"] == plane.sampler.taken
        assert plane.sampler.taken > 0
        # The fleet result surfaces the same plane through StatsReport.
        payload = result.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["slo"]["flight"]["events"] == plane.flight.seq

    def test_plane_dump_is_json_serializable(self, tmp_path):
        plane = _plane(interval=2000.0)
        service = build_fleet(1, 1, 1)
        service.run()
        path = tmp_path / "plane.json"
        plane.export(str(path))
        dump = json.loads(path.read_text())
        assert dump["kind"] == "plane-dump"
        assert dump["samples"]
        assert dump["slo"]["objectives"]

    def test_attach_detach(self):
        tel = telemetry.get_telemetry()
        plane = ObservabilityPlane()
        tel.attach_plane(plane)
        assert tel.enabled and tel.plane is plane
        assert "plane" in tel.snapshot()
        tel.detach_plane()
        assert tel.plane is None


# -- StatsReport v2 -> v3 ----------------------------------------------------


class TestSchemaV3:
    def test_v2_payload_loads_with_none_slo(self):
        v2 = {"schema_version": 2, "monitor": {"checks": 1},
              "context": {"kind": "solo"}}
        report = StatsReport.from_dict(v2)
        assert report.slo is None
        assert report.schema_version == 2

    def test_v3_round_trip(self):
        report = StatsReport(monitor={"checks": 1},
                             slo={"met": True, "objectives": []})
        again = StatsReport.from_dict(report.to_dict())
        assert again.slo == {"met": True, "objectives": []}
        assert again.schema_version == SCHEMA_VERSION

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            StatsReport.from_dict({"schema_version": SCHEMA_VERSION + 1,
                                   "monitor": {}})


# -- run reports -------------------------------------------------------------


class TestRunReports:
    def test_report_from_plane_dump(self):
        from repro.telemetry.report import render_report

        plane = _plane(interval=2000.0)
        service = build_fleet(1, 1, 1)
        service.run()
        payload = json.loads(json.dumps(plane.to_dict()))
        md = render_report(payload, fmt="markdown")
        assert "# FlowGuard run report" in md
        assert "## SLO objectives" in md
        assert "## Timeseries" in md
        html = render_report(payload, fmt="html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html

    def test_report_from_observability_bench(self):
        """A BENCH_observability-shaped payload titles each scenario's
        SLO section like every other report, so a search for "SLO
        objectives" (the CI smoke step's) finds it."""
        from repro.telemetry.report import render_report

        plane = _plane(interval=2000.0)
        service = build_fleet(1, 1, 1)
        result = service.run()
        payload = json.loads(json.dumps({
            "gates": {"transparent": True},
            "scenarios": {
                "clean": {
                    "tasks": result.tasks,
                    "quarantined": sorted(result.quarantined_pids),
                    "overhead": result.overhead,
                    "digest": "0" * 64,
                    "plane_dump": plane.to_dict(),
                },
            },
        }))
        md = render_report(payload, fmt="markdown")
        assert "# FlowGuard observability report" in md
        assert "## Scenario: clean" in md
        assert "## SLO objectives — clean" in md

    def test_report_rejects_unknown_payloads(self):
        from repro.telemetry.report import render_report

        with pytest.raises(ValueError, match="unrecognized"):
            render_report({"something": "else"})
        with pytest.raises(ValueError, match="unknown report format"):
            render_report({"kind": "plane-dump", "samples": []},
                          fmt="pdf")

    def test_sparkline_shapes(self):
        from repro.telemetry.report import sparkline

        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"
