"""Multi-tenant serving front-end (``repro.service``).

Covers the serving contract end to end: serve-config round-trips
(unknown keys rejected, bundled examples in sync with the builtin
registry), token-bucket quota math, admission-control shed accounting,
the structural tenant-isolation invariants (a clean tenant next to a
noisy neighbor is bit-identical to its solo run and never sees the
neighbor's faults), hot O-CFG/ITC-CFG reload with drain-then-retire,
graceful drain, the StatsReport v4 ``tenants`` section, and the
``repro.api`` facade exports.
"""

import hashlib
import json
import os

import pytest

from repro import telemetry
from repro.loadgen import builtin_scenario
from repro.resilience import FaultPlan, RetryPolicy
from repro.service import (
    BUILTIN_SERVE_CONFIGS,
    SERVE_SCHEMA_VERSION,
    ServeConfig,
    TenantSpec,
    TenantRuntime,
    TokenBucket,
    TraceCheckService,
    builtin_serve_config,
    resolve_serve_config,
    run_service,
)
from repro.stats_report import SCHEMA_VERSION, StatsReport

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "tenants",
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry.get_telemetry()
    tel.reset()
    tel.disable()
    yield
    tel.reset()
    tel.disable()


# -- serve-config serialisation ----------------------------------------------


def test_serve_config_round_trip():
    config = builtin_serve_config("duo-isolation")
    clone = ServeConfig.from_dict(
        json.loads(json.dumps(config.to_dict()))
    )
    assert clone == config


def test_serve_config_unknown_key_rejected():
    data = builtin_serve_config("duo-isolation").to_dict()
    data["typo_key"] = 1
    with pytest.raises(ValueError, match="typo_key"):
        ServeConfig.from_dict(data)


def test_tenant_spec_unknown_key_rejected():
    data = TenantSpec(name="a").to_dict()
    data["quota"] = 0.5
    with pytest.raises(ValueError, match="quota"):
        TenantSpec.from_dict(data)


def test_newer_serve_schema_rejected():
    data = builtin_serve_config("duo-isolation").to_dict()
    data["schema_version"] = SERVE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="newer"):
        ServeConfig.from_dict(data)


def test_serve_config_validation():
    with pytest.raises(ValueError, match="at least one"):
        ServeConfig(tenants=()).validate()
    with pytest.raises(ValueError, match="duplicate"):
        ServeConfig(
            tenants=(TenantSpec(name="a"), TenantSpec(name="a"))
        ).validate()
    with pytest.raises(ValueError, match="name"):
        TenantSpec(name="bad name!").validate()
    with pytest.raises(ValueError, match="quota_rate"):
        TenantSpec(name="a", quota_rate=0.0).validate()
    with pytest.raises(ValueError, match="connections"):
        TenantSpec(name="a", connections=0).validate()


def test_tenant_spec_nested_faults_and_retry_round_trip():
    spec = TenantSpec(
        name="faulty",
        faults=FaultPlan.standard_mix(seed=3),
        retry=RetryPolicy(max_attempts=2, task_timeout=1000.0),
        seed=7,
    )
    clone = TenantSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    )
    assert clone == spec
    assert clone.resolve().faults == spec.faults
    assert clone.resolve().retry == spec.retry
    assert clone.resolve().seed == 7


def test_bundled_examples_match_builtins():
    bundled = {
        name[:-len(".json")]
        for name in os.listdir(EXAMPLES) if name.endswith(".json")
    }
    assert bundled == set(BUILTIN_SERVE_CONFIGS)
    for name in sorted(bundled):
        loaded = ServeConfig.load(
            os.path.join(EXAMPLES, f"{name}.json")
        )
        assert loaded == builtin_serve_config(name), name


def test_resolve_serve_config(tmp_path):
    assert resolve_serve_config("smoke") == builtin_serve_config("smoke")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(builtin_serve_config("reload").to_dict()))
    assert resolve_serve_config(str(path)) == builtin_serve_config(
        "reload"
    )
    with pytest.raises(ValueError, match="no such serve config"):
        resolve_serve_config("no-such-config")


# -- quota -------------------------------------------------------------------


class TestTokenBucket:
    def test_unthrottled_never_stalls(self):
        bucket = TokenBucket(rate=1.0)
        assert not bucket.armed
        assert bucket.charge(10_000.0) == 0.0
        assert bucket.throttles == 0

    def test_deficit_charged_exactly(self):
        bucket = TokenBucket(rate=0.5)
        # Spending S at rate r owes a stall of S*(1-r)/r.
        assert bucket.charge(1000.0) == pytest.approx(1000.0)
        assert bucket.tokens == 0.0
        assert bucket.throttle_cycles == pytest.approx(1000.0)

    def test_burst_absorbs_before_throttling(self):
        bucket = TokenBucket(rate=0.5, burst=500.0)
        assert bucket.charge(1000.0) == 0.0   # 500 burst covers it
        assert bucket.charge(1000.0) == pytest.approx(1000.0)

    def test_steady_state_utilisation_converges_to_rate(self):
        bucket = TokenBucket(rate=0.25)
        executed = stalled = 0.0
        for _ in range(50):
            executed += 800.0
            stalled += bucket.charge(800.0)
        assert executed / (executed + stalled) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=0.5, burst=-1.0)


# -- serving: isolation, reload, drain ---------------------------------------


def _clean_solo():
    clean = builtin_serve_config("duo-isolation").tenants[0]
    return run_service(ServeConfig(name="solo", tenants=(clean,)))


class TestServing:
    def test_smoke_config_runs_exact(self):
        result = run_service(builtin_serve_config("smoke"))
        report = result.tenants["acme"]
        assert report["offered"] == report["completed"] == 4
        assert report["accounting_exact"] and report["ledger_exact"]
        assert report["dropped_checks"] == 0
        assert result.events["acme"][-1]["type"] == "done"
        verdicts = [e for e in result.events["acme"]
                    if e["type"] == "verdict"]
        assert len(verdicts) == report["checks"]

    def test_clean_tenant_bit_identical_next_to_noisy_neighbor(self):
        solo = _clean_solo()
        duo = run_service(builtin_serve_config("duo-isolation"))
        assert (solo.tenants["clean"]["digest"]
                == duo.tenants["clean"]["digest"])
        assert (solo.tenants["clean"]["latency"]
                == duo.tenants["clean"]["latency"])

    def test_noisy_faults_never_leak_into_clean_ledger(self):
        duo = run_service(builtin_serve_config("duo-isolation"))
        clean = duo.tenants["clean"]
        noisy = duo.tenants["noisy"]
        fault_kinds = {"corrupt-drain", "truncate-drain",
                       "worker-crash", "worker-hang", "retry",
                       "task-timeout", "hedge", "dead-letter"}
        assert not fault_kinds & set(clean["degradations"])
        assert fault_kinds & set(noisy["degradations"])
        # Throttle stalls land only in the throttled tenant's books.
        assert clean["quota"]["throttles"] == 0
        assert noisy["quota"]["throttles"] > 0
        assert "throttle" in noisy["degradations"]
        assert clean["accounting_exact"] and clean["ledger_exact"]
        assert noisy["accounting_exact"] and noisy["ledger_exact"]

    def test_service_run_is_deterministic(self):
        a = run_service(builtin_serve_config("duo-isolation"))
        b = run_service(builtin_serve_config("duo-isolation"))
        for name in a.tenants:
            assert a.tenants[name]["digest"] == b.tenants[name]["digest"]

    def test_hot_reload_drops_nothing_and_retires_old_version(self):
        result = run_service(builtin_serve_config("reload"))
        report = result.tenants["rolling"]
        assert report["reloads"]["count"] == 1
        assert report["reloads"]["undrained"] == 0
        assert report["dropped_checks"] == 0
        assert report["completed"] == report["offered"]
        assert report["accounting_exact"] and report["ledger_exact"]
        rt_again = run_service(builtin_serve_config("reload"))
        assert report["digest"] == rt_again.tenants["rolling"]["digest"]

    def test_reload_registry_versions_recorded(self):
        spec = builtin_serve_config("reload").tenants[0]
        rt = TenantRuntime(spec)
        rt.run_to_completion()
        versions = rt.registry.versions
        assert versions and all(
            v.retired_at is not None for v in versions
        )
        assert all(v.version == 2 for v in versions)

    def test_graceful_drain_applies_inflight_checks(self):
        service = TraceCheckService(builtin_serve_config("smoke"))
        service.step()
        service.step()
        service.request_drain()
        result = service.serve()
        assert result.drained
        events = result.events["acme"]
        assert events[-1]["type"] == "drained"
        report = result.tenants["acme"]
        verdicts = [e for e in events if e["type"] == "verdict"]
        assert len(verdicts) == report["checks"]
        assert report["dropped_checks"] == 0
        assert report["accounting_exact"] and report["ledger_exact"]

    def test_shed_load_accounted_in_ledger(self):
        result = run_service(builtin_serve_config("quota-shed"))
        capped = result.tenants["capped"]
        uncapped = result.tenants["uncapped"]
        spec = builtin_serve_config("quota-shed").tenants[1]
        offered_uncapped = (
            builtin_scenario(spec.scenario).sessions * spec.connections
        )
        assert capped["shed"] == offered_uncapped - spec.max_sessions
        assert capped["offered"] == spec.max_sessions
        assert uncapped["shed"] == 0
        assert "shed-load" in capped["degradations"]
        assert capped["ledger_exact"]

    def test_service_serves_exactly_once(self):
        service = TraceCheckService(builtin_serve_config("smoke"))
        service.serve()
        with pytest.raises(RuntimeError, match="exactly once"):
            service.serve()

    def test_tenant_labels_on_telemetry_series(self):
        tel = telemetry.get_telemetry()
        tel.reset()
        tel.enable()
        try:
            run_service(builtin_serve_config("quota-shed"))
            snapshot = tel.metrics.snapshot()
        finally:
            tel.disable()
        assert any(
            'tenant="capped"' in series
            for series in snapshot["counters"]
        ), sorted(snapshot["counters"])
        shed = [s for s in snapshot["counters"]
                if s.startswith('resilience.events{kind="shed-load"')]
        assert shed and all('tenant="capped"' in s for s in shed)


# -- identity pins: the round-robin loop and the worker scan ----------------


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: sha256 prefixes of ``ServiceResult.to_dict()`` and of its per-tenant
#: events for every builtin config, taken from the asyncio front-end
#: and the segment-tree worker index the round-robin loop and the
#: worker scan replaced.
SERVE_PINS = {
    "smoke": ("826b13629281682d", "cd6e6b9a1ad25c18"),
    "duo-isolation": ("4fe432244fde1b95", "b7ef8b909a32783e"),
    "quota-shed": ("7cf87713bd357cd3", "07d952ddc76d7146"),
    "reload": ("036b9a9c62e07d8b", "10fddad17b37a67f"),
    "open-mix": ("b0998294954bb663", "20fa0b5170e12abc"),
}


class TestServeIdentity:
    def test_pins_cover_every_builtin(self):
        assert set(SERVE_PINS) == set(BUILTIN_SERVE_CONFIGS)

    @pytest.mark.parametrize("name", sorted(SERVE_PINS))
    def test_builtin_config_pinned(self, name):
        result = run_service(builtin_serve_config(name))
        assert (
            _digest(result.to_dict()), _digest(result.events)
        ) == SERVE_PINS[name]

    def test_two_round_drain_pinned(self):
        """Two rounds, then a drain: the run the asyncio front-end
        made with a drain requested after two ``sleep(0)`` turns."""
        service = TraceCheckService(builtin_serve_config("smoke"))
        assert service.step() and service.step()
        service.request_drain()
        result = service.serve()
        [acme] = [rt for rt in service.runtimes if rt.name == "acme"]
        assert acme.fleet.scheduler.rounds == 2
        events = result.events["acme"]
        assert events[-1]["type"] == "drained"
        assert sum(e["type"] == "verdict" for e in events) == 8
        assert (_digest(result.to_dict()), _digest(result.events)) == (
            "b770e8ef1763965c", "40df868ea52b4c0a"
        )

    def test_plane_samples_pinned(self):
        """Pinned after the warm-up ``repro experiments service`` runs,
        so the pin holds alone and in any suite order."""
        from repro.loadgen.engine import warm_pipelines
        from repro.telemetry.plane import ObservabilityPlane

        warm_pipelines(builtin_scenario("smoke"))
        warm_pipelines(builtin_scenario("faulted-closed"))
        tel = telemetry.get_telemetry()
        plane = ObservabilityPlane(interval=2000.0)
        tel.attach_plane(plane)
        try:
            result = TraceCheckService(
                builtin_serve_config("duo-isolation"), plane=plane
            ).serve()
        finally:
            tel.detach_plane()
        samples = list(plane.sampler.samples)
        assert len(samples) == 20
        assert _digest(samples) == "66b4fa21c53bd96c"
        assert (
            _digest(result.to_dict()), _digest(result.events)
        ) == SERVE_PINS["duo-isolation"]


# -- StatsReport v3 -> v4 ----------------------------------------------------


class TestSchemaV4:
    def test_v2_payload_loads_with_none_tenants(self):
        v2 = {"schema_version": 2, "monitor": {"checks": 1},
              "context": {"kind": "solo"}}
        report = StatsReport.from_dict(v2)
        assert report.tenants is None
        assert report.schema_version == 2

    def test_v3_payload_loads_with_none_tenants(self):
        v3 = {"schema_version": 3, "monitor": {"checks": 1},
              "slo": {"met": True, "objectives": []}}
        report = StatsReport.from_dict(v3)
        assert report.tenants is None
        assert report.slo == {"met": True, "objectives": []}

    def test_v4_round_trip(self):
        tenants = {"acme": {"offered": 4, "digest": "abc"}}
        report = StatsReport(monitor={"checks": 1}, tenants=tenants)
        again = StatsReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert again.tenants == tenants
        assert again.schema_version == SCHEMA_VERSION
        assert SCHEMA_VERSION == 4

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            StatsReport.from_dict(
                {"schema_version": SCHEMA_VERSION + 1, "monitor": {}}
            )


# -- facade ------------------------------------------------------------------


def test_api_exports_service_surface():
    import repro.api as api

    for name in ("ServeConfig", "TenantSpec", "TraceCheckService",
                 "run_service", "resolve_serve_config"):
        assert name in api.__all__
        assert getattr(api, name) is not None


def test_percentile_relocation_warns_from_fleet_service():
    """``percentile`` lives only in repro.telemetry.metrics: the old
    fleet.service import fails, and the fleet's lag figures use the
    canonical nearest-rank helper."""
    from repro.telemetry.metrics import percentile

    with pytest.raises(ImportError, match="percentile"):
        from repro.fleet.service import percentile as _  # noqa: F401
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 99) == 5.0
