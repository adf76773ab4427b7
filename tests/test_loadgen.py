"""Tests for the load-generation harness (repro.loadgen).

Pins the harness's contracts: scenario JSON round-trips (unknown keys
rejected, bundled examples in sync with the builtin registry), the
max-throughput-under-SLO bisection converging within its probe budget
on synthetic latency curves, deterministic seeded request mixes (and
the legacy constant workload staying byte-identical when unseeded),
closed- vs open-loop run digests (same seed reproduces, the two modes
measurably differ), and a small real load point's ledger exactness.
"""

import json
import os

import pytest

from repro.experiments.common import server_requests
from repro.loadgen import (
    BUILTIN_SCENARIOS,
    LoadScenario,
    builtin_scenario,
    mix_requests,
    resolve_scenario,
    run_load_point,
    search_max_under_slo,
    slo_search,
)
from repro.loadgen.search import probe_budget
from repro.loadgen.sweep import knee_index, monotone_to_knee

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "scenarios",
)


# -- scenario serialisation ---------------------------------------------------


def test_scenario_round_trip():
    scenario = builtin_scenario("faulted-closed")
    clone = LoadScenario.from_dict(
        json.loads(json.dumps(scenario.to_dict()))
    )
    assert clone == scenario


def test_scenario_unknown_key_rejected():
    data = builtin_scenario("nginx-closed").to_dict()
    data["typo_key"] = 1
    with pytest.raises(ValueError, match="typo_key"):
        LoadScenario.from_dict(data)


@pytest.mark.parametrize("percentile", [0, 250, -1])
def test_scenario_slo_percentile_out_of_range_rejected(percentile):
    data = builtin_scenario("nginx-closed").to_dict()
    data["slo_percentile"] = percentile
    with pytest.raises(ValueError, match="slo_percentile"):
        LoadScenario.from_dict(data)


def test_scenario_stale_engine_key_rejected():
    # The decode-engine knob is gone; an old scenario file that still
    # names it must fail loudly rather than be silently ignored.
    data = builtin_scenario("nginx-closed").to_dict()
    assert "engine" not in data
    data["engine"] = "columnar"
    with pytest.raises(ValueError, match="engine"):
        LoadScenario.from_dict(data)


def test_scenario_validation():
    with pytest.raises(ValueError, match="mode"):
        LoadScenario(mode="half-open").validate()
    with pytest.raises(ValueError, match="server"):
        LoadScenario(servers=("apache",)).validate()
    with pytest.raises(ValueError, match="attack_count"):
        LoadScenario(attack_count=1).validate()
    with pytest.raises(ValueError, match="nginx"):
        LoadScenario(
            servers=("exim",), attack_kind="rop", attack_count=1
        ).validate()
    with pytest.raises(ValueError, match="upper"):
        LoadScenario(
            connections_lower_bound=4, connections_upper_bound=2
        ).validate()


def test_scenario_save_load(tmp_path):
    path = str(tmp_path / "scenario.json")
    scenario = builtin_scenario("mixed-open")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh)
    assert LoadScenario.load(path) == scenario
    assert resolve_scenario(path) == scenario


def test_resolve_scenario_builtin_and_missing():
    assert resolve_scenario("smoke") == builtin_scenario("smoke")
    with pytest.raises(ValueError, match="no such scenario"):
        resolve_scenario("no-such-scenario")


def test_bundled_examples_match_builtins():
    bundled = {
        name[:-len(".json")]
        for name in os.listdir(EXAMPLES) if name.endswith(".json")
    }
    assert bundled == set(BUILTIN_SCENARIOS)
    for name in sorted(bundled):
        loaded = LoadScenario.load(
            os.path.join(EXAMPLES, f"{name}.json")
        )
        assert loaded == builtin_scenario(name), name


def test_with_seed_reseeds_fault_plan():
    scenario = builtin_scenario("faulted-closed").with_seed(9)
    assert scenario.seed == 9
    assert scenario.faults.seed == 9


# -- binary search ------------------------------------------------------------


def _synthetic_probe(latency_by_c, slo):
    calls = []

    def probe(c):
        calls.append(c)
        return latency_by_c[c], latency_by_c[c] <= slo

    return probe, calls


def test_search_finds_knee_on_synthetic_curve():
    # Latency grows with load; SLO 100 admits c <= 11 of [1, 16].
    curve = {c: 8 * c + 10 for c in range(1, 17)}
    probe, calls = _synthetic_probe(curve, slo=100)
    best_c, best, trace = search_max_under_slo(probe, 1, 16)
    assert best_c == 11
    assert best == curve[11]
    assert len(calls) <= probe_budget(1, 16)
    assert [row["connections"] for row in trace] == calls
    assert all(row["met"] == (curve[row["connections"]] <= 100)
               for row in trace)


def test_search_probe_budget_is_log2():
    assert probe_budget(1, 16) == 5
    assert probe_budget(1, 8) == 4
    assert probe_budget(3, 3) == 1


def test_search_all_points_miss():
    curve = {c: 1_000 for c in range(1, 9)}
    probe, _ = _synthetic_probe(curve, slo=100)
    best_c, best, trace = search_max_under_slo(probe, 1, 8)
    assert best_c is None and best is None
    assert trace and not any(row["met"] for row in trace)


def test_search_all_points_meet():
    curve = {c: 1 for c in range(1, 9)}
    probe, _ = _synthetic_probe(curve, slo=100)
    best_c, _, _ = search_max_under_slo(probe, 1, 8)
    assert best_c == 8


def test_search_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        search_max_under_slo(lambda c: (c, True), 5, 2)


def test_knee_and_monotonicity_helpers():
    class Point:
        def __init__(self, throughput):
            self.throughput = throughput

    rising = [Point(10.0), Point(20.0), Point(25.0), Point(24.0)]
    assert knee_index(rising) == 2
    assert monotone_to_knee(rising)
    dipping = [Point(10.0), Point(5.0), Point(25.0), Point(24.0)]
    assert knee_index(dipping) == 2
    assert not monotone_to_knee(dipping)


# -- deterministic request mixes ----------------------------------------------


def test_mix_requests_deterministic():
    a = mix_requests("nginx", 6, seed=3)
    b = mix_requests("nginx", 6, seed=3)
    assert a == b
    assert mix_requests("nginx", 6, seed=4) != a


def test_server_requests_seeded_and_legacy():
    legacy = server_requests("nginx", 4)
    assert legacy == server_requests("nginx", 4, seed=None)
    assert len(set(legacy)) == 1  # the constant ab-style workload
    seeded = server_requests("nginx", 4, seed=5)
    assert seeded == server_requests("nginx", 4, seed=5)
    assert seeded != legacy


# -- real load points (small, but end to end) ---------------------------------


def _smoke(**overrides):
    scenario = builtin_scenario("smoke")
    if overrides:
        from dataclasses import replace

        scenario = replace(scenario, **overrides)
    return scenario


def test_closed_loop_point_is_exact_and_complete():
    point = run_load_point(_smoke(), 2)
    assert point.offered == point.completed == 4
    assert point.accounting_exact and point.ledger_exact
    assert point.throughput > 0
    assert point.latency["count"] == 4
    assert point.latency["p50"] <= point.latency["p99"]
    assert point.idle_cycles == 0.0  # closed loop never sleeps


def test_closed_loop_digest_reproducible():
    a = run_load_point(_smoke(), 2)
    b = run_load_point(_smoke(), 2)
    assert a.digest == b.digest
    assert a.throughput == b.throughput


def test_open_loop_differs_from_closed():
    open_scenario = _smoke(name="smoke-open", mode="open")
    a = run_load_point(open_scenario, 2)
    b = run_load_point(open_scenario, 2)
    assert a.digest == b.digest  # same seed reproduces
    assert a.idle_cycles > 0.0  # blocking accepts waited for arrivals
    closed = run_load_point(_smoke(), 2)
    assert a.digest != closed.digest  # the modes measure differently


def test_slo_search_on_smoke_scenario():
    result = slo_search(_smoke())
    assert result.converged
    assert result.probes <= probe_budget(1, 2)
    assert result.best_connections in (None, 1, 2)
    if result.best_connections is not None:
        assert result.best.slo_value <= result.slo_latency


# -- the knee floor gate ------------------------------------------------------


class TestKneeFloorGate:
    """``loadgen.gates`` judges the knee the same run measured against
    the committed floor, on full sweeps only: a ``--quick`` sweep's
    knee is not comparable to the floor."""

    @staticmethod
    def _gates(throughput, quick):
        from repro.experiments import loadgen

        point = {"detection_rate": 1.0, "false_quarantines": 0,
                 "digest": "d"}
        search = {"converged": True, "probes": 1, "best_connections": 3}
        return loadgen.gates({
            "quick": quick,
            "scenario": {"connections_lower_bound": 1,
                         "connections_upper_bound": 8},
            "monotone_to_knee": True,
            "knee": {"connections": 3, "throughput": throughput},
            "search": search,
            "search_seed1": dict(search),
            "saturation": {"run_a": point, "run_b": dict(point)},
        })

    def test_quick_knee_below_floor_not_judged(self):
        from repro.experiments.trajectory import KNEE_FLOOR

        gates = self._gates(KNEE_FLOOR - 7.9, quick=True)
        assert "knee_at_or_above_floor" not in gates
        assert all(value is True for value in gates.values())

    def test_full_knee_below_floor_fails(self):
        from repro.experiments.trajectory import KNEE_FLOOR

        gates = self._gates(KNEE_FLOOR - 0.1, quick=False)
        assert gates["knee_at_or_above_floor"] is False

    def test_full_knee_at_or_above_floor_passes(self):
        from repro.experiments.trajectory import KNEE_FLOOR

        for knee in (KNEE_FLOOR, KNEE_FLOOR + 1.0):
            gates = self._gates(knee, quick=False)
            assert gates["knee_at_or_above_floor"] is True


# -- the planted exploit ------------------------------------------------------


def test_rop_request_recon_is_not_traffic():
    """A cold ``rop_request()`` under an attached plane: the attacker's
    recon (a whole nginx run) adds to no counter and takes no sample,
    and the plane and telemetry are as they were afterwards."""
    from repro import telemetry
    from repro.loadgen import rop_request

    tel = telemetry.get_telemetry()
    enabled = tel.enabled
    tel.reset()
    plane = telemetry.ObservabilityPlane(interval=500.0)
    tel.attach_plane(plane)
    try:
        rop_request.cache_clear()
        counters = tel.metrics.snapshot()
        exploit = rop_request()
        assert tel.metrics.snapshot() == counters
        assert plane.sampler.taken == 0
        assert tel.plane is plane and tel.enabled
    finally:
        tel.detach_plane()
        if not enabled:
            tel.disable()
        tel.reset()
    assert rop_request() == exploit
