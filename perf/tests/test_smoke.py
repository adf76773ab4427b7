"""Smoke tests for the benchmark harness, in ``--quick`` mode.

Run from the repository root: ``python -m pytest perf/tests -q``.
They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flowbench.bench import CHARGED
from flowbench.hostspeed import HostClock, host_speed
from flowbench.workloads import CheckReplay

import run as harness

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def results():
    """Every workload twice untraced (seeds 0 and 1) plus once traced,
    quick size."""
    out = PERF / "out" / "smoke-results.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())


def test_every_metric_is_emitted_with_its_unit(results):
    assert {w["name"] for w in CONFIG["workloads"]} == set(
        results["workloads"]
    )
    for name, workload in results["workloads"].items():
        for spec in CONFIG["end_to_end"]:
            metric = workload["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"], (name, spec)
            assert metric["samples"] >= 1, (name, spec)
            assert metric["median"] > 0, (name, spec)
        for spec in CONFIG["per_layer"]:
            assert workload["per_layer"][spec["name"]]["unit"] == \
                spec["unit"], (name, spec)


def test_charged_metrics_and_digests_repeat_across_seeds(results):
    for name, workload in results["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert workload["failed"] == 0
        for metric in CHARGED:
            values = workload["metrics"][metric]["values"]
            assert len(values) == 2 and len(set(values)) == 1, (name, metric)


def test_tampered_replay_verdict_fails():
    replay = CheckReplay(quick=True)
    assert replay.setup() == []
    clean = replay.run_unit(0)
    assert clean.errors == [] and clean.failed == 0
    capture = replay.captures[0]
    capture.verdicts[0] = next(
        v for v in type(capture.verdicts[0]) if v is not capture.verdicts[0]
    )
    tampered = replay.run_unit(0)
    assert tampered.failed == 1
    assert any("differ from the capture" in e for e in tampered.errors)


def test_host_clock_leaves_slices_out_of_work_time():
    host = HostClock()
    host.start()
    try:
        start_work, start_cpu = host.work_time(), time.process_time()
        start_slices = host.slice_s
        while time.process_time() - start_cpu < 0.3:
            sum(range(1000))
        work = host.work_time() - start_work
        cpu = time.process_time() - start_cpu
        sliced = host.slice_s - start_slices
    finally:
        host.stop()
    assert len(host.slices) >= 5
    # The slices take about a tenth of the CPU time, none of the work's.
    assert work == pytest.approx(cpu - sliced, abs=1e-3)
    assert 0.03 < sliced / cpu < 0.2
    assert 0 < host_speed(host.slices) <= 1.5


def _run_record(digest, ops_per_mcycle):
    metrics = {name: {"value": 1.0, "unit": "x"} for name in CHARGED}
    metrics["ops_per_mcycle"]["value"] = ops_per_mcycle
    return {
        "workload": "nginx-knee", "trace": False, "returncode": 0,
        "detail": {"digest": digest, "errors": [], "samples": {},
                   "environment": None},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": metrics},
    }


def test_runs_that_disagree_fail():
    same = harness.summarize(
        [_run_record("a", 1.0), _run_record("a", 1.0)], CHARGED)
    assert same["nginx-knee"]["correct"]
    digest = harness.summarize(
        [_run_record("a", 1.0), _run_record("b", 1.0)], CHARGED)
    assert not digest["nginx-knee"]["correct"]
    charged = harness.summarize(
        [_run_record("a", 1.0), _run_record("a", 1.001)], CHARGED)
    assert any("ops_per_mcycle" in p
               for p in charged["nginx-knee"]["problems"])


def _results(values, digest="d", **workload):
    metrics = {}
    for spec in CONFIG["end_to_end"]:
        vals = values.get(spec["name"], [1.0, 1.0, 1.0])
        ordered = sorted(vals)
        metrics[spec["name"]] = {
            "median": ordered[1], "q1": ordered[0], "q3": ordered[2],
            "spread": (ordered[2] - ordered[0]) / ordered[1],
            "unit": spec["unit"], "samples": 3, "values": vals,
        }
    workloads = {
        w["name"]: {"metrics": metrics, "digest": digest, "correct": True,
                    "problems": [], "failed": 0}
        for w in CONFIG["workloads"]
    }
    workloads["nginx-knee"].update(workload)
    return {"kind": "flowbench-results", "workloads": workloads}


def _compare(tmp_path, base, new):
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps(base))
    new_path.write_text(json.dumps(new))
    return _run("--compare", str(base_path), str(new_path))


def test_compare_judges_each_metric_by_its_bound(tmp_path):
    proc = _compare(tmp_path, _results({}), _results({
        "ops_per_ref_s": [0.5, 0.5, 0.5],        # halved: regressed
        "latency_p50_kcycles": [0.5, 1.0, 1.5],   # wide spread
        "overhead_pct": [0.5, 0.5, 0.5],          # halved: better
    }, digest="e"))
    assert proc.returncode == 1
    rows = {
        line.split()[1]: line for line in proc.stdout.splitlines()[1:]
        if line.startswith("nginx-knee")
    }
    assert rows["ops_per_ref_s"].endswith("REGRESSED")
    assert rows["latency_p50_kcycles"].endswith("unresolved")
    assert rows["overhead_pct"].endswith("better")
    assert rows["setup_s"].endswith("unchanged")
    assert "DIFFER" in proc.stdout


def test_compare_of_equal_results_passes(tmp_path):
    proc = _compare(tmp_path, _results({}), _results({}))
    assert proc.returncode == 0, proc.stdout
    assert "0 regressed, 0 failed" in proc.stdout


@pytest.mark.parametrize("broken", [
    {"correct": False, "problems": ["detection rate 0.5"]},
    {"failed": 3},
    {"metrics": {}},
])
def test_compare_fails_a_broken_run(tmp_path, broken):
    proc = _compare(tmp_path, _results({}), _results({}, **broken))
    assert proc.returncode == 1, proc.stdout
    assert "FAILED" in proc.stdout


def test_compare_fails_a_missing_workload(tmp_path):
    new = _results({})
    del new["workloads"]["check-replay"]
    proc = _compare(tmp_path, _results({}), new)
    assert proc.returncode == 1
    assert "check-replay" in proc.stdout and "missing" in proc.stdout


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark cannot build the program."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "nginx-knee", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
