"""One cycle meter: ``MonitorStats.charge`` is the only writer.

The structural tests parse ``src/`` and fail on any other write to the
charged accumulators (or to ``pmi_count``), on any surviving call to
the deleted profiler writers, and on any ``resilience.*`` metric
series obtained outside ``resilience/ledger.py`` (the degradation
ledger is the one record of a downgrade).  The run tests check that the
profiler's view over the charged cells folds back into the
``MonitorStats`` accumulators across the shapes the monitor runs in:
a solo server, a faulted fleet, a two-tenant service and an
undertrained server that takes the slow path.
"""

import ast
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments.common import (
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.itccfg.credits import CreditLabeledITC
from repro.osmodel import Kernel
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.ledger import EVENT_KINDS
from repro.service import TraceCheckService, builtin_serve_config
from repro.stats_report import StatsReport
from tests.meter_view import assert_view_matches_stats

SRC = Path(__file__).resolve().parent.parent / "src"

CHARGED = {"decode_cycles", "check_cycles", "other_cycles"}


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    tel = telemetry.get_telemetry()
    tel.disable()
    tel.reset()
    yield
    tel.disable()
    tel.reset()


def _src_functions():
    """Yield (path, enclosing qualified name, node) for every node."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                else:
                    inner = scope
                yield path, inner, child
                yield from walk(child, inner)

        yield from walk(tree, "")


def _written_attrs(node):
    if isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return []
    return [t for t in targets if isinstance(t, ast.Attribute)]


class TestSingleWriter:
    def test_only_charge_writes_charged_accumulators(self):
        offenders = []
        for path, scope, node in _src_functions():
            for target in _written_attrs(node):
                if target.attr in CHARGED:
                    offenders.append(f"{path.name}:{node.lineno} {scope}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in CHARGED
            ):
                offenders.append(f"{path.name}:{node.lineno} {scope}")
        assert offenders == []

    def test_no_profiler_writes(self):
        calls = []
        for path, scope, node in _src_functions():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("record", "set")
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "profiler"
            ):
                calls.append(f"{path.name}:{node.lineno} {scope}")
        assert calls == []

    def test_one_pmi_writer(self):
        writers = {
            scope for _, scope, node in _src_functions()
            for target in _written_attrs(node)
            if target.attr == "pmi_count"
            and not (isinstance(target.value, ast.Name)
                     and target.value.id == "self")
        }
        assert writers == {"FlowGuardMonitor.count_pmi"}

    def test_one_downgrade_writer(self):
        """Every ``resilience.*`` series comes from
        ``DegradationLedger.record``: an instrument lookup with such a
        name anywhere else in ``src/`` is a second count of a
        downgrade."""
        offenders = []
        for path, scope, node in _src_functions():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
            ):
                continue
            names = [
                arg.value
                for expr in node.args
                for arg in ast.walk(expr)
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
            ]
            if any(name.startswith("resilience.") for name in names) and (
                path.relative_to(SRC).as_posix()
                != "repro/resilience/ledger.py"
            ):
                offenders.append(f"{path.name}:{node.lineno} {scope}")
        assert offenders == []

        # Nor may the function that records a downgrade kind bump a
        # metric named after it (``fastpath.corrupt_segments`` beside
        # ``corrupt-segment``, ``service.shed`` beside ``shed-load``):
        # read the ledger's ``resilience.events`` series instead.  A
        # cycles total (``service.throttle_cycles``) measures cost, not
        # the count, and may stay.
        recorded = {}
        metrics = {}
        for path, scope, node in _src_functions():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            key = (path.name, scope)
            name = node.args[0].value
            if node.func.attr == "record" and name in EVENT_KINDS:
                recorded.setdefault(key, set()).add(name.split("-")[0])
            elif node.func.attr in ("counter", "gauge", "histogram"):
                metrics.setdefault(key, []).append((node.lineno, name))
        mirrors = []
        for key, words in recorded.items():
            for lineno, name in metrics.get(key, []):
                leaf = name.rsplit(".", 1)[-1]
                if leaf.endswith("_cycles"):
                    continue
                if words & {word.rstrip("s") for word in leaf.split("_")}:
                    mirrors.append(f"{key[0]}:{lineno} {key[1]} {name}")
        assert mirrors == []


# -- the view equals the accumulators -----------------------------------------


def _serve_nginx(labeled=None, sessions=4):
    pipeline = server_pipeline("nginx")
    kernel = Kernel()
    seed_server_fs(kernel)
    monitor = pipeline.make_monitor(kernel)
    proc = kernel.spawn("nginx")
    monitor.protect(
        proc,
        labeled if labeled is not None else pipeline.labeled,
        pipeline.ocfg,
    )
    for request in server_requests("nginx", sessions):
        proc.push_connection(request)
    kernel.run(proc)
    return monitor


class TestViewEqualsAccumulators:
    def test_solo_nginx(self):
        with telemetry.capture() as tel:
            monitor = _serve_nginx()
            stats = monitor.all_stats()
            assert_view_matches_stats(tel.profiler, stats)
        assert stats[0].checks > 0
        assert "monitor.fastpath" in tel.profiler.per_component()

    def test_undertrained_nginx_takes_slow_path(self):
        untrained = CreditLabeledITC(itc=server_pipeline("nginx").itc)
        with telemetry.capture() as tel:
            monitor = _serve_nginx(labeled=untrained, sessions=2)
            stats = monitor.all_stats()
            assert_view_matches_stats(tel.profiler, stats)
        assert sum(s.slow_path_runs for s in stats) > 0
        phases = tel.profiler.per_phase()
        assert phases["shadow-stack"] > 0 and phases["upcall"] > 0

    def test_faulted_fleet(self):
        config = FleetConfig(
            workers=2,
            ring_policy=RingPolicy.STALL,
            faults=FaultPlan.standard_mix(seed=5),
            retry=RetryPolicy(max_attempts=4, task_timeout=2000.0),
        )
        with telemetry.capture() as tel:
            service = FleetService(config)
            seed_server_fs(service.kernel)
            for name in ("nginx", "exim"):
                service.add_workload(
                    server_pipeline(name), server_requests(name, 1)
                )
            result = service.run()
            assert_view_matches_stats(
                tel.profiler, service.monitor.all_stats()
            )
        assert sum(result.resilience["faults"]["fired"].values()) > 0
        assert result.accounting["exact"]

    def test_two_tenant_service(self):
        config = builtin_serve_config("duo-isolation")
        with telemetry.capture() as tel:
            service = TraceCheckService(config)
            service.serve()
            assert_view_matches_stats(tel.profiler, [
                stats
                for rt in service.runtimes
                for stats in rt.fleet.monitor.all_stats()
            ])
        encoders = {
            component for component in tel.profiler.per_component()
            if component.startswith("ipt.encoder.")
        }
        for rt in service.runtimes:
            assert any(
                c.startswith(f"ipt.encoder.{rt.name}.pid") for c in encoders
            ), rt.name

    def test_disabled_run_registers_nothing(self):
        _serve_nginx(sessions=1)
        tel = telemetry.get_telemetry()
        assert tel.profiler.total() == 0.0
        assert tel.profiler.snapshot()["cells"] == {}


def test_v4_report_with_reconciliation_still_loads():
    payload = {
        "schema_version": 4,
        "context": {"kind": "solo", "server": "exim", "sessions": 2},
        "monitor": {
            "processes": [],
            "detections": [],
            "reconciliation": {
                "decode_cycles": {"profiler": 1.0, "stats": 1.0,
                                  "ok": True},
                "exact": True,
            },
        },
        "caches": None,
        "fleet": None,
        # Solo reports also carried the deleted per-kind counter audit
        # under ``ledger_reconcile``; it is ``None`` now.
        "resilience": {
            "faults": None,
            "degradations": {"events": 1, "counts": {"retry": 1},
                             "wasted_cycles": 0.0, "tenant": None},
            "ledger_reconcile": {
                "kinds": {"retry": {"ledger": 1, "counter": 1,
                                    "ok": True}},
                "exact": True,
                "counter_only": 0.0,
            },
        },
        "slo": None,
        "tenants": None,
        "telemetry": None,
    }
    report = StatsReport.from_dict(json.loads(json.dumps(payload)))
    assert report.schema_version == 4
    assert report.monitor["reconciliation"]["exact"] is True
    # The ``caches`` section is gone; older payloads still carry it.
    del payload["caches"]
    assert report.to_dict() == payload


def test_solo_report_has_no_ledger_balance():
    kernel = Kernel()
    seed_server_fs(kernel)
    monitor, proc = server_pipeline("exim").deploy(
        kernel, faults=FaultPlan.standard_mix(seed=42)
    )
    for request in server_requests("exim", 2):
        proc.push_connection(request)
    kernel.run(proc)
    report = StatsReport.from_monitor(monitor).to_dict()
    assert report["resilience"]["degradations"]["events"] > 0
    assert report["resilience"]["ledger_reconcile"] is None
