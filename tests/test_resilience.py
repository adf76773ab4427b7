"""The resilience plane: deterministic fault injection, exact
retry/backoff, graceful degradation, and the public API facade.

The contracts under test, per subsystem:

- **faults** — seeded plans are bit-reproducible: every site draws from
  its own RNG stream, so two injectors running the same plan produce
  identical fire sequences and identical mangled drain bytes, and extra
  draws on one site never perturb another.
- **retry** — the backoff schedule is closed-form and asserted to the
  cycle, including the dispatcher's actual dispatch times under
  scheduled crashes, hedged hangs, and dead-lettering.
- **degradation** — a corrupted PSB segment stops the tail decode,
  which re-syncs at the next PSB and never fabricates a violation;
  fast-path fallbacks
  deliver the slow-path oracle's verdict (clean traffic passes, the
  attack matrix still detects).
- **ledger** — the ledger's wasted cycles balance exactly against the
  dispatcher's ``retry_cycles``, and a tampered tally fails the
  balance.
- **facade** — ``repro.api`` imports clean under
  ``-W error::DeprecationWarning``, and the package roots export no
  relocated names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.api import RunConfig
from repro.attacks import build_rop_request, run_recon
from repro.fleet.dispatcher import FleetDispatcher
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.fleet.workers import CheckTask, SimulatedWorkerPool
from repro.ipt.columnar import psb_offsets
from repro.itccfg import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker, Verdict
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel, ProcessState
from repro.pipeline import FlowGuardPipeline
from repro.resilience import (
    FAULT_SITES,
    DegradationLedger,
    FaultInjector,
    FaultPlan,
    FaultSite,
    RetryPolicy,
)
from repro.workloads import build_libsim, build_nginx, build_vdso, nginx_request

LIBS = {"libsim.so": build_libsim()}


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        LIBS,
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            nginx_request("/x", "POST", b"small-body"),
            nginx_request("/y", "HEAD"),
        ],
        mode="socket",
    )


@pytest.fixture(scope="module")
def recon():
    return run_recon(build_nginx(), LIBS, vdso=build_vdso())


@pytest.fixture(scope="module")
def trace(pipeline):
    """A real captured nginx ToPA snapshot plus the process image."""
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    monitor, proc = pipeline.deploy(kernel)
    for _ in range(4):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    pp = monitor.protected_for(proc)
    pp.encoder.flush()
    return bytes(pp.topa.snapshot()), proc.image


class TestFaultPlanDeterminism:
    """Same plan, same seed => bit-identical fault stream."""

    def test_fire_streams_bit_identical(self):
        plan = FaultPlan.standard_mix(seed=5)
        a, b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [a.fire(site) for _ in range(100) for site in FAULT_SITES]
        seq_b = [b.fire(site) for _ in range(100) for site in FAULT_SITES]
        assert seq_a == seq_b
        assert a.stats() == b.stats()
        assert sum(a.fired.values()) > 0

    def test_mangle_bit_identical(self):
        plan = FaultPlan(
            seed=11,
            corrupt_drain=FaultSite(probability=0.5),
            truncate_drain=FaultSite(probability=0.5),
        )
        payload = bytes(range(256)) * 4
        a, b = FaultInjector(plan), FaultInjector(plan)
        outs_a = [a.mangle(payload) for _ in range(50)]
        outs_b = [b.mangle(payload) for _ in range(50)]
        assert outs_a == outs_b
        assert any(events for _, events in outs_a)

    def test_sites_draw_independent_streams(self):
        """Extra consultations of one site never shift another's."""
        plan = FaultPlan(
            seed=11,
            corrupt_drain=FaultSite(probability=0.5),
            drop_pmi=FaultSite(probability=0.5),
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        for _ in range(25):
            b.fire("drop_pmi")
        assert [a.fire("corrupt_drain") for _ in range(50)] == [
            b.fire("corrupt_drain") for _ in range(50)
        ]

    def test_seed_perturbs_streams(self):
        base = FaultPlan(corrupt_drain=FaultSite(probability=0.5))
        a = FaultInjector(base.with_seed(1))
        b = FaultInjector(base.with_seed(2))
        assert [a.fire("corrupt_drain") for _ in range(64)] != [
            b.fire("corrupt_drain") for _ in range(64)
        ]

    def test_scheduled_site_fires_exactly_at_indices(self):
        plan = FaultPlan(worker_crash=FaultSite(at=(0, 2, 5)))
        inj = FaultInjector(plan)
        fired = [inj.fire("worker_crash") for _ in range(8)]
        assert fired == [True, False, True, False, False, True, False,
                         False]

    def test_limit_caps_firings_but_stream_advances(self):
        plan = FaultPlan(drop_pmi=FaultSite(probability=1.0, limit=2))
        inj = FaultInjector(plan)
        assert sum(inj.fire("drop_pmi") for _ in range(10)) == 2
        assert inj.fired["drop_pmi"] == 2
        assert inj.consulted["drop_pmi"] == 10

    def test_corrupt_stamp_is_loud_and_whole(self):
        """The stamp is a 16-byte 0xFF run — longer than any legal
        packet, so it can never hide inside one payload."""
        plan = FaultPlan(seed=1, corrupt_drain=FaultSite(probability=1.0))
        inj = FaultInjector(plan)
        payload = bytes(range(1, 241))  # no 0xFF anywhere
        mangled, events = inj.mangle(payload)
        assert events == ["corrupt-drain"]
        assert len(mangled) == len(payload)
        assert b"\xff" * 16 in bytes(mangled)

    def test_plan_round_trips_and_rejects_unknown_keys(self):
        plan = FaultPlan.standard_mix(seed=9)
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"seed": 1, "bogus": {}})
        assert plan.with_seed(3).seed == 3
        assert plan.with_seed(3) != plan


class TestRetryPolicy:
    """delay(n) = min(cap, base * factor**(n-1)), to the cycle."""

    def test_delay_closed_form(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_base=500.0, backoff_factor=2.0,
            backoff_cap=60_000.0,
        )
        for n in range(1, 12):
            assert policy.delay(n) == min(60_000.0, 500.0 * 2.0 ** (n - 1))
        assert policy.schedule() == [policy.delay(i) for i in range(1, 8)]
        assert policy.schedule(3) == [500.0, 1000.0, 2000.0]
        with pytest.raises(ValueError):
            policy.delay(0)

    def test_cap_bites(self):
        policy = RetryPolicy(
            backoff_base=500.0, backoff_factor=10.0, backoff_cap=5000.0
        )
        assert policy.schedule(4) == [500.0, 5000.0, 5000.0, 5000.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"backoff_cap": -2.0},
            {"backoff_factor": 0.5},
            {"task_timeout": -1.0},
            {"hedge_delay": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_round_trip_and_unknown_keys(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=10.0, backoff_factor=3.0,
            backoff_cap=90.0, task_timeout=2000.0, hedge_delay=250.0,
            dead_letter_quarantine=False,
        )
        restored = RetryPolicy.from_dict(
            json.loads(json.dumps(policy.to_dict()))
        )
        assert restored == policy
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"max_attempts": 2, "bogus": 1})


def _task(slices=(100.0,), serial=50.0):
    return CheckTask(
        task_id=0, pid=1, kind="endpoint", syscall_nr=0,
        enqueued_at=0.0, slices=list(slices), serial_cycles=serial,
    )


def _dispatcher(pool, plan, policy):
    dispatcher = FleetDispatcher(pool, retry=policy)
    dispatcher.injector = FaultInjector(plan)
    dispatcher.degradations = DegradationLedger()
    return dispatcher


class TestDispatcherRecovery:
    """Dispatch times under scheduled faults, asserted to the cycle."""

    def test_crash_retry_timing_exact(self):
        pool = SimulatedWorkerPool(2)
        plan = FaultPlan(
            seed=1, worker_crash=FaultSite(at=(0,)), crash_fraction=0.5
        )
        policy = RetryPolicy(
            max_attempts=3, backoff_base=100.0, backoff_factor=2.0,
            backoff_cap=1000.0,
        )
        d = _dispatcher(pool, plan, policy)
        task = _task()  # cost 150
        d._dispatch_with_recovery(task)
        # The crash burns crash_fraction * cost = 75 cycles ending at
        # t=75; the retry waits delay(1)=100 and runs 150 from t=175.
        assert d.retry_cycles == 75.0
        assert task.attempts == 2
        assert task.started_at == 175.0
        assert task.finished_at == 325.0
        assert d.degradations.count("worker-crash") == 1
        assert d.degradations.count("retry") == 1
        assert d.degradations.count("hedge") == 0

    def test_hedged_hang_timing_exact(self):
        pool = SimulatedWorkerPool(2)
        plan = FaultPlan(seed=1, worker_hang=FaultSite(at=(0,)))
        policy = RetryPolicy(
            max_attempts=2, task_timeout=200.0, hedge_delay=30.0,
            backoff_base=100.0,
        )
        d = _dispatcher(pool, plan, policy)
        task = _task()
        d._dispatch_with_recovery(task)
        # The wedged attempt burns the 200-cycle watchdog on the
        # degraded lane (worker 1); the hedge re-issues the check at
        # t=30 on worker 0 and finishes at 180 — before the watchdog
        # would even have fired.  The burn still accrues.
        assert d.retry_cycles == 200.0
        assert task.finished_at == 180.0
        assert pool.busy_cycles == [150.0, 200.0]
        assert d.degradations.count("task-timeout") == 1
        assert d.degradations.count("hedge") == 1
        assert d.degradations.count("retry") == 0

    def test_unhedged_hang_waits_out_backoff(self):
        pool = SimulatedWorkerPool(2)
        plan = FaultPlan(seed=1, worker_hang=FaultSite(at=(0,)))
        policy = RetryPolicy(
            max_attempts=2, task_timeout=200.0, backoff_base=100.0
        )
        d = _dispatcher(pool, plan, policy)
        task = _task()
        d._dispatch_with_recovery(task)
        # hedge_delay=0: classic backoff from the failure time —
        # timeout at 200, delay(1)=100, then the 150-cycle check.
        assert task.finished_at == 450.0
        assert d.degradations.count("retry") == 1
        assert d.degradations.count("hedge") == 0

    def test_dead_letter_after_exhausted_attempts(self):
        pool = SimulatedWorkerPool(2)
        plan = FaultPlan(
            seed=1, worker_crash=FaultSite(at=(0, 1, 2)),
            crash_fraction=0.5,
        )
        policy = RetryPolicy(
            max_attempts=3, backoff_base=10.0, backoff_factor=2.0,
            backoff_cap=1000.0,
        )
        d = _dispatcher(pool, plan, policy)
        task = _task()  # cost 150
        d._dispatch_with_recovery(task)
        assert task.dead_lettered
        assert task.attempts == 3
        assert d.retry_cycles == pytest.approx(225.0)  # 3 * 75
        assert d.dead_letter_cycles == 150.0  # charged, never ran
        letter = d.dead_letters[0]
        assert letter.kind == "worker-crash"
        assert letter.attempts == 3
        assert letter.last_fault == ",".join(["worker-crash"] * 3)
        assert d.degradations.count("worker-crash") == 3
        assert d.degradations.count("dead-letter") == 1
        ledger = d.ledger()
        # No productive work ever ran: everything busy was wasted.
        assert ledger["busy_cycles"] == pytest.approx(
            ledger["retry_cycles"]
        )
        assert ledger["dead_letter_cycles"] == 150.0


class TestDegradedLane:
    """Expensive recovery work serializes on one worker (bulkhead)."""

    def test_degraded_task_serializes_on_one_worker(self):
        pool = SimulatedWorkerPool(2)
        task = _task((50.0, 50.0), serial=20.0)
        task.degraded = True
        assert pool.dispatch(task) == 120.0
        assert pool.free_at == [0.0, 120.0]
        assert pool.busy_cycles == [0.0, 120.0]
        assert pool.tasks_run == [0, 1]

    def test_normal_task_spreads(self):
        pool = SimulatedWorkerPool(2)
        task = _task((50.0, 50.0), serial=20.0)
        assert pool.dispatch(task) == 70.0
        assert pool.busy_cycles == [70.0, 50.0]

    def test_lane_picks_most_loaded_worker(self):
        pool = SimulatedWorkerPool(3)
        pool.free_at = [10.0, 30.0, 20.0]
        assert pool._latest() == 1
        pool.free_at = [10.0, 30.0, 30.0]
        assert pool._latest() == 2  # ties: highest index

    def test_consecutive_degraded_tasks_queue_behind_each_other(self):
        pool = SimulatedWorkerPool(2)
        for task_id in range(2):
            task = _task((100.0,), serial=0.0)
            task.task_id = task_id
            task.degraded = True
            pool.dispatch(task)
        assert pool.free_at == [0.0, 200.0]


class TestCorruptSegmentRecovery:
    """Drain corruption degrades the check: the tail decode re-syncs at
    the next PSB and never fabricates a violation."""

    def test_corrupt_segment_resyncs(self, pipeline, trace):
        data, image = trace
        offsets = psb_offsets(data)
        assert len(offsets) >= 3
        mid = len(offsets) // 2
        bounds = offsets + [len(data)]
        begin, end = offsets[mid], bounds[mid + 1]
        assert end - begin > 32
        pos = begin + (end - begin - 16) // 2
        corrupt = data[:pos] + b"\xff" * 16 + data[pos + 16:]
        ledger = DegradationLedger()
        # A huge pkt_count forces the backward scan all the way down to
        # the corrupted segment.
        checker = FastPathChecker(
            FlowSearchIndex(pipeline.labeled), image, pkt_count=10**6,
            require_cross_module=False, require_executable=False,
            ledger=ledger,
        )
        tail = checker.decode_tail_columnar(corrupt)
        assert checker.last_corrupt_segments == 1
        # The scan re-synced at the PSB *after* the corruption.
        assert tail.start == offsets[mid + 1]
        assert tail.count
        assert ledger.count("corrupt-segment") == 1
        assert ledger.count("psb-resync") == 1

    def test_corruption_never_fabricates_violation(self, pipeline, trace):
        data, image = trace
        offsets = psb_offsets(data)
        checker = FastPathChecker(
            FlowSearchIndex(pipeline.labeled), image, pkt_count=12,
            require_cross_module=False, require_executable=False,
        )
        # Corrupt every segment head in turn; no cut may conjure a
        # violation out of a benign trace.
        for begin in offsets:
            corrupt = data[:begin + 16] + b"\xff" * 16 + data[begin + 32:]
            result = checker.check(corrupt)
            assert result.verdict is not Verdict.VIOLATION


class TestFallbackOracle:
    """A fast path that dies mid-check downgrades to the slow path,
    whose verdict stands: clean traffic passes, attacks still die."""

    ALWAYS_FALLBACK = dict(
        seed=3, fastpath_error=FaultSite(probability=1.0)
    )

    def _deploy(self, pipeline, faults=None, request=None, pushes=1):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        monitor, proc = pipeline.deploy(kernel, faults=faults)
        for _ in range(pushes):
            proc.push_connection(request or nginx_request("/index.html"))
        kernel.run(proc)
        return monitor, proc

    def test_clean_traffic_passes_through_fallback(self, pipeline):
        plan = FaultPlan(**self.ALWAYS_FALLBACK)
        monitor, proc = self._deploy(pipeline, faults=plan, pushes=3)
        pp = monitor.protected_for(proc)
        assert proc.state is ProcessState.EXITED
        assert monitor.detections == []
        assert pp.stats.slow_path_runs > 0
        assert (
            monitor.degradations.count("slowpath-fallback")
            >= pp.stats.slow_path_runs
        )

    def test_rop_detected_via_slow_path(self, pipeline, recon):
        rop = build_rop_request(recon)
        base_monitor, base_proc = self._deploy(pipeline, request=rop)
        plan = FaultPlan(**self.ALWAYS_FALLBACK)
        monitor, proc = self._deploy(pipeline, faults=plan, request=rop)
        assert base_monitor.detections
        assert base_monitor.detections[0].path == "fast"
        assert base_proc.state is ProcessState.KILLED
        assert monitor.detections, "fallback masked the attack"
        assert monitor.detections[0].path == "slow"
        assert proc.state is ProcessState.KILLED
        # Same enforcement point as the fast-path baseline.
        assert (
            monitor.detections[0].syscall_nr
            == base_monitor.detections[0].syscall_nr
        )


class TestMonitorUnderFaults:
    """Solo monitor under a hostile mix: reproducible, no false
    positives, ledger reconciled."""

    PLAN = dict(
        corrupt_drain=FaultSite(probability=0.5),
        truncate_drain=FaultSite(probability=0.5),
        drop_pmi=FaultSite(probability=0.5),
        delay_pmi=FaultSite(probability=0.5),
        fastpath_error=FaultSite(probability=0.2),
    )

    def _faulted_run(self, pipeline, seed):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        monitor, proc = pipeline.deploy(
            kernel, faults=FaultPlan(seed=seed, **self.PLAN)
        )
        for _ in range(3):
            proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        pp = monitor.protected_for(proc)
        return monitor, proc, pp

    def _digest(self, monitor, proc, pp):
        return (
            monitor.fault_injector.stats(),
            monitor.degradations.counts(),
            [e.kind for e in monitor.degradations.events],
            pp.stats.total_cycles,
            len(monitor.detections),
            proc.state,
        )

    def test_same_plan_same_run(self, pipeline):
        first = self._digest(*self._faulted_run(pipeline, 21))
        second = self._digest(*self._faulted_run(pipeline, 21))
        assert first == second

    def test_no_false_positives_under_heavy_mix(self, pipeline):
        monitor, proc, _ = self._faulted_run(pipeline, 21)
        assert monitor.detections == []
        assert proc.state is ProcessState.EXITED
        assert sum(monitor.fault_injector.stats()["fired"].values()) > 0
        assert len(monitor.degradations) > 0


class TestDegradationLedger:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DegradationLedger().record("nope")

    def test_reconciles_retry_cycles(self):
        ledger = DegradationLedger()
        ledger.record("retry", cycles=100.0)
        ledger.record("hedge")
        ledger.record("worker-crash", cycles=50.0)
        assert ledger.reconcile(retry_cycles=150.0)["exact"]
        report = ledger.reconcile(retry_cycles=151.0)
        assert not report["exact"]
        assert report["retry_cycles"] == {
            "ledger": 150.0, "dispatcher": 151.0, "ok": False,
        }

    def test_events_counter_is_a_view(self):
        with telemetry.capture() as tel:
            ledger = DegradationLedger()
            ledger.tenant = "acme"
            ledger.record("retry", cycles=10.0)
            ledger.record("retry")
            ledger.record("hedge")
            counter = tel.metrics.counter("resilience.events")
            assert counter.value(kind="retry", tenant="acme") == 2
            assert counter.value(kind="hedge", tenant="acme") == 1
            # The only resilience.* series the ledger writes.
            resilience = [
                name
                for group in tel.metrics.snapshot().values()
                for name in group
                if name.startswith("resilience.")
            ]
            assert sorted(resilience) == [
                'resilience.events{kind="hedge",tenant="acme"}',
                'resilience.events{kind="retry",tenant="acme"}',
            ]


class TestFleetUnderFaults:
    """Whole-fleet runs under the standard mix: reproducible schedules
    and exact reconciliation across every ledger."""

    @staticmethod
    def _run_faulted_fleet():
        from repro.experiments.common import (
            seed_server_fs,
            server_pipeline,
            server_requests,
        )
        from repro.experiments.fleet_scaling import (
            FAULT_RETRY,
            FAULT_RING_BYTES,
            FAULT_WORKERS,
        )

        config = FleetConfig(
            workers=FAULT_WORKERS,
            ring_policy=RingPolicy.LOSSY,
            ring_bytes=FAULT_RING_BYTES,
            faults=FaultPlan.standard_mix(seed=13),
            retry=FAULT_RETRY,
        )
        with telemetry.capture():
            service = FleetService(config)
            seed_server_fs(service.kernel)
            for name in ("nginx", "nginx"):
                service.add_workload(
                    server_pipeline(name), server_requests(name, 1)
                )
            result = service.run()
        schedule = [
            (t.pid, t.kind, t.verdict, t.degraded, t.attempts,
             t.finished_at)
            for t in service.dispatcher.tasks
        ]
        return result, schedule

    def test_faulted_fleet_reproducible_and_reconciled(self):
        first, sched_first = self._run_faulted_fleet()
        second, sched_second = self._run_faulted_fleet()
        assert sched_first == sched_second
        assert first.resilience["faults"] == second.resilience["faults"]
        assert sum(first.resilience["faults"]["fired"].values()) > 0
        assert first.accounting["exact"] and second.accounting["exact"]
        assert first.resilience["ledger_reconcile"]["exact"]
        # Clean workload: degrade, never quarantine.
        assert not first.quarantines
        assert all(p["state"] == "exited" for p in first.processes)


SRC = Path(__file__).resolve().parent.parent / "src"


class TestPublicFacade:
    """repro.api is the stable surface; the package roots export
    nothing."""

    def test_api_imports_clean_under_deprecation_errors(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "import repro.api"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_root_access_warns(self):
        """The package roots carry no PEP-562 hook, so an old root
        import fails at once instead of warning and resolving."""
        import warnings

        import repro.fleet
        import repro.monitor

        for module in (repro.fleet, repro.monitor):
            assert "__getattr__" not in vars(module)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImportError):
                from repro.fleet import FleetConfig  # noqa: F401
            with pytest.raises(ImportError):
                from repro.monitor import FlowGuardPolicy  # noqa: F401

    def test_shim_resolves_to_canonical_object(self):
        """Each name the shims used to relocate resolves, from its
        submodule and from repro.api, to the one canonical object."""
        import repro.api
        from repro.fleet import service
        from repro.monitor import policy

        assert repro.api.FleetConfig is service.FleetConfig is FleetConfig
        assert (repro.api.FlowGuardPolicy is policy.FlowGuardPolicy
                is FlowGuardPolicy)

    def test_unknown_attribute_raises(self):
        """The package roots and ``repro.fleet.service`` export no
        relocated names: old imports fail loudly."""
        import repro.fleet
        import repro.fleet.service
        import repro.monitor

        for module, name in (
            (repro.monitor, "FlowGuardPolicy"),
            (repro.fleet, "FleetConfig"),
            (repro.fleet.service, "percentile"),
        ):
            with pytest.raises(AttributeError):
                getattr(module, name)

    def test_run_config_round_trips_through_json(self):
        config = RunConfig(
            policy=FlowGuardPolicy(pkt_count=24, check_on_pmi=True),
            fleet=FleetConfig(
                workers=3,
                ring_policy=RingPolicy.LOSSY,
                faults=FaultPlan.standard_mix(seed=9),
                retry=RetryPolicy(task_timeout=123.0, hedge_delay=7.0),
            ),
        )
        restored = RunConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored.to_dict() == config.to_dict()
        assert restored.fleet.faults == config.fleet.faults
        assert restored.fleet.retry == config.fleet.retry

    def test_run_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"bogus": 1})
