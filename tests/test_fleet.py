"""Fleet mode tests: rings, worker pool, service, quarantine, telemetry,
the segment-tree dispatch index, and open-loop tenant fairness.

The acceptance scenario from the fleet issue lives here: an 8-process /
4-worker fleet running two server workloads, one of which receives an
injected ROP exploit — the violator must be quarantined (killed and
isolated) while the rest of the fleet finishes clean, with the cycle
ledger reconciling exactly.
"""

import random

import pytest

from repro import telemetry
from repro.attacks import build_rop_request, run_recon
from repro.experiments.common import (
    libraries,
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.experiments.fleet_scaling import build_fleet, run_scale
from repro.fleet.rings import ProcessRing, RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.fleet.workers import CheckTask, SimulatedWorkerPool
from repro.ipt import PSB_PATTERN, PacketError, ToPA, ToPARegion, columnar_scan
from repro.ipt.packets import encode_tnt
from repro.service import builtin_serve_config, run_service
from repro.telemetry.metrics import percentile
from repro.telemetry.plane import ObservabilityPlane
from repro.workloads import build_nginx, build_vdso
from tests.meter_view import assert_view_matches_stats


def make_ring(policy, regions=(8, 8)):
    """A ProcessRing over a tiny two-region ToPA, PMI wired up."""
    holder = []
    topa = ToPA(
        [ToPARegion(regions[0]), ToPARegion(regions[1], interrupt=True)],
        pmi_callback=lambda: holder[0].on_pmi(),
    )
    ring = ProcessRing(topa=topa, policy=policy)
    holder.append(ring)
    return ring


class TestProcessRing:
    def test_clean_drain_is_lossless(self):
        ring = make_ring(RingPolicy.STALL, regions=(64, 64))
        ring.topa.write(PSB_PATTERN + b"\x00\x00")
        result = ring.drain()
        assert result.data == PSB_PATTERN + b"\x00\x00"
        assert not result.resynced
        assert result.overwritten == 0
        assert ring.resyncs == 0
        assert ring.drains == 1

    def test_stall_pmi_asserts_interrupt_line(self):
        class Core:
            stop_requested = False

        core = Core()
        ring = make_ring(RingPolicy.STALL)
        ring.executor = core
        ring.topa.write(bytes(16))  # fill both regions -> PMI
        assert ring.pmi_count == 1
        assert ring.stall_requested
        assert core.stop_requested
        ring.drain()
        assert not ring.stall_requested
        ring.begin_stall(100.0, 250.0)
        assert ring.stalled
        ring.end_stall(250.0)
        assert not ring.stalled
        assert not core.stop_requested
        assert ring.stall_cycles == 150.0
        assert ring.stalls == 1

    def test_lossy_pmi_requests_async_drain(self):
        ring = make_ring(RingPolicy.LOSSY)
        ring.topa.write(bytes(16))
        assert ring.pmi_count == 1
        assert ring.drain_requested
        assert not ring.stall_requested  # lossy never pauses the process
        ring.drain()
        assert not ring.drain_requested

    def test_lossy_resync_lands_mid_packet(self):
        # PAD | TNT(2B) | PSB(8B) | TNT*3 | PAD = 18 bytes into a
        # 16-byte ring: drop-oldest overwrites the PAD and the TNT
        # *header*, leaving the TNT payload byte at the snapshot head.
        # Raw decode of that torn buffer must fail; the drain's forced
        # re-sync drops the tail byte and recovers at the PSB.
        ring = make_ring(RingPolicy.LOSSY)
        tnt = encode_tnt((True,) * 6)
        stream = b"\x00" + tnt + PSB_PATTERN + tnt * 3 + b"\x00"
        assert len(stream) == 18
        ring.topa.write(stream)
        assert ring.pmi_count == 1
        assert ring.pending_loss(ring.topa.snapshot()) == 2

        torn = ring.topa.snapshot()
        assert torn[0] == tnt[1]  # a packet tail, not a packet header
        with pytest.raises(PacketError):
            columnar_scan(torn)

        result = ring.drain()
        assert result.resynced
        assert result.overwritten == 2
        assert result.resync_dropped == 1
        assert result.data.startswith(PSB_PATTERN)
        assert columnar_scan(result.data).pkt_count
        assert ring.resyncs == 1
        assert ring.overwritten_bytes == 2
        assert ring.resync_dropped_bytes == 1

    def test_unwrapped_drain_never_resyncs(self):
        # The interrupt region filling is not loss: as long as nothing
        # was overwritten, the drain must not drop a prefix.
        ring = make_ring(RingPolicy.LOSSY)
        stream = b"\x00\x00" + PSB_PATTERN + encode_tnt((True,) * 6)
        assert len(stream) == 12
        ring.topa.write(stream)
        result = ring.drain()
        assert not result.resynced
        assert result.overwritten == 0
        assert result.data == stream  # leading PAD bytes survive


def _task(task_id=0, enqueued_at=0.0, slices=(), serial=0.0):
    return CheckTask(
        task_id=task_id,
        pid=1,
        kind="pmi-drain",
        syscall_nr=-1,
        enqueued_at=enqueued_at,
        slices=list(slices),
        serial_cycles=serial,
    )


class TestSimulatedWorkerPool:
    def test_slices_run_in_parallel(self):
        pool = SimulatedWorkerPool(3)
        task = _task(slices=[100.0, 100.0, 100.0], serial=10.0)
        pool.dispatch(task)
        assert task.finished_at == 110.0  # slices overlap, serial after

        solo = SimulatedWorkerPool(1)
        same = _task(slices=[100.0, 100.0, 100.0], serial=10.0)
        solo.dispatch(same)
        assert same.finished_at == 310.0
        # Parallelism moves cycles, it never creates or destroys them.
        assert pool.busy_total == solo.busy_total == 310.0

    def test_ties_break_to_lowest_worker_index(self):
        pool = SimulatedWorkerPool(4)
        pool.dispatch(_task(task_id=0, slices=[5.0]))
        pool.dispatch(_task(task_id=1, slices=[3.0]))
        assert pool.busy_cycles == [5.0, 3.0, 0.0, 0.0]
        assert pool.tasks_run == [1, 1, 0, 0]

    def test_serial_phase_follows_last_slice(self):
        pool = SimulatedWorkerPool(2)
        task = _task(slices=[10.0, 50.0], serial=5.0)
        pool.dispatch(task)
        assert task.started_at == 0.0
        assert task.finished_at == 55.0
        assert task.lag == 55.0
        # The serial combine runs on the worker that decoded the final
        # slice.
        assert pool.free_at == [10.0, 55.0]

    def test_schedule_is_deterministic(self):
        def run():
            pool = SimulatedWorkerPool(3)
            ends = []
            for i in range(20):
                ends.append(
                    pool.dispatch(
                        _task(
                            task_id=i,
                            enqueued_at=float(i * 3),
                            slices=[float(7 + i % 5), 4.0],
                            serial=float(i % 3),
                        )
                    )
                )
            return ends, pool.free_at, pool.busy_cycles, pool.tasks_run

        assert run() == run()

    def test_percentile_nearest_rank(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 99) == 5.0
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0


class TestFleetConfig:
    @pytest.mark.parametrize("key, value", [
        ("bogus", 1),
        ("decode_mode", "simulated"),
        ("decode_pool", "thread"),
        ("pool", "spread"),
        ("index_shards", 0),
        ("engine", "columnar"),
        ("slow_lane", "columnar"),
        ("scan_kernel", "auto"),
        ("seed", 0),
    ])
    def test_from_dict_rejects_unknown_keys(self, key, value):
        data = FleetConfig().to_dict()
        assert FleetConfig.from_dict(data) == FleetConfig()
        data[key] = value
        with pytest.raises(ValueError, match=key):
            FleetConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key", ["segment_cache_entries", "edge_cache_entries"]
    )
    def test_cache_capacities_are_gone(self, key):
        """The fast path has no optional caches: a capacity key fails
        as unknown in either half of a ``RunConfig``."""
        from repro.api import RunConfig

        with pytest.raises(ValueError, match="unknown FleetConfig keys"):
            RunConfig.from_dict({"fleet": {key: 512}})
        with pytest.raises(ValueError, match="unknown FlowGuardPolicy keys"):
            RunConfig.from_dict({"policy": {key: 512}})


class TestScaleSweep:
    def test_small_fleet_sweep_ends_at_max_processes(self):
        results = run_scale(max_processes=4)
        rows = results["scale_sweep"]
        assert [row["processes"] for row in rows] == [4]
        assert rows[0]["accounting_exact"]
        assert results["gates"] == {
            "lag_sublinear": True, "accounting_exact": True,
        }
        assert results["lag_growth"] == []

    def test_schedule_digests_pinned(self):
        """The 100-process sweep schedules exactly as it did with the
        segment-tree worker index the pool's scan replaced."""
        rows = run_scale()["scale_sweep"]
        assert {row["processes"]: row["schedule_digest"][:16]
                for row in rows} == {
            16: "fcd19952a68322c2",
            32: "1b98543055d318fb",
            64: "7d1d8adf38670e96",
            100: "0df8b692b27c81d7",
        }


@pytest.fixture(scope="module")
def small_fleet_result():
    return build_fleet(2, 2, sessions=1).run()


class TestFleetService:
    def test_clean_fleet_finishes_clean(self, small_fleet_result):
        result = small_fleet_result
        assert result.detections == 0
        assert result.quarantines == []
        assert result.tasks > 0
        assert len(result.processes) == 2
        for row in result.processes:
            assert row["state"] == "exited"
            assert not row["quarantined"]
            assert row["checks"] > 0
            assert row["quanta"] > 1  # actually time-sliced

    def test_cycle_ledger_reconciles_exactly(self, small_fleet_result):
        accounting = small_fleet_result.accounting
        assert accounting["exact"], accounting
        assert accounting["busy_cycles"] + accounting[
            "intercept_cycles"
        ] == pytest.approx(accounting["stats_cycles"], rel=1e-9)
        assert sum(small_fleet_result.worker_busy) == pytest.approx(
            accounting["busy_cycles"], rel=1e-9
        )

    @pytest.mark.parametrize("policy", [RingPolicy.STALL, RingPolicy.LOSSY])
    def test_a_check_decodes_its_submitters_snapshot(self, monkeypatch,
                                                     policy):
        """Every fleet check is handed the ToPA snapshot its submitter
        (endpoint, drain or exit path) took after flushing: the monitor
        takes no second snapshot."""
        from repro.monitor.flowguard import FlowGuardMonitor

        inside = []  # snapshots taken by each running check
        real_snapshot = ToPA.snapshot
        real_check = FlowGuardMonitor._run_check

        def snapshot(topa):
            if inside:
                inside[-1] += 1
            return real_snapshot(topa)

        checks = []

        def run_check(monitor, pp, nr, data=None):
            inside.append(0)
            try:
                return real_check(monitor, pp, nr, data)
            finally:
                checks.append((data is not None, inside.pop()))

        monkeypatch.setattr(ToPA, "snapshot", snapshot)
        monkeypatch.setattr(FlowGuardMonitor, "_run_check", run_check)
        result = build_fleet(
            2, 2, sessions=1, policy=policy, ring_bytes=1024,
        ).run()
        assert result.tasks == len(checks) > 0
        assert set(checks) == {(True, 0)}

    @pytest.mark.parametrize("policy, drains", [
        (RingPolicy.STALL, 4), (RingPolicy.LOSSY, 3),
    ])
    def test_a_drain_snapshots_the_ring_once(self, monkeypatch, policy,
                                             drains):
        """The stall, lossy and exit drain paths take one ToPA snapshot
        per drain, shared by the check, the loss test and the drain
        (they took three each before)."""
        from repro.fleet.scheduler import RoundRobinScheduler

        active = []
        snapshots = []
        real_snapshot = ToPA.snapshot

        def snapshot(topa):
            if active:
                snapshots.append(active[-1])
            return real_snapshot(topa)

        def tracked(name):
            real = getattr(RoundRobinScheduler, name)

            def wrapper(scheduler, entry):
                active.append(name)
                try:
                    return real(scheduler, entry)
                finally:
                    active.pop()

            monkeypatch.setattr(RoundRobinScheduler, name, wrapper)

        for name in ("_stall_for_drain", "_lossy_drain", "_retire"):
            tracked(name)
        monkeypatch.setattr(ToPA, "snapshot", snapshot)
        service = build_fleet(
            2, 2, sessions=1, policy=policy, ring_bytes=1024,
        )
        service.run()
        checks = [
            task for task in service.dispatcher.tasks
            if task.kind in ("pmi-drain", "exit-drain")
        ]
        assert len(snapshots) == len(checks) == drains
        assert any(task.kind == "pmi-drain" for task in checks)

    def test_stall_rings_keep_the_ledger_exact(self):
        """Two nginx processes on stall rings with an unbounded queue:
        every check reconciles with the worker ledger, and the clean
        fleet finishes clean."""
        config = FleetConfig(
            workers=2,
            ring_policy=RingPolicy.STALL,
            max_queue_depth=1_000_000,
        )
        with telemetry.capture():
            service = FleetService(config)
            seed_server_fs(service.kernel)
            for name in ("nginx", "nginx"):
                service.add_workload(
                    server_pipeline(name), server_requests(name, 1)
                )
            result = service.run()
        assert result.accounting["exact"], result.accounting
        assert result.detections == 0
        assert result.quarantined_pids == []
        assert {task.verdict for task in service.dispatcher.tasks} == {
            "pass"
        }

    def test_same_seed_same_everything(self):
        first = build_fleet(2, 2, sessions=1).run()
        second = build_fleet(2, 2, sessions=1).run()
        assert first.schedule_digest == second.schedule_digest
        assert first.to_dict() == second.to_dict()

    def test_more_workers_cut_tail_lag(self):
        one = build_fleet(8, 1, sessions=1).run()
        four = build_fleet(8, 4, sessions=1).run()
        # Lossy rings + unbounded queue: the submitted work is the same,
        # so the process schedule is identical across worker counts —
        # only the checker pool changes, and the lag tail must shrink.
        assert one.schedule_digest == four.schedule_digest
        assert one.tasks == four.tasks
        assert four.lag["p99"] < one.lag["p99"]
        assert four.lag["mean"] < one.lag["mean"]
        assert four.makespan <= one.makespan

    def test_stall_pays_cycles_lossy_pays_bytes(self):
        stall = build_fleet(
            4, 2, sessions=1, policy=RingPolicy.STALL,
            ring_bytes=1024, max_queue_depth=64,
        ).run()
        lossy = build_fleet(
            4, 2, sessions=1, policy=RingPolicy.LOSSY,
            ring_bytes=1024, max_queue_depth=64,
        ).run()
        # §4 trade-off under buffer pressure: stall is lossless but
        # pays drain latency as overhead; lossy keeps running but drops
        # bytes and must re-sync at the next PSB.
        assert stall.overhead > lossy.overhead
        assert stall.stall_cycles > 0
        assert sum(row["stalls"] for row in stall.processes) > 0
        assert lossy.stall_cycles == 0.0
        assert sum(row["resyncs"] for row in lossy.processes) > 0
        assert sum(
            row["overwritten_bytes"] for row in lossy.processes
        ) > 0


def _mixed_fleet(processes=2, sessions=1, **cfg):
    service = FleetService(FleetConfig(**cfg))
    seed_server_fs(service.kernel)
    for index in range(processes):
        name = ("nginx", "exim")[index % 2]
        service.add_workload(
            server_pipeline(name), server_requests(name, sessions)
        )
    return service


class TestFleetTelemetry:
    def test_reconcile_includes_worker_ledger(self):
        with telemetry.capture() as tel:
            service = _mixed_fleet(workers=2)
            result = service.run()
            assert_view_matches_stats(
                tel.profiler, service.monitor.all_stats()
            )
        accounting = result.accounting
        assert accounting["exact"], accounting
        assert accounting["busy_cycles"] == pytest.approx(
            sum(result.worker_busy), rel=1e-9
        )
        assert accounting["stats_cycles"] == pytest.approx(
            result.monitor_cycles, rel=1e-9
        )

    def test_tampered_worker_ledger_fails_reconcile(self):
        service = _mixed_fleet(workers=1)
        assert service.run().accounting["exact"]
        service.dispatcher.intercept_cycles += 123.0
        assert not service._build_result().accounting["exact"]

    def test_tampered_ledger_cycles_fail_ledger_reconcile(self, capsys):
        from repro.cli import _books_drift

        service = _mixed_fleet(workers=1)
        result = service.run()
        assert result.resilience["ledger_reconcile"]["exact"]
        assert not _books_drift(result)
        # A wasted cycle the dispatcher's retry_cycles never saw.
        service.monitor.degradations.wasted_cycles += 50.0
        tampered = service._build_result()
        assert tampered.accounting["exact"]
        assert not tampered.resilience["ledger_reconcile"]["exact"]
        assert _books_drift(tampered)
        assert "retry cycles" in capsys.readouterr().err

    def test_drop_drain_names_pid_and_time(self):
        """A lossy fleet whose one-deep checker queue is congested
        drops PMI drains; each drop is ledgered against the process
        whose window went unexamined, at the fleet time it passed."""
        tel = telemetry.get_telemetry()
        tel.reset()
        plane = ObservabilityPlane(interval=2000.0)
        tel.attach_plane(plane)
        try:
            service = FleetService(FleetConfig(
                workers=1, ring_policy=RingPolicy.LOSSY, ring_bytes=1024,
                max_queue_depth=1,
            ))
            seed_server_fs(service.kernel)
            for name in ("nginx", "exim", "nginx", "exim"):
                service.add_workload(
                    server_pipeline(name), server_requests(name, 2)
                )
            result = service.run()
        finally:
            tel.detach_plane()
            tel.disable()
        drops = service.monitor.degradations.events_of("drop-drain")
        assert result.dropped_checks == len(drops) > 0
        pids = {row["pid"] for row in result.processes}
        assert all(e.pid in pids and e.at > 0 for e in drops)
        by_pid = result.slo["degradations_by_pid"]
        assert 'drop-drain{pid="-1"}' not in by_pid
        assert sum(
            count for series, count in by_pid.items()
            if series.startswith("drop-drain{")
        ) == len(drops)

    def test_disabled_fleet_registers_nothing(self):
        telemetry.get_telemetry().reset()
        service = _mixed_fleet(workers=1)
        result = service.run()
        assert result.accounting["exact"]
        assert telemetry.get_telemetry().profiler.total() == 0.0


@pytest.fixture(scope="module")
def attack_fleet():
    """The acceptance scenario: 8 processes, 4 workers, two server
    workloads, a ROP exploit injected mid-stream into one nginx."""
    service = FleetService(FleetConfig(workers=4, ring_bytes=8192))
    seed_server_fs(service.kernel)
    recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
    rop = build_rop_request(recon)
    attacked_pid = None
    for index in range(8):
        name = ("nginx", "exim")[index % 2]
        requests = list(server_requests(name, 2))
        if index == 0:
            requests.insert(len(requests) // 2, rop)
        proc = service.add_workload(server_pipeline(name), requests)
        if index == 0:
            attacked_pid = proc.pid
    return attacked_pid, service.run()


class TestFleetQuarantine:
    def test_violator_is_quarantined(self, attack_fleet):
        attacked_pid, result = attack_fleet
        assert result.detections >= 1
        assert attacked_pid in result.quarantined_pids
        event = result.quarantines[0]
        assert event.pid == attacked_pid
        assert event.name == "nginx"
        # Asynchronous enforcement: the verdict lands strictly after
        # the check was enqueued (the detection window).
        assert event.detected_at > event.enqueued_at
        row = next(
            r for r in result.processes if r["pid"] == attacked_pid
        )
        assert row["quarantined"]

    def test_rest_of_fleet_finishes_clean(self, attack_fleet):
        attacked_pid, result = attack_fleet
        assert result.quarantined_pids == [attacked_pid]
        clean = [
            r for r in result.processes if r["pid"] != attacked_pid
        ]
        assert len(clean) == 7
        for row in clean:
            assert row["state"] == "exited"
            assert not row["quarantined"]
            assert row["checks"] > 0

    def test_attack_run_ledger_still_exact(self, attack_fleet):
        _, result = attack_fleet
        assert result.accounting["exact"], result.accounting


# -- worker selection: the pool's scan vs the linear oracle ----------------


def earliest_linear(pool, not_before):
    """The original O(workers) earliest-free selection, verbatim: the
    oracle ``SimulatedWorkerPool._earliest`` must match tie for tie."""
    best = 0
    best_start = max(pool.free_at[0], not_before)
    for index in range(1, pool.workers):
        start = max(pool.free_at[index], not_before)
        if start < best_start:
            best = index
            best_start = start
    return best


def latest_linear(pool):
    """The original O(workers) degraded-lane selection, verbatim: the
    oracle for ``SimulatedWorkerPool._latest``."""
    best = pool.workers - 1
    for index in range(pool.workers - 2, -1, -1):
        if pool.free_at[index] > pool.free_at[best]:
            best = index
    return best


class _LinearPool(SimulatedWorkerPool):
    """The oracle pool: same dispatch, selection by the linear scans."""

    def _earliest(self, not_before):
        return earliest_linear(self, not_before)

    def _latest(self):
        return latest_linear(self)


def _random_task(index, rng):
    return CheckTask(
        task_id=index,
        pid=rng.randrange(16),
        kind="endpoint",
        syscall_nr=0,
        enqueued_at=float(rng.randrange(0, 2000)),
        slices=[
            float(rng.randrange(10, 120))
            for _ in range(rng.randrange(0, 4))
        ],
        serial_cycles=float(rng.randrange(0, 200)),
        degraded=rng.random() < 0.15,
    )


class TestDispatchOracle:
    def test_selection_matches_linear_oracle(self):
        rng = random.Random(42)
        for workers in (1, 2, 3, 5, 8, 33, 100):
            pool = SimulatedWorkerPool(workers)
            pool.free_at = [
                float(rng.randrange(0, 500)) for _ in range(workers)
            ]
            for _ in range(200):
                t0 = float(rng.randrange(0, 600))
                assert pool._earliest(t0) == earliest_linear(pool, t0)
                assert pool._latest() == latest_linear(pool)
                # Mutate one worker's free time and re-compare.
                pool.free_at[rng.randrange(workers)] = float(
                    rng.randrange(0, 700)
                )

    def test_dispatch_schedule_identical_to_linear(self):
        fast, slow = SimulatedWorkerPool(4), _LinearPool(4)
        schedules = []
        for pool in (fast, slow):
            rng = random.Random(7)
            times = []
            for index in range(300):
                task = _random_task(index, rng)
                end = pool.dispatch(task)
                times.append((task.started_at, end))
                if rng.random() < 0.1:
                    pool.burn(
                        float(rng.randrange(0, 2000)),
                        float(rng.randrange(10, 90)),
                        lane=rng.random() < 0.5,
                    )
            schedules.append(times)
        assert schedules[0] == schedules[1]
        assert fast.free_at == slow.free_at
        assert fast.busy_cycles == slow.busy_cycles
        assert fast.tasks_run == slow.tasks_run


# -- open-loop tenants and fairness ------------------------------------------


class TestOpenLoopFairness:
    def test_open_mix_reports_fairness(self):
        result = run_service(builtin_serve_config("open-mix"))
        assert set(result.tenants) == {"steady", "bursty"}
        for report in result.tenants.values():
            fairness = report["fairness"]
            assert fairness["offered"] > 0
            assert 0.0 <= fairness["ratio"] <= 1.0
            assert fairness["achieved"] == report["completed"]
        payload = result.to_dict()
        spread = payload["fairness"]["spread"]
        ratios = payload["fairness"]["ratios"]
        assert set(ratios) == {"steady", "bursty"}
        assert spread == pytest.approx(
            max(ratios.values()) - min(ratios.values())
        )

    def test_unthrottled_open_loop_absorbs_all_demand(self):
        result = run_service(builtin_serve_config("open-mix"))
        for report in result.tenants.values():
            assert report["fairness"]["ratio"] == 1.0
        assert result.to_dict()["fairness"]["spread"] == 0.0
