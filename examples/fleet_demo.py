#!/usr/bin/env python3
"""Fleet mode demo: one monitor, many processes, parallel checking.

Runs a six-process fleet (alternating nginx / exim analogues) under a
single round-robin-scheduled FlowGuard monitor with four simulated
checker workers, then injects a ROP exploit into one nginx instance and
shows the violator being quarantined while the rest of the fleet
finishes clean.

Run:  python examples/fleet_demo.py
"""

from repro.attacks import build_rop_request, run_recon
from repro.experiments.common import (
    libraries,
    seed_server_fs,
    server_pipeline,
    server_requests,
)
from repro.fleet.rings import RingPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.workloads import build_nginx, build_vdso

SERVERS = ("nginx", "exim")


def build_fleet(inject_rop: bool) -> tuple:
    service = FleetService(
        FleetConfig(workers=4, ring_policy=RingPolicy.STALL)
    )
    seed_server_fs(service.kernel)
    rop = None
    if inject_rop:
        recon = run_recon(build_nginx(), libraries(), vdso=build_vdso())
        rop = build_rop_request(recon)
    attacked_pid = None
    for index in range(6):
        name = SERVERS[index % len(SERVERS)]
        requests = list(server_requests(name, 2))
        if rop is not None and index == 0:
            # Attack one nginx mid-stream, clean sessions around it.
            requests.insert(len(requests) // 2, rop)
        proc = service.add_workload(server_pipeline(name), requests)
        if rop is not None and index == 0:
            attacked_pid = proc.pid
    return service, attacked_pid


def report(result, attacked_pid) -> None:
    for row in result.processes:
        status = "QUARANTINED" if row["quarantined"] else row["state"]
        marker = "  <- attacked" if row["pid"] == attacked_pid else ""
        print(f"  pid {row['pid']:>2} {row['name']:<6} {status:<11} "
              f"{row['checks']:>3} checks{marker}")
    for event in result.quarantines:
        window = event.detected_at - event.enqueued_at
        print(f"  quarantine: pid {event.pid} after a {window:.0f}-cycle "
              f"detection window — {event.reason}")
    print(f"  check lag p50/p99: {result.lag['p50']:.0f} / "
          f"{result.lag['p99']:.0f} cycles; overhead "
          f"{result.overhead:.2%}; ledger exact: "
          f"{result.accounting['exact']}")


def main() -> None:
    print("[clean fleet: 6 processes x 4 workers]")
    service, _ = build_fleet(inject_rop=False)
    report(service.run(), None)

    print("\n[same fleet, ROP injected into one nginx]")
    service, attacked_pid = build_fleet(inject_rop=True)
    result = service.run()
    report(result, attacked_pid)
    assert attacked_pid in result.quarantined_pids
    clean = [r for r in result.processes if r["pid"] != attacked_pid]
    assert all(r["state"] == "exited" for r in clean)
    print("\nviolator quarantined; the rest of the fleet finished clean")


if __name__ == "__main__":
    main()
