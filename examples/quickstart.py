#!/usr/bin/env python3
"""Quickstart: protect a server with FlowGuard in ~30 lines.

Walks the full Figure 1 pipeline: offline CFG construction + training,
kernel-module installation, per-process IPT tracing, and endpoint
checking — then serves benign traffic and shows the monitor's verdicts
and cost breakdown.  Runs with telemetry on: exports a Chrome trace
(`quickstart_trace.json`, load it in chrome://tracing or Perfetto) and
prints the cycle profiler's per-phase and per-component view of the
monitor's charges.

Run:  python examples/quickstart.py
"""

from repro import telemetry
from repro.osmodel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)


def main() -> None:
    telemetry.enable()  # spans, metrics, and the cycle profiler

    # -- offline phase (steps 1-2: static analysis + fuzzing training) --
    pipeline = FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        {"libsim.so": build_libsim()},
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            nginx_request("/missing"),
            nginx_request("/p", "POST", b"form"),
        ],
        mode="socket",
        kernel_setup=lambda k: k.fs.create("/index.html", b"<html>hi</html>"),
    )
    print("offline phase complete:")
    print(f"  O-CFG: {pipeline.ocfg.stats()['blocks']} basic blocks, "
          f"{pipeline.ocfg.stats()['edges']} edges")
    print(f"  ITC-CFG: {len(pipeline.itc.nodes)} IT-BBs, "
          f"{pipeline.itc.edge_count} edges")
    print(f"  trained credit ratio: "
          f"{pipeline.labeled.trained_ratio() * 100:.1f}%")

    # -- runtime phase (steps 3-5: trace, intercept, check) --------------
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>hi</html>")
    monitor, proc = pipeline.deploy(kernel)
    connections = [
        proc.push_connection(nginx_request("/index.html"))
        for _ in range(5)
    ]
    kernel.run(proc)

    print("\nserved benign traffic:")
    for index, conn in enumerate(connections):
        status = bytes(conn.outbound).split(b"\n", 1)[0].decode()
        print(f"  request {index}: {status}")
    stats = monitor.stats_for(proc)
    print(f"\nmonitor: {stats.checks} endpoint checks, "
          f"{stats.slow_path_runs} slow-path runs, "
          f"{len(monitor.detections)} detections")
    print(f"overhead: {monitor.overhead_for(proc) * 100:.2f}% "
          f"(trace {stats.trace_cycles:.0f} / decode "
          f"{stats.decode_cycles:.0f} / check {stats.check_cycles:.0f} "
          f"/ other {stats.other_cycles:.0f} cycles)")
    assert not monitor.detections, "benign traffic must not trip CFI"
    print("\nno false positives — FlowGuard is conservative by design.")

    # -- telemetry: cycle profile + trace export -------------------------
    tel = telemetry.get_telemetry()
    profile = tel.profiler.snapshot()
    for axis in ("phases", "components"):
        cells = ", ".join(
            f"{name} {cycles:.0f}" for name, cycles in profile[axis].items()
        )
        print(f"cycle profile by {axis[:-1]}: {cells}")
    events = tel.tracer.export_chrome("quickstart_trace.json")
    print(f"wrote quickstart_trace.json ({events} spans) — open it in "
          f"chrome://tracing")


if __name__ == "__main__":
    main()
