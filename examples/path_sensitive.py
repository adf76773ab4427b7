#!/usr/bin/env python3
"""The §7.1.2 future-work extension: path-sensitive fast-path checking.

Demonstrates the trade-off the paper predicted: matching trained
high-credit *paths* (k-grams of consecutive TIP targets) instead of
individual edges strengthens the fast path — stitching trained edges in
a novel order no longer passes — at the cost of more slow-path checks.

Run:  python examples/path_sensitive.py
"""

from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)


def serve(pipeline, policy, requests):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    kernel.fs.create("/about.html", b"<html>about</html>")
    monitor, proc = pipeline.deploy(kernel, policy=policy)
    for request in requests:
        proc.push_connection(request)
    kernel.run(proc)
    return monitor.stats_for(proc), monitor


def main() -> None:
    pipeline = FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        {"libsim.so": build_libsim()},
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            (nginx_request("/index.html"),) * 3,  # multi-request session
        ],
        mode="socket",
        kernel_setup=lambda k: k.fs.create(
            "/index.html", b"<html>x</html>"
        ),
    )
    print(f"trained: {pipeline.labeled.trained_ratio() * 100:.0f}% of "
          f"ITC edges, {pipeline.path_index.trained_gram_count} "
          f"path grams")

    workload = [nginx_request("/index.html")] * 3 + [
        nginx_request("/missing.html"),   # 404 flow: never trained
        nginx_request("/index.html", "HEAD"),  # HEAD flow: never trained
        nginx_request("/index.html"),
    ]
    for label, policy in [
        ("edge-sensitive (paper default)",
         FlowGuardPolicy(cache_slow_path_negatives=False)),
        ("path-sensitive (future work)",
         FlowGuardPolicy(path_sensitive=True,
                         cache_slow_path_negatives=False)),
    ]:
        stats, monitor = serve(pipeline, policy, workload)
        print(f"\n{label}:")
        print(f"  checks: {stats.checks}, slow-path runs: "
              f"{stats.slow_path_runs} "
              f"({stats.slow_path_rate * 100:.0f}%)")
        print(f"  detections: {len(monitor.detections)} "
              f"(zero — the graph stays conservative)")
        assert not monitor.detections

    print(
        "\nOn this benign workload both modes demote the same windows: "
        "every novel request type already fails an edge's TNT match. "
        "The modes diverge on *stitched* flows — windows whose every "
        "edge (2-gram) was trained but whose longer k-grams never "
        "occurred together, the gap an attacker chaining trained "
        "NOP-gadget edges would exploit (see "
        "tests/test_paths.py and benchmarks/test_ablations.py)."
    )


if __name__ == "__main__":
    main()
