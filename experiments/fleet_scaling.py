#!/usr/bin/env python3
"""Run the fleet scaling sweeps and write ``BENCH_fleet.json``.

Usage::

    PYTHONPATH=src python experiments/fleet_scaling.py [--quick] \
        [--out BENCH_fleet.json]
    PYTHONPATH=src python experiments/fleet_scaling.py --scale \
        [--max-processes N] [--out BENCH_fleet_scale.json]

``--quick`` shrinks the sweeps for CI smoke runs; the JSON shape is
identical.  Exits non-zero if any sweep's cycle accounting fails to
reconcile, if the 8-process worker sweep's p99 check lag is not
monotonically decreasing from 1 to 4 workers, or if stall-mode overhead
does not exceed lossy-mode overhead under ring pressure.

``--scale`` runs the 100x process sweep instead (fleet sizes up to
``--max-processes``, one worker per four processes) and gates on:
sublinear lag_p99 growth, exact cycle accounting everywhere, and the
committed loadgen knee staying at or above the trajectory floor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import fleet_scaling  # noqa: E402
from repro.experiments.trajectory import KNEE_FLOOR  # noqa: E402


def _scale_failures(results: dict) -> list:
    """The 100x acceptance gates over a ``run_scale`` result."""
    failures = []
    if not results["lag_sublinear"]:
        failures.append(
            "lag_p99 grew superlinearly with fleet size: "
            f"{results['lag_growth']}"
        )
    if not results["accounting_exact"]:
        failures.append("cycle ledger drift in the scale sweep")
    knee_path = Path(__file__).resolve().parent.parent / (
        "BENCH_loadgen.json"
    )
    if knee_path.exists():
        knee = json.loads(knee_path.read_text())["knee"]["throughput"]
        results["knee_floor"] = {
            "floor": KNEE_FLOOR, "committed": knee,
            "holds": knee >= KNEE_FLOOR,
        }
        if knee < KNEE_FLOOR:
            failures.append(
                f"committed loadgen knee {knee:.2f} fell below the "
                f"floor {KNEE_FLOOR}"
            )
    return failures


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}"
        )
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for CI smoke runs")
    parser.add_argument("--scale", action="store_true",
                        help="run the 100x scale sweep instead")
    parser.add_argument("--max-processes", type=_positive_int,
                        default=100,
                        help="largest fleet in the --scale sweep")
    parser.add_argument("--out", default=None,
                        help="output JSON path")
    args = parser.parse_args(argv)

    if args.scale:
        results = fleet_scaling.run_scale(
            max_processes=args.max_processes
        )
        failures = _scale_failures(results)
        print(fleet_scaling.format_scale_table(results))
        out = Path(args.out or "BENCH_fleet_scale.json")
        out.write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
        print(f"\n[wrote {out}]")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    results = fleet_scaling.run(quick=args.quick)
    print(fleet_scaling.format_table(results))

    out = Path(args.out or "BENCH_fleet.json")
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[wrote {out}]")

    failures = []
    for section in ("worker_sweep", "process_sweep", "policy_pressure"):
        for row in results[section]:
            if not row["accounting_exact"]:
                failures.append(
                    f"{section}: cycle ledger drift at "
                    f"{row['processes']}p/{row['workers']}w"
                )
    sweep = results["worker_sweep"]
    p99s = [row["lag_p99"] for row in sweep]
    if any(b >= a for a, b in zip(p99s, p99s[1:])):
        failures.append(f"p99 lag not monotone over workers: {p99s}")
    stall, lossy = results["policy_pressure"]
    if stall["overhead"] <= lossy["overhead"]:
        failures.append(
            "stall overhead did not exceed lossy under ring pressure: "
            f"{stall['overhead']:.4f} <= {lossy['overhead']:.4f}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
