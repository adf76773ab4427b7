#!/usr/bin/env python3
"""Run the resilience scenarios and write ``BENCH_resilience.json``.

Usage::

    PYTHONPATH=src python experiments/resilience.py [--quick] \
        [--out BENCH_resilience.json]

``--quick`` shrinks the workload for CI smoke runs; the JSON shape is
identical.  Exits non-zero if any acceptance gate fails:

- every injected ROP attack is detected and quarantined under the
  standard fault mix (100% detection, zero false positives),
- a check whose every retry is killed is dead-lettered and handled
  fail-closed (quarantine, not a silent drop — and never a wedge),
- faulted p99 verdict lag stays within the bound over the fault-free
  baseline, and
- every ledger (fleet cycle accounting, the degradation ledger's
  wasted cycles vs the dispatcher's retry cycles) reconciles exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import resilience  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_resilience.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    results = resilience.run(quick=args.quick)
    print(resilience.format_table(results))

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[wrote {out}]")

    gates = results["gates"]
    failures = []
    if gates["detection_rate"] < 1.0:
        missed = [row["seed"] for row in results["detection"]
                  if not row["detected"]]
        failures.append(
            f"injected ROP missed under fault seeds {missed} "
            f"(detection rate {gates['detection_rate']:.0%})"
        )
    if gates["false_positives"]:
        failures.append(
            f"{gates['false_positives']} clean process(es) quarantined "
            "or flagged under fault injection"
        )
    if not gates["dead_letters_quarantined"]:
        failures.append(
            "dead-lettered check was not handled fail-closed "
            f"(dead letters {results['dead_letter']['dead_letters']}, "
            f"quarantined {results['dead_letter']['quarantined']})"
        )
    if not gates["never_wedged"]:
        failures.append("a faulted fleet failed to finish (wedged)")
    if not gates["lag_within_bound"]:
        failures.append(
            f"faulted p99 lag ratio {gates['lag_p99_ratio']:.2f} "
            f"exceeds bound {gates['lag_bound']:.1f}"
        )
    if not gates["ledgers_exact"]:
        failures.append("a ledger failed to reconcile exactly")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
