#!/usr/bin/env python3
"""Run the observability-plane scenarios, write ``BENCH_observability.json``.

Usage::

    PYTHONPATH=src python experiments/observability.py [--quick] \
        [--out BENCH_observability.json]

``--quick`` shrinks the workload for CI smoke runs; the JSON shape is
identical.  Exits non-zero if any acceptance gate fails:

- attaching the plane leaves both the clean and the fault-injected run
  bit-identical to their uninstrumented references (verdict digests),
- the clean run meets every stock SLO; the fault-injected run burns
  error budget and captures a flight-recorder dump (the VIOLATION
  auto-dump) while its planted ROP attack is quarantined,
- every ledger — fleet cycle accounting and the degradation ledger's
  wasted cycles — is exact with the plane attached.

A psb_period sweep is recorded alongside for the run report.

The written JSON is also a ``repro report`` input::

    PYTHONPATH=src python -m repro report BENCH_observability.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import observability  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_observability.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    results = observability.run(quick=args.quick)
    print(observability.format_table(results))

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[wrote {out}]")

    failures = observability.gates_passed(results)
    for name in failures:
        print(f"FAIL: gate {name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
