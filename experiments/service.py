#!/usr/bin/env python3
"""Run the multi-tenant serving bench, write ``BENCH_service.json``.

Usage::

    PYTHONPATH=src python experiments/service.py [--quick] \
        [--out BENCH_service.json] [--loadgen BENCH_loadgen.json]

Exits non-zero if any acceptance gate fails:

- a clean tenant served next to a noisy (lossy, fault-injected,
  quota-throttled) neighbor is *bit-identical* to its solo run —
  verdict digest and latency percentiles — and none of the neighbor's
  degradation kinds appear in its ledger,
- a hot O-CFG/ITC-CFG reload mid-run drops zero in-flight checks,
  retires the displaced version after drain, and repeats
  bit-identically,
- a graceful drain applies every submitted check before stopping and
  the books still reconcile,
- the full duo run under the observability plane reconciles every
  tenant's cycle and degradation ledgers exactly,
- admission control sheds exactly the sessions over budget (ledger
  events, never silent) and the loadgen knee recorded by a full
  (non-``--quick``) sweep stays at or above the trajectory floor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import service  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode (same gates, same shapes)")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="output JSON path")
    parser.add_argument("--loadgen", default="BENCH_loadgen.json",
                        help="loadgen payload for the knee gate")
    args = parser.parse_args(argv)

    results = service.run(quick=args.quick, loadgen_path=args.loadgen)
    print(service.format_table(results))

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[wrote {out}]")

    failures = service.gates_passed(results)
    for name in failures:
        print(f"FAIL: gate {name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
