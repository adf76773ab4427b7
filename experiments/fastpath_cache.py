#!/usr/bin/env python3
"""Run the fast-path caching benchmark and write
``BENCH_fastpath_cache.json``.

Usage::

    PYTHONPATH=src python experiments/fastpath_cache.py [--quick] \
        [--out BENCH_fastpath_cache.json]

``--quick`` shrinks the workloads for CI smoke runs; the JSON shape is
identical.  Exits non-zero if any gate fails: the cached runs must cut
decoded bytes and wall-clock decode time by at least 2x on the
repeated-snapshot workloads, produce bit-identical verdicts to the
uncached path, actually hit the shared cache across the fleet, and keep
the fleet's worker cycle ledger balancing the charged cycles exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import fastpath_cache  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads for CI smoke runs")
    parser.add_argument("--out", default="BENCH_fastpath_cache.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    results = fastpath_cache.run(quick=args.quick)
    print(fastpath_cache.format_table(results))

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[wrote {out}]")

    failures = [
        f"gate {name} failed"
        for name, ok in results["gates"].items()
        if not ok
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
