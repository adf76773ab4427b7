#!/usr/bin/env python3
"""Record this PR's knee into the append-only ``BENCH_trajectory.json``.

Usage::

    PYTHONPATH=src python experiments/trajectory.py --label pr8 \
        [--loadgen BENCH_loadgen.json] [--out BENCH_trajectory.json]
    PYTHONPATH=src python experiments/trajectory.py --check

Reads the knee / max-throughput-under-SLO already measured into
``BENCH_loadgen.json`` by ``python -m repro experiments loadgen`` and
appends one labelled entry to the trajectory file — so perf PRs show the curve across PRs, not just this
PR's point.  Existing entries are never rewritten (re-recording the
same label replaces only that label's entry).

``--check`` validates the committed trajectory without appending —
the CI mode.  Exits non-zero if any gate fails:

- the newest entry's knee throughput clears the recorded floor
  (75.5 req/Mcycle, the PR 7 baseline),
- the newest full-run entry does not regress below the first entry,
- every recorded entry ran with all of its loadgen gates green.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import trajectory  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default=None,
                        help="entry label for this PR (e.g. pr8)")
    parser.add_argument("--loadgen", default="BENCH_loadgen.json",
                        help="loadgen results to distil the entry from")
    parser.add_argument("--out", default="BENCH_trajectory.json",
                        help="trajectory JSON path (appended to)")
    parser.add_argument("--check", action="store_true",
                        help="validate the existing trajectory only")
    args = parser.parse_args(argv)

    if args.check:
        doc = trajectory.load_trajectory(args.out)
    else:
        if args.label is None:
            parser.error("--label is required unless --check is given")
        doc = trajectory.record(args.loadgen, args.out, args.label)
        print(f"[recorded {args.label!r} into {args.out}]\n")

    print(trajectory.format_table(doc))

    failures = trajectory.gates_passed(doc)
    for name in failures:
        print(f"FAIL: gate {name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
