"""FlowGuard reproduction benchmark: four closed-loop workloads, two clocks.

Usage (from the repository root)::

    python3 perf/run.py                      # every workload: 3 runs + 1 traced
    python3 perf/run.py --quick              # the same shape, ~5% of the work
    python3 perf/run.py --workload nginx-knee --seed 0 --seconds 20 --trace 0
    python3 perf/run.py --compare BASE.json NEW.json

A ``--workload`` run sets the workload up, runs each of its fixed units
once in an order the seed picks, checks every output, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed``
and the metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  It exits 1 when a correctness check fails.  The work
is fixed in code, sized so that a run measures about ``run_seconds``
of ``BENCHMARK.json`` on a 2-core x86_64 host; ``--seconds`` is
recorded but changes nothing, so two commits always measure the same
work.  End-to-end times are in reference seconds, which take the
host's own speed out (see ``flowbench/hostspeed.py``).

Without ``--workload`` the script runs each workload three times
(seeds N, N+1, N+2) plus one traced run, each in a fresh subprocess and
never in parallel, with run order interleaved across workloads; it
prints every metric with its unit, quartiles and sample count, writes
``perf/out/results.json``, and exits 1 if any check fails or a charged
metric or digest differs between runs.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()
_STARTED_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
DEFAULT_RESULTS = OUT_DIR / "results.json"


def _bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_stack():
    """Import the program under test from the checkout's ``src``."""
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure some other installed copy of the program.
        sys.exit(f"perf/run.py: no src/repro under {ROOT}")
    # The optional C scan kernel compiles into the temp directory; keep
    # that inside the checkout.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(PERF_DIR))
    from flowbench import bench

    return bench


# -- one workload ------------------------------------------------------------


def run_one(args) -> int:
    bench = _import_stack()
    import_s = time.perf_counter() - _STARTED
    import_cpu_s = time.process_time() - _STARTED_CPU
    # Build (or load) the scan kernel now: it is a build step, not set-up.
    bench.environment()
    run = bench.Run(args.workload, args.seed, bool(args.trace), args.quick,
                    import_s, import_cpu_s)
    out = run.execute()
    detail, result = out["detail"], out["result"]
    detail["seconds"] = args.seconds
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} {kind}: "
          f"{detail['units_run']} units, digest {detail['digest'][:16]}")
    for name, cell in result["metrics"].items():
        samples = detail["samples"].get(name)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:34s} {cell['value']:>16.6g} {cell['unit']}{suffix}")
    for error in detail["errors"]:
        print(f"  CHECK FAILED: {error}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload ----------------------------------------------------------


def _child(workload: str, seed: int, trace: bool, quick: bool) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    detail = result = None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or detail is None:
        return {
            "workload": workload, "trace": trace, "returncode":
            proc.returncode, "error": (proc.stderr or proc.stdout)[-2000:],
        }
    return {"workload": workload, "trace": trace,
            "returncode": proc.returncode, "detail": detail,
            "result": result}


def summarize(runs: list, charged: tuple) -> dict:
    """Per workload: each metric's median and quartiles over its runs,
    plus the cross-run identity checks."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name and "result" in r]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        problems = [
            f"run {i} exited {r['returncode']}: {r.get('error', '')[-300:]}"
            for i, r in enumerate(runs)
            if r["workload"] == name and "result" not in r
        ]
        for r in mine:
            problems.extend(r["detail"]["errors"])
        metrics = {}
        for metric in (plain[0]["result"]["metrics"] if plain else {}):
            values = [r["result"]["metrics"][metric]["value"] for r in plain]
            q1, q3 = (quantiles(values, n=4)[0::2] if len(values) > 1
                      else (values[0], values[0]))
            mid = median(values)
            metrics[metric] = {
                "median": mid, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / mid if mid else 0.0,
                "unit": plain[0]["result"]["metrics"][metric]["unit"],
                "samples": plain[0]["detail"]["samples"].get(metric),
                "values": values,
            }
            if metric in charged and len(set(values)) > 1:
                problems.append(f"charged metric {metric} differs "
                                f"between runs: {values}")
        digests = {r["detail"]["digest"] for r in mine}
        if len(digests) > 1:
            problems.append("outcome digests differ between runs "
                            "(traced and untraced included)")
        out[name] = {
            "correct": not problems,
            "problems": problems,
            "digest": plain[0]["detail"]["digest"] if plain else None,
            "attempted": sum(r["result"]["attempted"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
            "metrics": metrics,
            "per_layer": traced[0]["result"]["metrics"] if traced else {},
            "environment": (mine[0]["detail"]["environment"]
                            if mine else None),
        }
    return out


def run_all(args) -> int:
    bench = _import_stack()
    config = _bench_config()
    names = [w["name"] for w in config["workloads"]]
    repeats = 2 if args.quick else 3
    runs = []
    # Each repeat uses another seed, so another unit order: the charged
    # metrics and digests must not depend on it.
    order = [(name, args.seed + rep, False)
             for rep in range(repeats) for name in names]
    order += [(name, args.seed, True) for name in names]
    for name, seed, trace in order:
        started = time.perf_counter()
        run = _child(name, seed, trace, args.quick)
        print(f"{name:20s} {'traced' if trace else 'untraced':8s} "
              f"{time.perf_counter() - started:6.1f} s "
              f"{'ok' if run.get('result', {}).get('correct') else 'FAIL'}",
              flush=True)
        runs.append(run)
    summary = summarize(runs, bench.CHARGED)
    results = {
        "kind": "flowbench-results",
        "seed": args.seed,
        "repeats": repeats,
        "quick": args.quick,
        "workloads": summary,
    }
    print()
    print_summary(summary)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out}")
    return 0 if all(w["correct"] for w in summary.values()) else 1


def print_summary(summary: dict) -> None:
    for name, w in summary.items():
        status = "ok" if w["correct"] else "FAILED"
        print(f"== {name}: {status}, attempted {w['attempted']}, "
              f"failed {w['failed']}, digest {str(w['digest'])[:16]}")
        for metric, m in w["metrics"].items():
            print(f"  {metric:22s} {m['median']:>14.6g} {m['unit']:9s} "
                  f"[{m['q1']:.6g} .. {m['q3']:.6g}] "
                  f"spread {100 * m['spread']:.2f}%  n={m['samples']}")
        layers = {k: v["value"] for k, v in w["per_layer"].items()}
        if layers:
            top = sorted(
                (k for k in layers if k.endswith(".self_pct")),
                key=lambda k: -layers[k],
            )[:6]
            shares = ", ".join(
                f"{k[:-len('.self_pct')]} {layers[k]:.0f}%" for k in top
            )
            print(f"  traced: {shares}; tracing overhead "
                  f"{layers['trace.overhead_pct']:.1f}%, attributed "
                  f"{layers['trace.attributed_pct']:.1f}%")
        for problem in w["problems"]:
            print(f"  CHECK FAILED: {problem}")


# -- comparison --------------------------------------------------------------


def _load_results(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") == "flowbench-baseline":
        doc = doc["sets"][0]
    if doc.get("kind") != "flowbench-results":
        raise SystemExit(f"{path}: not a perf/run.py results file")
    return doc


def compare(base_path: str, new_path: str) -> int:
    """One row per (workload, metric), judged by BENCHMARK.json bounds.

    Exits 1 on a regression, and on any NEW workload that is missing,
    failed a correctness check, failed more operations than the base,
    or lacks a metric: a broken run never compares as unchanged."""
    config = _bench_config()
    base, new = _load_results(base_path), _load_results(new_path)
    regressions = failures = 0
    print(f"{'workload':20s} {'metric':22s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name in (w["name"] for w in config["workloads"]):
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None:
            print(f"{name:20s} not in {base_path}: nothing to compare")
            continue
        if n is None:
            print(f"{name:20s} FAILED: missing from {new_path}")
            failures += 1
            continue
        if not n["correct"]:
            print(f"{name:20s} FAILED: correctness checks failed: "
                  f"{'; '.join(n['problems'])[:300]}")
            failures += 1
        if n["failed"] > b["failed"]:
            print(f"{name:20s} FAILED: {n['failed']} failed operations, "
                  f"base {b['failed']}")
            failures += 1
        for spec in config["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            bm, nm = b["metrics"].get(metric), n["metrics"].get(metric)
            if nm is None:
                print(f"{name:20s} {metric:22s} FAILED: missing from "
                      f"{new_path}")
                failures += 1
                continue
            if bm is None:
                continue
            sign = 1 if spec["better"] == "lower" else -1
            change = (nm["median"] - bm["median"]) / bm["median"]
            worse = sign * change
            all_better = all(
                sign * (x - y) < 0
                for x in nm["values"] for y in bm["values"]
            )
            if max(bm["spread"], nm["spread"]) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressions += 1
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{name:20s} {metric:22s} {bm['median']:>12.6g} "
                  f"{nm['median']:>12.6g} {100 * change:>+7.2f}% "
                  f"{100 * bound:>5.1f}%  {verdict}")
        same = b["digest"] == n["digest"]
        print(f"{name:20s} {'charged digest':22s} "
              f"{'match' if same else 'DIFFER'}")
    print(f"{regressions} regressed, {failures} failed")
    return 1 if regressions or failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="FlowGuard reproduction benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="recorded only: the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="about 5%% of each workload's size")
    parser.add_argument("--out", default=str(DEFAULT_RESULTS),
                        help="results file (all workloads)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
