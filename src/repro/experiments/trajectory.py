"""Per-PR performance trajectory: the knee curve over time, not a point.

``repro experiments loadgen`` measures one PR's saturation knee and
max-throughput-under-SLO; this module keeps the *history*.  Each perf
PR appends one entry to ``BENCH_trajectory.json`` — an append-only
record extracted from that PR's ``BENCH_loadgen.json`` — so a reviewer
sees the curve (did the knee move? did max-under-SLO regress?) instead
of a single number with no baseline.

Contract:

- **append-only** — existing entries are never rewritten; re-running
  the driver with a label that is already recorded replaces only that
  entry (the latest run of a PR supersedes its own earlier run), every
  other entry survives byte-for-byte.
- **gated** — the newest entry's knee throughput must clear the
  recorded floor (the PR 7 baseline, 75.5 req/Mcycle) and must not
  regress below the first recorded entry.

The driver (``experiments/trajectory.py`` at the repo root) reads the
already-written ``BENCH_loadgen.json`` rather than re-running the load
harness, so recording the trajectory costs nothing beyond the loadgen
run the PR already pays for.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

KIND = "loadgen-trajectory"

#: The knee floor every recorded entry must clear (req/Mcycle).  Set
#: by the PR 7 baseline; raise it when the curve moves up for good.
KNEE_FLOOR = 75.5

#: The PR 7 baseline, transcribed from that PR's ``BENCH_loadgen.json``
#: (nginx-closed, seed 0).  Used to seed a trajectory file that does
#: not exist yet so the curve always starts at the first measured PR.
BASELINE_ENTRY: Dict[str, object] = {
    "label": "pr7",
    "scenario": "nginx-closed",
    "knee_connections": 3,
    "knee_throughput": 75.52748768083352,
    "best_connections": 3,
    "max_under_slo": 75.52748768083352,
    "probes": 3,
    "slo_latency": 60000.0,
    "slo_percentile": 99.0,
    "gates_green": True,
    "quick": False,
}

_ENTRY_KEYS = tuple(BASELINE_ENTRY)


def new_trajectory() -> Dict[str, object]:
    """An empty trajectory document seeded with the PR 7 baseline."""
    return {"kind": KIND, "entries": [dict(BASELINE_ENTRY)]}


def load_trajectory(path: str) -> Dict[str, object]:
    """The trajectory at ``path``, or a freshly seeded one if absent."""
    if not os.path.exists(path):
        return new_trajectory()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != KIND:
        raise ValueError(
            f"{path} is not a {KIND} document (kind={doc.get('kind')!r})"
        )
    for entry in doc.get("entries", []):
        missing = [k for k in _ENTRY_KEYS if k not in entry]
        if missing:
            raise ValueError(
                f"trajectory entry {entry.get('label')!r} is missing "
                f"keys: {', '.join(missing)}"
            )
    return doc


def save_trajectory(doc: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def entry_from_loadgen(
    results: Dict[str, object], label: str
) -> Dict[str, object]:
    """One trajectory entry distilled from a loadgen results payload
    (the in-memory dict or the parsed ``BENCH_loadgen.json``)."""
    knee = results["knee"]
    search = results["search"]
    scenario = results["scenario"]
    gates = results.get("gates", {})
    return {
        "label": label,
        "scenario": scenario["name"],
        "knee_connections": knee["connections"],
        "knee_throughput": knee["throughput"],
        "best_connections": search["best_connections"],
        "max_under_slo": search["max_throughput"],
        "probes": search["probes"],
        "slo_latency": search["slo_latency"],
        "slo_percentile": search["slo_percentile"],
        "gates_green": all(
            ok for ok in gates.values() if isinstance(ok, bool)
        ),
        "quick": bool(results.get("quick", False)),
    }


def append_entry(
    doc: Dict[str, object], entry: Dict[str, object]
) -> Dict[str, object]:
    """``doc`` with ``entry`` recorded, append-only.

    Every entry whose label differs from ``entry['label']`` is carried
    over untouched; an entry with the same label is replaced in place
    (a PR re-running its own driver supersedes itself, never history).
    """
    entries: List[Dict[str, object]] = []
    replaced = False
    for existing in doc.get("entries", []):
        if existing.get("label") == entry["label"]:
            entries.append(dict(entry))
            replaced = True
        else:
            entries.append(dict(existing))
    if not replaced:
        entries.append(dict(entry))
    return {"kind": KIND, "entries": entries}


def trajectory_gates(doc: Dict[str, object]) -> Dict[str, bool]:
    """The acceptance gates over the recorded curve."""
    entries = list(doc.get("entries", []))
    if not entries:
        return {
            "has_entries": False,
            "knee_at_or_above_floor": False,
            "no_regression_vs_first": False,
            "all_entries_green": False,
        }
    latest = entries[-1]
    first = entries[0]
    return {
        "has_entries": True,
        "knee_at_or_above_floor": (
            latest["knee_throughput"] >= KNEE_FLOOR
        ),
        "no_regression_vs_first": (
            latest["knee_throughput"] >= first["knee_throughput"]
            # Quick entries probe a smaller sweep; only full runs are
            # comparable against the full-run baseline.
            or bool(latest.get("quick"))
        ),
        "all_entries_green": all(
            e.get("gates_green", False) for e in entries
        ),
    }


def gates_passed(doc: Dict[str, object]) -> List[str]:
    """Names of the gates that failed (empty = all green)."""
    return [
        name for name, ok in trajectory_gates(doc).items() if not ok
    ]


def format_table(doc: Dict[str, object]) -> str:
    from repro.experiments.common import format_rows

    entries = doc.get("entries", [])
    table = format_rows(
        ["label", "scenario", "knee@conns", "req/Mcyc",
         "max-under-SLO", "best", "green"],
        [[e["label"], e["scenario"], e["knee_connections"],
          f"{e['knee_throughput']:.2f}",
          f"{e['max_under_slo']:.2f}", e["best_connections"],
          "yes" if e["gates_green"] else "NO"]
         for e in entries],
    )
    gates = trajectory_gates(doc)
    return (
        f"Performance trajectory — knee floor "
        f"{KNEE_FLOOR:.1f} req/Mcycle, {len(entries)} entries\n"
        + table
        + "\n\nGates: "
        + ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in gates.items()
        )
    )


def record(
    loadgen_path: str,
    trajectory_path: str,
    label: str,
    results: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Read loadgen results, append one entry, write the trajectory.

    ``results`` short-circuits the read when the caller already holds
    the loadgen payload in memory (the bench drivers chain this way).
    """
    if results is None:
        with open(loadgen_path, "r", encoding="utf-8") as fh:
            results = json.load(fh)
    doc = load_trajectory(trajectory_path)
    doc = append_entry(doc, entry_from_loadgen(results, label))
    save_trajectory(doc, trajectory_path)
    return doc
