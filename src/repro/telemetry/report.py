"""Self-contained run reports from sampler + flight-recorder dumps.

``repro report`` feeds one of three JSON payloads through here:

- a **plane dump** (:meth:`ObservabilityPlane.to_dict`, ``kind:
  "plane-dump"``),
- a **BENCH_observability.json** (the experiment's scenario pairs, each
  plane-attached scenario carrying its own plane dump),
- a **loadgen bench** payload (``kind: "loadgen-bench"``, from ``repro
  bench`` or ``repro experiments loadgen``: throughput vs offered load
  with the SLO-knee callout and the search convergence trace), or
- a **StatsReport** v3+ (``schema_version`` present; the ``slo``
  section is rendered, the timeseries sections are skipped).

The renderer builds a neutral block model (headings, paragraphs,
tables, sparklines) and serializes it as GitHub-flavored markdown or a
standalone HTML page with inline CSS — no external assets, so the
output file travels whole.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import series_base

_SPARK = "▁▂▃▄▅▆▇█"

#: counter series charted in the timeseries section, by base name
#: (the busiest few; everything is still in the raw dump).
_CHART_LIMIT = 6


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a series (empty string for no data)."""
    values = list(values)
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - low) / span * (len(_SPARK) - 1)))]
        for v in values
    )


# -- block model -------------------------------------------------------------

Block = Tuple  # ("heading", level, text) | ("para", text) | ("table", ...)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:,.2f}"
    if value is None:
        return "-"
    return str(value)


def _slo_blocks(slo: dict, title: str = "SLO objectives") -> List[Block]:
    blocks: List[Block] = [("heading", 2, title)]
    rows = []
    for obj in slo.get("objectives", []):
        rows.append([
            obj["name"],
            obj["kind"],
            _fmt(obj["max_value"]),
            f"{obj['target']:.0%}",
            obj["windows"],
            obj["violations"],
            f"{obj['compliance']:.1%}",
            f"{obj['budget_burn']:.2f}",
            "met" if obj["met"] else "MISSED",
        ])
    blocks.append((
        "table",
        ["objective", "kind", "bound", "target", "windows", "violations",
         "compliance", "burn", "verdict"],
        rows,
    ))
    verdict = "all objectives met" if slo.get("met") \
        else f"objectives missed (total burn {slo.get('total_burn', 0):.2f})"
    blocks.append(("para", f"Overall: **{verdict}**."))
    breakdown_rows = []
    for obj in slo.get("objectives", []):
        for series, cell in (obj.get("breakdown") or {}).items():
            if cell["violations"]:
                breakdown_rows.append([
                    obj["name"], series, cell["windows"],
                    cell["violations"], _fmt(cell["worst"]),
                ])
    if breakdown_rows:
        blocks.append(("heading", 3, "Per-label breakdown (violating series)"))
        blocks.append((
            "table",
            ["objective", "series", "windows", "violations", "worst"],
            breakdown_rows,
        ))
    by_pid = slo.get("degradations_by_pid") or {}
    if by_pid:
        blocks.append(("heading", 3, "Degradations by process"))
        blocks.append((
            "table",
            ["kind/pid", "events"],
            [[k, v] for k, v in by_pid.items()],
        ))
    return blocks


def _timeseries_blocks(samples: Sequence[dict]) -> List[Block]:
    if len(samples) < 2:
        return []
    blocks: List[Block] = [("heading", 2, "Timeseries")]
    t0, t1 = samples[0]["t"], samples[-1]["t"]
    blocks.append((
        "para",
        f"{len(samples)} resident samples over virtual cycles "
        f"{t0:,.0f} – {t1:,.0f}.",
    ))
    # Busiest counters (by final total across series), charted as
    # per-window deltas.
    totals: Dict[str, float] = {}
    for series, value in samples[-1]["counters"].items():
        base = series_base(series)
        totals[base] = totals.get(base, 0.0) + value
    top = sorted(totals, key=lambda b: -totals[b])[:_CHART_LIMIT]
    rows = []
    for base in top:
        cum = [
            sum(v for s, v in sample["counters"].items()
                if series_base(s) == base)
            for sample in samples
        ]
        deltas = [b - a for a, b in zip(cum, cum[1:])]
        rows.append([base, _fmt(cum[-1]), sparkline(deltas)])
    overhead = [
        s["profile"]["total"] / s["t"] if s["t"] > 0 else 0.0
        for s in samples
    ]
    rows.append([
        "monitor cycles / virtual time", f"{overhead[-1]:.2%}"
        if overhead[-1] < 10 else _fmt(overhead[-1]), sparkline(overhead),
    ])
    blocks.append(("table", ["series", "final", "trend"], rows))
    return blocks


def _flight_blocks(flight: dict, dumps: Sequence[dict]) -> List[Block]:
    blocks: List[Block] = [("heading", 2, "Flight recorder")]
    counts = flight.get("counts") or {}
    if counts:
        blocks.append((
            "table",
            ["event kind", "count"],
            [[k, v] for k, v in counts.items()],
        ))
    else:
        blocks.append(("para", "No events recorded."))
    for index, dump in enumerate(dumps):
        blocks.append((
            "heading", 3,
            f"Dump {index + 1}: {dump['reason']} (t={dump['t']:,.0f})",
        ))
        tail = dump.get("events", [])[-10:]
        blocks.append((
            "table",
            ["seq", "t", "kind", "pid", "detail"],
            [[e["seq"], f"{e['t']:,.0f}", e["kind"], e["pid"], e["detail"]]
             for e in tail],
        ))
    return blocks


def _ablation_blocks(points: Sequence[dict]) -> List[Block]:
    if not points:
        return []
    return [
        ("heading", 2, "Ablation: psb_period"),
        (
            "table",
            ["psb_period", "trace share", "decode share", "overhead",
             "checks"],
            [[p["psb_period"],
              f"{p['trace_share']:.1%}", f"{p['decode_share']:.1%}",
              f"{p['overhead']:.2%}", p["checks"]] for p in points],
        ),
    ]


def _plane_dump_blocks(dump: dict) -> List[Block]:
    blocks: List[Block] = []
    slo = dump.get("slo")
    if slo:
        blocks.extend(_slo_blocks(slo))
    blocks.extend(_timeseries_blocks(dump.get("samples", [])))
    blocks.extend(
        _flight_blocks(dump.get("flight") or {}, dump.get("dumps", []))
    )
    return blocks


def _loadgen_blocks(payload: dict, title: Optional[str]) -> List[Block]:
    """The ``repro bench`` report: throughput vs offered load, the
    SLO-knee callout, and the search convergence trace."""
    blocks: List[Block] = [
        ("heading", 1, title or "FlowGuard load-generation report"),
    ]
    scenario = payload.get("scenario") or {}
    if scenario:
        blocks.append((
            "para",
            f"Scenario `{scenario.get('name', '?')}`: "
            f"{scenario.get('mode', '?')}-loop over "
            f"{', '.join(scenario.get('servers', []))} "
            f"(mix `{scenario.get('mix', '?')}`, "
            f"{scenario.get('workers', '?')} workers, seed "
            f"{scenario.get('seed', '?')}); SLO p"
            f"{scenario.get('slo_percentile', 99):.0f} latency ≤ "
            f"{scenario.get('slo_latency', 0):,.0f} cycles.",
        ))
    gates = payload.get("gates") or {}
    if gates:
        blocks.append(("heading", 2, "Gates"))
        blocks.append((
            "table",
            ["gate", "result"],
            [[name, _fmt(ok)] for name, ok in gates.items()],
        ))
    sweep = payload.get("sweep") or []
    if sweep:
        blocks.append(("heading", 2, "Throughput vs offered load"))
        blocks.append((
            "table",
            ["connections", "offered", "done", "req/Mcycle", "p50",
             "p99", "overhead", "exact"],
            [[
                p["connections"],
                f"{p['offered_load']:,.1f}",
                p["completed"],
                f"{p['throughput']:,.2f}",
                f"{p['latency']['p50']:,.0f}",
                f"{p['latency']['p99']:,.0f}",
                f"{p['overhead']:.1%}",
                _fmt(p["accounting_exact"] and p["ledger_exact"]),
            ] for p in sweep],
        ))
        blocks.append((
            "para",
            "throughput `"
            + sparkline([p["throughput"] for p in sweep])
            + "`  p99 latency `"
            + sparkline([p["latency"]["p99"] for p in sweep])
            + "`",
        ))
    knee = payload.get("knee")
    search = payload.get("search") or {}
    callout = []
    if knee:
        callout.append(
            f"Saturation knee at **{knee['connections']} connections** "
            f"({knee['throughput']:,.2f} req/Mcycle)."
        )
    if search:
        if search.get("best_connections") is not None:
            callout.append(
                f"Max throughput under SLO: "
                f"**{search['max_throughput']:,.2f} req/Mcycle at "
                f"{search['best_connections']} connections** "
                f"({search['probes']} probes over "
                f"[{search['lower']}, {search['upper']}])."
            )
        else:
            callout.append(
                "Even the lower bound misses the SLO — no sustainable "
                "operating point."
            )
    if callout:
        blocks.append(("para", " ".join(callout)))
    trace = search.get("trace") or []
    if trace:
        blocks.append(("heading", 2, "SLO search convergence"))
        blocks.append((
            "table",
            ["probe", "connections", "latency", "met", "lower", "upper"],
            [[
                row["probe"], row["connections"],
                f"{row.get('latency', 0):,.0f}",
                _fmt(row["met"]), row["lower"], row["upper"],
            ] for row in trace],
        ))
    return blocks


def build_blocks(payload: dict, title: Optional[str] = None) -> List[Block]:
    """Payload (plane dump / BENCH / StatsReport) -> block model."""
    blocks: List[Block] = []
    if payload.get("kind") == "plane-dump":
        blocks.append(("heading", 1, title or "FlowGuard run report"))
        blocks.extend(_plane_dump_blocks(payload))
        return blocks
    if payload.get("kind") == "loadgen-bench":
        return _loadgen_blocks(payload, title)
    if "scenarios" in payload:  # BENCH_observability.json
        blocks.append((
            "heading", 1, title or "FlowGuard observability report",
        ))
        gates = payload.get("gates") or {}
        if gates:
            blocks.append(("heading", 2, "Gates"))
            blocks.append((
                "table",
                ["gate", "result"],
                [[name, _fmt(ok)] for name, ok in gates.items()],
            ))
        for name, row in payload["scenarios"].items():
            dump = row.get("plane_dump")
            if dump is None:
                continue
            blocks.append(("heading", 2, f"Scenario: {name}"))
            blocks.append((
                "para",
                f"{row['tasks']} checks, {len(row['quarantined'])} "
                f"quarantined, overhead {row['overhead']:.2%}, "
                f"digest `{row['digest'][:16]}`.",
            ))
            slo = dump.get("slo")
            if slo:
                blocks.extend(
                    _slo_blocks(slo, title=f"SLO objectives — {name}")
                )
            blocks.extend(_timeseries_blocks(dump.get("samples", [])))
            blocks.extend(_flight_blocks(
                dump.get("flight") or {}, dump.get("dumps", [])
            ))
        blocks.extend(_ablation_blocks(payload.get("ablation") or []))
        return blocks
    if "schema_version" in payload:  # StatsReport v3+
        blocks.append(("heading", 1, title or "FlowGuard stats report"))
        context = payload.get("context") or {}
        blocks.append((
            "para",
            "Context: " + (", ".join(
                f"{k}={v}" for k, v in context.items()
            ) or "unknown") + ".",
        ))
        slo = payload.get("slo")
        if slo:
            blocks.extend(_slo_blocks(slo))
        else:
            blocks.append(
                ("para", "No observability plane was attached to this run.")
            )
        return blocks
    raise ValueError(
        "unrecognized report payload: expected a plane dump, a "
        "BENCH_observability.json, a loadgen bench, or a StatsReport"
    )


# -- serializers -------------------------------------------------------------

def _render_markdown(blocks: Sequence[Block]) -> str:
    out: List[str] = []
    for block in blocks:
        kind = block[0]
        if kind == "heading":
            _, level, text = block
            out.append("#" * level + " " + text)
        elif kind == "para":
            out.append(block[1])
        elif kind == "table":
            _, headers, rows = block
            out.append("| " + " | ".join(map(str, headers)) + " |")
            out.append("|" + "|".join(" --- " for _ in headers) + "|")
            for row in rows:
                out.append("| " + " | ".join(map(str, row)) + " |")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


_HTML_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem
       auto; max-width: 60rem; color: #1a1a2e; line-height: 1.5; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { border-bottom: 1px solid #c9cbd8; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .92rem; }
th, td { border: 1px solid #c9cbd8; padding: .3rem .6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f0f1f6; }
code { background: #f0f1f6; padding: .1rem .3rem; border-radius: 3px; }
"""


def _inline_html(text: str) -> str:
    """Escape, then re-apply the two markdown inlines the model uses."""
    escaped = _html.escape(text)
    for marker, tag in (("**", "strong"), ("`", "code")):
        while escaped.count(marker) >= 2:
            escaped = escaped.replace(marker, f"<{tag}>", 1)
            escaped = escaped.replace(marker, f"</{tag}>", 1)
    return escaped


def _render_html(blocks: Sequence[Block], title: str) -> str:
    body: List[str] = []
    for block in blocks:
        kind = block[0]
        if kind == "heading":
            _, level, text = block
            body.append(f"<h{level}>{_html.escape(text)}</h{level}>")
        elif kind == "para":
            body.append(f"<p>{_inline_html(block[1])}</p>")
        elif kind == "table":
            _, headers, rows = block
            cells = "".join(
                f"<th>{_html.escape(str(h))}</th>" for h in headers
            )
            body.append("<table><thead><tr>" + cells + "</tr></thead><tbody>")
            for row in rows:
                body.append("<tr>" + "".join(
                    f"<td>{_html.escape(str(c))}</td>" for c in row
                ) + "</tr>")
            body.append("</tbody></table>")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>{_HTML_CSS}</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )


def render_report(
    payload: dict,
    fmt: str = "markdown",
    title: Optional[str] = None,
) -> str:
    """Render a report payload as ``markdown`` or standalone ``html``."""
    blocks = build_blocks(payload, title=title)
    heading = next(
        (b[2] for b in blocks if b[0] == "heading"), "FlowGuard report"
    )
    if fmt == "markdown":
        return _render_markdown(blocks)
    if fmt == "html":
        return _render_html(blocks, heading)
    raise ValueError(f"unknown report format {fmt!r}")
