"""Ablations over FlowGuard's design knobs.

Quantifies the trade-offs the paper discusses qualitatively:

- ``pkt_count`` (§7.1.1): the checked-window size is the
  history-flushing bar; sweeping it shows the overhead each extra
  checked packet costs.
- ``cred_ratio`` (§7.1.1 formula): the AIA of the deployed mix as the
  high-credit fraction grows, including the crossover ratio beyond
  which FlowGuard beats plain O-CFG protection (the paper reports
  ~70% on its binaries).
- ``psb_period``: finer sync points cost trace bytes but shrink the
  tail the fast path must decode per check.
- PSB-parallel decode (§5.3): total work vs critical-path latency.
- the path-sensitive extension: stronger fast path vs extra slow-path
  traffic (the §7.1.2 future-work trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis import aia_fine, aia_itc, aia_ocfg, flowguard_aia
from repro.experiments.common import (
    format_rows,
    run_server,
    server_pipeline,
    server_requests,
)
from repro.monitor.policy import FlowGuardPolicy


# -- pkt_count sweep ----------------------------------------------------------


@dataclass
class PktCountPoint:
    pkt_count: int
    overhead: float
    decode_share: float


def sweep_pkt_count() -> List[PktCountPoint]:
    points = []
    for count in (5, 10, 30, 60):
        policy = FlowGuardPolicy(pkt_count=count)
        run = run_server(
            "nginx", server_requests("nginx", 6), protected=True,
            policy=policy,
        )
        stats = run.stats
        points.append(
            PktCountPoint(
                pkt_count=count,
                overhead=run.overhead,
                decode_share=(
                    stats.decode_cycles / stats.total_cycles
                    if stats.total_cycles else 0.0
                ),
            )
        )
    return points


# -- cred_ratio sweep -----------------------------------------------------------


@dataclass
class CredRatioCurve:
    ratios: List[float]
    aia_values: List[float]
    aia_ocfg: float
    crossover_ratio: float  # smallest swept ratio beating the O-CFG


def sweep_cred_ratio() -> CredRatioCurve:
    ratios = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 1.0)
    pipeline = server_pipeline("nginx")
    ocfg_value = aia_ocfg(pipeline.ocfg)
    itc_value = aia_itc(pipeline.itc)
    fine = aia_fine(pipeline.ocfg)
    values = [flowguard_aia(r, fine, itc_value) for r in ratios]
    crossover = next(
        (r for r, v in zip(ratios, values) if v < ocfg_value), 1.0
    )
    return CredRatioCurve(
        ratios=list(ratios),
        aia_values=values,
        aia_ocfg=ocfg_value,
        crossover_ratio=crossover,
    )


# -- psb_period sweep --------------------------------------------------------------


@dataclass
class PsbPoint:
    psb_period: int
    trace_share: float
    decode_share: float
    overhead: float
    checks: int


def sweep_psb_period(
    periods: Sequence[int] = (128, 256, 1024),
    sessions: int = 6,
) -> List[PsbPoint]:
    """Finer PSB periods shrink segments, raising trace share and
    per-segment decode overhead."""
    points = []
    for period in periods:
        run = run_server(
            "nginx", server_requests("nginx", sessions),
            protected=True,
            policy=FlowGuardPolicy(psb_period=period),
        )
        stats = run.stats
        total = stats.total_cycles or 1.0
        points.append(
            PsbPoint(
                psb_period=period,
                trace_share=stats.trace_cycles / total,
                decode_share=stats.decode_cycles / total,
                overhead=run.overhead,
                checks=stats.checks,
            )
        )
    return points


# -- parallel decode -----------------------------------------------------------------


@dataclass
class ParallelDecodeAblation:
    serial_cycles: float
    critical_path_cycles: float
    segments: int

    @property
    def speedup(self) -> float:
        if self.critical_path_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.critical_path_cycles


def measure_parallel_decode(sessions: int = 8) -> ParallelDecodeAblation:
    from repro.experiments.micro import capture_trace
    from repro.ipt.columnar import columnar_decode_parallel, columnar_scan

    _, _, data = capture_trace(sessions)
    serial = columnar_scan(data)
    parallel = columnar_decode_parallel(data)
    return ParallelDecodeAblation(
        serial_cycles=serial.cycles,
        critical_path_cycles=parallel.critical_path_cycles,
        segments=parallel.segments,
    )


# -- path sensitivity -------------------------------------------------------------------


@dataclass
class PathSensitivityAblation:
    edge_slow_rate: float
    path_slow_rate: float
    trained_grams: int


def measure_path_sensitivity() -> PathSensitivityAblation:
    pipeline = server_pipeline("nginx")
    requests = server_requests("nginx", 8)
    edge = run_server(
        "nginx", requests, protected=True,
        policy=FlowGuardPolicy(cache_slow_path_negatives=False),
    )
    path = run_server(
        "nginx", requests, protected=True,
        policy=FlowGuardPolicy(
            path_sensitive=True, cache_slow_path_negatives=False
        ),
    )
    return PathSensitivityAblation(
        edge_slow_rate=edge.stats.slow_path_rate,
        path_slow_rate=path.stats.slow_path_rate,
        trained_grams=(
            pipeline.path_index.trained_gram_count
            if pipeline.path_index else 0
        ),
    )


# -- rendering -------------------------------------------------------------------------


def format_all() -> str:
    sections = []
    points = sweep_pkt_count()
    sections.append(
        "pkt_count sweep (checked window vs overhead)\n"
        + format_rows(
            ["pkt_count", "overhead", "decode share"],
            [[p.pkt_count, f"{p.overhead * 100:.2f}%",
              f"{p.decode_share * 100:.0f}%"] for p in points],
        )
    )
    curve = sweep_cred_ratio()
    sections.append(
        "cred_ratio sweep (AIA formula, §7.1.1) — "
        f"O-CFG AIA {curve.aia_ocfg:.2f}, "
        f"crossover at ratio {curve.crossover_ratio:.1f}\n"
        + format_rows(
            ["cred_ratio", "AIA"],
            [[f"{r:.1f}", f"{v:.2f}"]
             for r, v in zip(curve.ratios, curve.aia_values)],
        )
    )
    psb = sweep_psb_period()
    sections.append(
        "psb_period sweep (sync granularity)\n"
        + format_rows(
            ["period", "trace share", "decode share", "overhead"],
            [[p.psb_period, f"{p.trace_share * 100:.0f}%",
              f"{p.decode_share * 100:.0f}%",
              f"{p.overhead * 100:.2f}%"] for p in psb],
        )
    )
    par = measure_parallel_decode()
    sections.append(
        f"PSB-parallel decode: {par.segments} segments, "
        f"{par.serial_cycles:.0f} serial cycles -> "
        f"{par.critical_path_cycles:.0f} critical path "
        f"({par.speedup:.1f}x)"
    )
    sensitivity = measure_path_sensitivity()
    sections.append(
        "path-sensitive fast path: slow-path rate "
        f"{sensitivity.edge_slow_rate * 100:.1f}% (edges) -> "
        f"{sensitivity.path_slow_rate * 100:.1f}% (paths), "
        f"{sensitivity.trained_grams} trained grams"
    )
    return "\n\n".join(sections)
