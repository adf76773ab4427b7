"""Cycle-attribution profiler: simulated cycles by phase and component.

The cost model (:mod:`repro.costs`) charges deterministic cycles, and
:meth:`repro.monitor.flowguard.MonitorStats.charge` is the one place
they are written: each charge lands in a per-process
``(component, phase)`` cell and in the Figure 5 accumulator its phase
folds into.  This profiler is a read-only view over those cells for
every process protected while telemetry was on, attributed along two
axes — the Figure 5 **phase** (trace / decode / search / shadow-stack /
upcall / intercept) and the **component** that spent them
(``monitor.fastpath``, ``monitor.slowpath``, ``ipt.encoder.pid<n>``,
...) — so any slice of the pipeline can cite exactly where its cycles
went.

Tracing cost is cumulative on the encoder; it appears as each
process's ``stats.trace_cycles`` (refreshed by ``stats_for``) under
``ipt.encoder[.<tenant>].pid<n>``.  The tenant tag keeps cells apart
when a tenant fault domain owns the monitor: pids restart from 1 in
every tenant's kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The canonical phase names, in Figure 5 presentation order.
PHASES = ("trace", "decode", "search", "shadow-stack", "upcall", "intercept")


class CycleProfiler:
    """Sums the charged cells of every registered protected process."""

    def __init__(self) -> None:
        #: (encoder component name, MonitorStats) per registered process.
        self._sources: List[Tuple[str, object]] = []

    def register(self, pp, tenant: Optional[str] = None) -> None:
        """Add a protected process's stats to the view."""
        prefix = "ipt.encoder" if tenant is None else f"ipt.encoder.{tenant}"
        self._sources.append((f"{prefix}.pid{pp.process.pid}", pp.stats))

    # -- views ---------------------------------------------------------------

    def _cells(self) -> Dict[Tuple[str, str], float]:
        out: Dict[Tuple[str, str], float] = {}
        for encoder, stats in self._sources:
            if stats.trace_cycles:
                key = (encoder, "trace")
                out[key] = out.get(key, 0.0) + stats.trace_cycles
            for key, cycles in stats.cells.items():
                out[key] = out.get(key, 0.0) + cycles
        return out

    def per_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_, phase), cycles in self._cells().items():
            out[phase] = out.get(phase, 0.0) + cycles
        return out

    def per_component(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (component, _), cycles in self._cells().items():
            out[component] = out.get(component, 0.0) + cycles
        return out

    def total(self) -> float:
        return sum(self._cells().values())

    def snapshot(self) -> Dict[str, object]:
        cells = self._cells()
        return {
            "total_cycles": sum(cells.values()),
            "phases": dict(sorted(self.per_phase().items())),
            "components": dict(sorted(self.per_component().items())),
            "cells": {
                f"{component}/{phase}": cycles
                for (component, phase), cycles in sorted(cells.items())
            },
        }

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        self._sources.clear()
