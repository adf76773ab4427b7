"""Overhead projection under the §6 hardware extensions (§7.2.4).

Takes a measured :class:`~repro.monitor.flowguard.MonitorStats`
breakdown (trace / decode / check / other) and projects the totals with
selected extensions enabled — the quantitative version of "a dedicated
hardware decoder can significantly reduce such overhead".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import costs
from repro.monitor.flowguard import MonitorStats


@dataclass
class HardwareExtensionModel:
    """Which suggested extensions to apply."""

    hw_decoder: bool = True
    multi_cr3: bool = False
    hw_cfi_logic: bool = False

    #: Fraction of tracing cost recovered by not reprogramming the CR3
    #: filter across multi-process context switches.
    multi_cr3_trace_saving: float = 0.3
    #: Fraction of checking cost offloaded to in-hardware simple CFI.
    hw_cfi_check_saving: float = 0.5

    def apply(self, stats: MonitorStats) -> MonitorStats:
        """A projected copy of ``stats`` with the extensions enabled
        (accumulators only: the projection charges no cells)."""
        decode_scale = (
            costs.HW_DECODE_CYCLES_PER_BYTE / costs.FAST_DECODE_CYCLES_PER_BYTE
            if self.hw_decoder else 1.0
        )
        trace_scale = (
            1.0 - self.multi_cr3_trace_saving if self.multi_cr3 else 1.0
        )
        check_scale = (
            1.0 - self.hw_cfi_check_saving if self.hw_cfi_logic else 1.0
        )
        return MonitorStats(
            trace_cycles=stats.trace_cycles * trace_scale,
            decode_cycles=stats.decode_cycles * decode_scale,
            check_cycles=stats.check_cycles * check_scale,
            other_cycles=stats.other_cycles,
            checks=stats.checks,
            fast_passes=stats.fast_passes,
            slow_path_runs=stats.slow_path_runs,
            pmi_count=stats.pmi_count,
        )

