"""Tests for the §6 hardware-extension projection model."""

import pytest

from repro import costs
from repro.hwext import HardwareExtensionModel
from repro.monitor.flowguard import MonitorStats


class TestProjectionModel:
    def _stats(self):
        return MonitorStats(
            trace_cycles=100.0,
            decode_cycles=500.0,
            check_cycles=50.0,
            other_cycles=50.0,
            checks=10,
        )

    def test_hw_decoder_scales_decode(self):
        model = HardwareExtensionModel(hw_decoder=True)
        projected = model.apply(self._stats())
        ratio = costs.HW_DECODE_CYCLES_PER_BYTE / costs.FAST_DECODE_CYCLES_PER_BYTE
        assert projected.decode_cycles == pytest.approx(500.0 * ratio)
        assert projected.trace_cycles == 100.0

    def test_all_extensions_compound(self):
        model = HardwareExtensionModel(
            hw_decoder=True, multi_cr3=True, hw_cfi_logic=True
        )
        projected = model.apply(self._stats())
        assert projected.total_cycles < self._stats().total_cycles / 2

    def test_original_stats_untouched(self):
        stats = self._stats()
        HardwareExtensionModel().apply(stats)
        assert stats.decode_cycles == 500.0
