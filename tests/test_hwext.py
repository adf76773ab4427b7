"""Tests for the §6 hardware-extension models."""

import pytest

from repro import costs
from repro.cpu import BranchEvent, CoFIKind
from repro.hwext import (
    HardwareCFIFilter,
    HardwareExtensionModel,
    MultiCR3Config,
    PatternMatchDecoder,
    TipCountTrigger,
    project_overhead,
)
from repro.ipt.msr import RTIT_CTL
from repro.monitor.flowguard import MonitorStats


class TestPatternMatchDecoder:
    def _trace_bytes(self):
        from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion

        config = IPTConfig()
        config.write_ctl(
            RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER
        )
        encoder = IPTEncoder(config, output=ToPA([ToPARegion(4096)]))
        for i in range(40):
            encoder.on_branch(
                BranchEvent(CoFIKind.INDIRECT_JMP, 0x400000 + i,
                            0x400100 + i)
            )
        encoder.flush()
        return encoder.output.snapshot()

    def test_same_packets_cheaper_cycles(self):
        from repro.ipt import columnar_scan

        data = self._trace_bytes()
        software = columnar_scan(data)
        hw = PatternMatchDecoder()
        hardware = hw.decode(data)
        assert hardware.pkt_count == software.pkt_count
        assert hardware.ip_column() == software.ip_column()
        assert hardware.sig_column() == software.sig_column()
        assert hardware.rec_offsets == software.rec_offsets
        assert hardware.fup_addresses() == software.fup_addresses()
        assert hardware.cycles < software.cycles / 10
        assert hw.bytes_processed == len(data)

    def test_cost_ratio_matches_constants(self):
        data = self._trace_bytes()
        hw = PatternMatchDecoder().decode(data)
        expected = len(data) * costs.HW_DECODE_CYCLES_PER_BYTE
        assert hw.cycles == pytest.approx(expected)

    def test_truncated_stream_charges_scanned_bytes(self):
        """A cut final packet is not consumed, so neither decoder charges
        for it: the hardware side processes exactly the bytes the
        software scan charges."""
        from repro.ipt import columnar_scan

        data = self._trace_bytes()[:-1]
        software = columnar_scan(data)
        assert software.truncated
        scanned = software.cycles / costs.FAST_DECODE_CYCLES_PER_BYTE
        assert scanned < len(data)
        hw = PatternMatchDecoder()
        hardware = hw.decode(data)
        assert hw.bytes_processed == scanned
        assert hardware.cycles == pytest.approx(
            scanned * costs.HW_DECODE_CYCLES_PER_BYTE
        )
        assert hw.cycles == hardware.cycles


class TestMultiCR3:
    def test_set_membership(self):
        config = MultiCR3Config(cr3_values=[0x1000, 0x2000])
        config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.CR3_FILTER)
        assert config.accepts_cr3(0x1000)
        assert config.accepts_cr3(0x2000)
        assert not config.accepts_cr3(0x3000)

    def test_slots_bounded(self):
        config = MultiCR3Config(slots=2)
        config.add_cr3(1)
        config.add_cr3(2)
        with pytest.raises(ValueError):
            config.add_cr3(3)

    def test_remove(self):
        config = MultiCR3Config(cr3_values=[7])
        config.write_ctl(RTIT_CTL.CR3_FILTER)
        config.remove_cr3(7)
        assert not config.accepts_cr3(7)

    def test_no_filtering_accepts_all(self):
        config = MultiCR3Config()
        assert config.accepts_cr3(0x9999)

    def test_forked_worker_stays_traced(self):
        """The multi-process scenario of §6 item 2: a forked worker's
        fresh CR3 can be added without reprogramming."""
        config = MultiCR3Config(cr3_values=[0x1000])
        config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.CR3_FILTER)
        assert not config.accepts_cr3(0x5000)
        config.add_cr3(0x5000)  # the fork hook adds the child
        assert config.accepts_cr3(0x5000)


class TestHardwareCFIFilter:
    def test_wild_target_flagged(self):
        filter_ = HardwareCFIFilter()
        filter_.add_range(0x400000, 0x410000)
        filter_.on_branch(
            BranchEvent(CoFIKind.INDIRECT_CALL, 0x400010, 0x400100)
        )
        assert filter_.violations == []
        filter_.on_branch(
            BranchEvent(CoFIKind.RET, 0x400010, 0x7FFF0000)  # stack!
        )
        assert len(filter_.violations) == 1

    def test_direct_branches_ignored(self):
        filter_ = HardwareCFIFilter()
        filter_.on_branch(
            BranchEvent(CoFIKind.DIRECT_JMP, 0x400000, 0xDEAD0000)
        )
        assert filter_.checked == 0

    def test_for_image_covers_code_only(self):
        from repro.binary import Loader
        from repro.workloads import build_libsim, build_nginx, build_vdso

        image = Loader({"libsim.so": build_libsim()},
                       vdso=build_vdso()).load(build_nginx())
        filter_ = HardwareCFIFilter.for_image(image)
        exe = image.executable
        filter_.on_branch(
            BranchEvent(CoFIKind.INDIRECT_JMP, exe.base, exe.base + 4)
        )
        assert filter_.violations == []
        # Data sections are not executable targets.
        filter_.on_branch(
            BranchEvent(CoFIKind.INDIRECT_JMP, exe.base, exe.data_base)
        )
        assert filter_.violations


class TestTipCountTrigger:
    def test_fires_every_n(self):
        fired = []
        trigger = TipCountTrigger(3, lambda: fired.append(1))
        for i in range(7):
            trigger.on_branch(
                BranchEvent(CoFIKind.RET, 0x400000, 0x400100)
            )
        assert trigger.fired == 2
        assert len(fired) == 2

    def test_non_tip_events_ignored(self):
        trigger = TipCountTrigger(1, lambda: None)
        trigger.on_branch(
            BranchEvent(CoFIKind.COND_BRANCH, 0x400000, 0x400010)
        )
        assert trigger.fired == 0


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

    def test_project_overhead(self):
        model = HardwareExtensionModel(hw_decoder=False)
        stats = self._stats()
        assert project_overhead(stats, 7000.0, model) == pytest.approx(
            stats.total_cycles / 7000.0
        )
        assert project_overhead(stats, 0.0, model) == 0.0

    def test_original_stats_untouched(self):
        stats = self._stats()
        HardwareExtensionModel().apply(stats)
        assert stats.decode_cycles == 500.0
