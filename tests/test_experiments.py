"""Smoke tests for the experiment harnesses (small configurations).

The benchmark suite runs the full configurations and asserts the paper
shapes; these tests pin the harness *mechanics* — result structure,
table rendering, metric arithmetic — at sizes quick enough for the
unit-test run — and pin the exact charged outputs of the consumers of
decoded traces.
"""

import pytest

from repro.experiments import (
    ablations,
    common,
    fig5a,
    fig5c,
    fig5d,
    micro,
    sec2_decode,
    table1,
    table4,
    table5,
)


class TestCommon:
    def test_geomean(self):
        assert common.geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert common.geomean([]) == 0.0
        assert common.geomean([0.0, 1.0]) >= 0.0  # zero-tolerant

    def test_format_rows_alignment(self):
        text = common.format_rows(["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_server_requests_per_server(self):
        for name in common.SERVER_NAMES:
            requests = common.server_requests(name, 3)
            assert len(requests) == 3
            assert all(isinstance(r, bytes) and r for r in requests)
        with pytest.raises(KeyError):
            common.server_requests("apache", 1)

    def test_training_corpus_nonempty(self):
        for name in common.SERVER_NAMES:
            assert len(common.training_corpus(name)) >= 3

    def test_run_server_baseline_vs_protected(self):
        requests = common.server_requests("exim", 2)
        baseline = common.run_server("exim", requests, protected=False)
        protected = common.run_server("exim", requests, protected=True)
        assert baseline.stats is None and baseline.overhead == 0.0
        assert protected.stats is not None
        assert protected.overhead > 0
        # The protected process does (almost exactly) the same app work.
        assert protected.app_cycles == pytest.approx(
            baseline.app_cycles, rel=0.01
        )


class TestTable1Harness:
    def test_small_suite(self):
        result = table1.run(suite=("mcf", "lbm"), scale=1)
        assert [row.name for row in result.rows] == ["BTS", "LBR", "IPT"]
        assert set(result.per_benchmark) == {"mcf", "lbm"}
        text = table1.format_table(result)
        assert "BTS" in text and "Filtering" in text


class TestSec2Harness:
    def test_small_suite(self):
        result = sec2_decode.run(suite=("mcf",), scale=1)
        assert "mcf" in result.per_benchmark
        assert result.geomean_x > 10
        assert "geomean" in sec2_decode.format_table(result)


class TestTable4Harness:
    def test_single_server(self):
        result = table4.run(servers=("exim",))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.application == "exim"
        assert "exim" in table4.format_table(result)

    def test_cred_ratio_parameter(self):
        full = table4.run(servers=("exim",), cred_ratio=1.0)
        none = table4.run(servers=("exim",), cred_ratio=0.0)
        assert none.rows[0].flowguard_aia >= full.rows[0].flowguard_aia


class TestTable5Harness:
    def test_single_server(self):
        result = table5.run(servers=("vsftpd",))
        assert result.rows[0].memory_kib > 0
        assert "ToPA" in table5.format_table(result)


class TestFig5aHarness:
    def test_single_server(self):
        result = fig5a.run(servers=("exim",), sessions=3)
        row = result.rows[0]
        assert row.overhead == pytest.approx(
            row.trace + row.decode + row.check + row.other, rel=1e-6
        )
        assert "geomean" in fig5a.format_table(result)


class TestFig5cHarness:
    def test_two_benchmarks(self):
        result = fig5c.run(suite=("lbm", "h264ref"), scale=1)
        assert result.row("h264ref").trace_bytes_per_kinsn > \
            result.row("lbm").trace_bytes_per_kinsn
        assert "h264ref" in fig5c.format_table(result)


class TestMicroHarness:
    def test_window_param(self):
        result = micro.run(tip_window=40)
        assert result.tips_checked <= 40
        assert result.slowdown > 1
        assert "slowdown" in micro.format_table(result)


class TestAblationHarness:
    def test_cred_ratio_curve_endpoints(self):
        curve = ablations.sweep_cred_ratio()
        from repro.analysis import aia_fine, aia_itc

        pipeline = common.server_pipeline("nginx")
        assert curve.aia_values[0] == pytest.approx(
            aia_itc(pipeline.itc))
        assert curve.aia_values[-1] == pytest.approx(
            aia_fine(pipeline.ocfg))

    def test_parallel_decode_conservation(self):
        result = ablations.measure_parallel_decode(sessions=3)
        # Critical path can never exceed the serial total.
        assert result.critical_path_cycles <= result.serial_cycles


class TestChargedOutputPins:
    """Exact charged outputs of the trace-decode consumers.  The harness
    tests above assert shapes only; these pin the numbers, so a change
    to how a consumer decodes traces cannot move them silently."""

    def test_micro_fast_and_slow_cycles(self):
        result = micro.run()
        assert (result.fast_cycles, result.slow_cycles) == (988.0, 2699430.0)
        assert (result.tips_checked, result.insns_decoded) == (100, 8984)

    def test_parallel_decode_cycles(self):
        result = ablations.measure_parallel_decode()
        assert (
            result.serial_cycles, result.critical_path_cycles,
            result.segments,
        ) == (3570.0, 141.0, 26)

    def test_full_decode_cycles(self):
        # full-decode cycles / application cycles per SPEC program
        want = {
            "sjeng": 3546600.0 / 19502.5,
            "perlbench": 4681800.0 / 26950.5,
        }
        result = table1.run(suite=tuple(want), scale=1)
        assert {
            name: row["ipt_decode"]
            for name, row in result.per_benchmark.items()
        } == want
        assert sec2_decode.run(suite=("sjeng",)).per_benchmark == {
            "sjeng": want["sjeng"]
        }

    def test_table5_memory_column(self, monkeypatch):
        # ITC-CFG + search-index bytes per server, on freshly trained
        # labels (the cached pipelines may carry slow-path promotions).
        monkeypatch.setattr(
            table5, "server_pipeline", common.server_pipeline.__wrapped__
        )
        result = table5.run()
        assert {
            row.application: row.memory_kib * 1024 for row in result.rows
        } == {
            "nginx": 12769.0, "vsftpd": 8804.0,
            "openssh": 10399.0, "exim": 10585.0,
        }

    def test_fig5d_training_curve(self):
        result = fig5d.run(fuzz_budget=200, sessions=5)
        assert [p.cred_ratio for p in result.points] == [
            0.17178612059158138, 0.33788395904436863, 1.0, 1.0,
        ]
