"""Tests for the command-line interface."""

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.processes == 8
        assert args.workers == 4
        assert args.policy == "stall"
        assert args.quantum == 2000.0
        assert args.ring_bytes == 8192
        assert args.queue_depth == 64
        assert not hasattr(args, "decode_mode")
        assert args.sessions == 2
        assert args.seed == 0
        assert not args.inject_rop

    def test_cache_flags_are_gone(self, capsys):
        """``stats``, ``fleet`` and ``top`` no longer take the fast-path
        cache flags; the parse error names the stale flag."""
        parser = build_parser()
        for argv in (["stats", "nginx"], ["fleet"], ["top"]):
            for flag in ("--segment-cache", "--edge-cache"):
                assert flag[2:].replace("-", "_") not in vars(
                    parser.parse_args(argv)
                )
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + [flag, "512"])
                assert exc.value.code == 2
                assert flag in capsys.readouterr().err

    def test_fleet_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "panic"])

    def test_attack_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "nuke"])

    def test_serve_and_attack_take_engine(self, capsys):
        """``serve`` and ``attack`` no longer take ``--engine``; the
        parse error names the stale flag."""
        parser = build_parser()
        for argv in (["serve", "nginx"], ["attack", "rop"]):
            assert "engine" not in vars(parser.parse_args(argv))
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + ["--engine", "objects"])
            assert exc.value.code == 2
            assert "--engine" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "nginx"])
        assert args.sessions == 8
        assert not args.unprotected

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.processes == 8
        assert args.sample_interval == 2000.0
        assert args.refresh == 5
        assert not args.once

    def test_report_defaults(self):
        args = build_parser().parse_args(["report", "run.json"])
        assert args.input == "run.json"
        assert args.format == "markdown"
        assert args.output is None

    def test_stats_plane_flags(self):
        args = build_parser().parse_args(
            ["stats", "nginx", "--plane", "--plane-out", "p.json"]
        )
        assert args.plane
        assert args.plane_out == "p.json"
        assert args.slo is None


class TestRejectedConfig:
    """A config file or builtin name the codec rejects ends the command
    with one ``<command>: <error>`` line and exit 2, never a
    traceback: one case per flag family that loads a config."""

    CASES = {
        "faults": (["fleet", "-p", "1", "-w", "1", "-n", "1", "--faults"],
                   {"drop_pmi": {"probabilty": 0.5}},
                   "unknown FaultSite keys: probabilty"),
        "slo": (["stats", "exim", "-n", "1", "--slo"],
                {"objectivs": []}, "unknown SLOConfig keys: objectivs"),
        "serve-config": (["top", "--once", "--serve-config"],
                         {"tenats": []}, "unknown ServeConfig keys: tenats"),
        "config": (["service", "--config"], "no-such-config",
                   "no such serve config: 'no-such-config'"),
        "scenario": (["bench", "--scenario"], "no-such-scenario",
                     "no such scenario: 'no-such-scenario'"),
        "top-scenario": (["top", "--once", "--scenario"], [1],
                         "a LoadScenario is a JSON object, not list"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_line_and_exit_2(self, case, tmp_path):
        import json
        import os
        import subprocess
        import sys

        argv, config, error = self.CASES[case]
        if isinstance(config, str):
            ref = config
        else:
            ref = str(tmp_path / "config.json")
            with open(ref, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, ref],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"{argv[0]}: ")
        assert error in line


class TestCommands:
    def test_serve(self, capsys):
        assert main(["serve", "exim", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "overhead" in out

    def test_serve_unprotected(self, capsys):
        assert main(["serve", "exim", "-n", "2", "--unprotected"]) == 0
        out = capsys.readouterr().out
        assert "monitor:" not in out

    def test_attack_rop(self, capsys):
        assert main(["attack", "rop"]) == 0
        out = capsys.readouterr().out
        assert "EXPLOITED" in out
        assert "DETECTED at write" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "dd"]) == 0
        out = capsys.readouterr().out
        assert "push fp" in out

    def test_disasm_unknown_workload(self, capsys):
        assert main(["disasm", "doom"]) == 2

    def test_disasm_unknown_function(self, capsys):
        assert main(["disasm", "dd", "-f", "nope"]) == 2
        err = capsys.readouterr().err
        assert "available" in err

    def test_fuzz_small_budget(self, capsys):
        assert main(["fuzz", "exim", "--budget", "15"]) == 0
        out = capsys.readouterr().out
        assert "path-finding inputs" in out

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out

    @staticmethod
    def _fake_experiment(monkeypatch, tmp_path, gates):
        """Register a gated experiment ``fake-exp`` whose run returns
        ``gates`` and run ``repro experiments fake-exp`` from
        ``tmp_path``."""
        from repro import cli

        registry = {"fake-exp": cli._Experiment(
            lambda quick: {"quick": quick, "gates": dict(gates)},
            lambda results: "fake table", gated=True,
        )}
        monkeypatch.setattr(cli, "_experiments", lambda: registry)
        monkeypatch.chdir(tmp_path)
        return main(["experiments", "fake-exp", "--quick"])

    def test_experiments_all_gates_true_writes_bench(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        code = self._fake_experiment(
            monkeypatch, tmp_path, {"a": True, "b": True}
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_fake_exp.json").read_text())
        assert payload == {"quick": True, "gates": {"a": True, "b": True}}
        assert "fake table" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [False, None, 0])
    def test_experiments_gate_not_true_fails(
        self, monkeypatch, tmp_path, capsys, value
    ):
        code = self._fake_experiment(
            monkeypatch, tmp_path, {"holds": True, "broken": value}
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "broken" in err and "holds" not in err
        assert (tmp_path / "BENCH_fake_exp.json").exists()

    def test_stats(self, capsys):
        import json

        assert main(["stats", "exim", "-n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 4
        assert payload["context"] == {
            "kind": "solo", "server": "exim", "sessions": 2,
        }
        assert payload["fleet"] is None
        assert "reconciliation" not in payload["monitor"]
        charged = sum(
            row[key]
            for row in payload["monitor"]["processes"]
            for key in ("trace_cycles", "decode_cycles", "check_cycles",
                        "other_cycles")
        )
        assert payload["telemetry"]["profile"]["total_cycles"] == (
            pytest.approx(charged, rel=1e-9)
        )

    def test_serve_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "serve_trace.json"
        code = main(
            ["serve", "exim", "-n", "2", "--trace-out", str(trace)]
        )
        assert code == 0
        assert json.loads(trace.read_text())["traceEvents"]

    def test_fleet(self, capsys):
        assert main(["fleet", "-p", "2", "-w", "2", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 processes x 2 workers" in out
        assert "exited" in out
        assert "QUARANTINED" not in out
        assert "lag p50" in out
        assert "overhead:" in out

    def test_fleet_rejects_misspelled_fault_plan(self, tmp_path):
        """A typo in a plan file stops the run; it never runs the
        fleet fault-free."""
        import json
        import os
        import subprocess
        import sys

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"drop_pmi": {"probabilty": 0.5}}))
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "-p", "1", "-w", "1",
             "-n", "1", "--faults", str(plan)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "unknown FaultSite keys: probabilty" in proc.stderr

    def test_stats_with_plane(self, tmp_path, capsys):
        import json

        dump_path = tmp_path / "plane.json"
        assert main(["stats", "exim", "-n", "2", "--plane",
                     "--plane-out", str(dump_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 4
        assert payload["slo"]["met"] in (True, False)
        assert payload["slo"]["sampler"]["samples"] > 0
        dump = json.loads(dump_path.read_text())
        assert dump["kind"] == "plane-dump"

    def test_top_once(self, capsys):
        assert main(["top", "--once", "-p", "2", "-w", "2",
                     "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "workers:" in out
        assert "slo:" in out

    def test_report_from_plane_dump(self, tmp_path, capsys):
        assert main(["top", "--once", "-p", "2", "-w", "1", "-n", "1",
                     "--plane-out", str(tmp_path / "plane.json")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "plane.json")]) == 0
        out = capsys.readouterr().out
        assert "# FlowGuard run report" in out
        assert "## SLO objectives" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nothing\": true}")
        assert main(["report", str(bad)]) == 2
        assert "unrecognized" in capsys.readouterr().err

    def test_tenant_ledger_drift_exits(self, capsys):
        from types import SimpleNamespace

        from repro.cli import _books_drift

        exact = {"accounting_exact": True, "ledger_exact": True}
        result = SimpleNamespace(tenants={
            "acme": exact, "noisy": {**exact, "ledger_exact": False},
        })
        assert _books_drift(result)
        assert "do NOT reconcile: noisy" in capsys.readouterr().err
        assert not _books_drift(SimpleNamespace(tenants={"acme": exact}))

    def test_fleet_json(self, capsys):
        import json

        assert main(
            ["fleet", "-p", "2", "-w", "2", "-n", "1", "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["schema_version"] == 4
        assert payload["context"]["kind"] == "fleet"
        assert payload["monitor"]["accounting"]["exact"] is True
        assert payload["fleet"]["quarantines"] == []
        assert len(payload["fleet"]["processes"]) == 2
