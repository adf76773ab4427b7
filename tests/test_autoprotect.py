"""Tests for auto-protection of multi-process applications."""

import pytest

from repro.lang import (
    Call,
    Const,
    Func,
    Global,
    If,
    Program,
    Rel,
    Return,
    SyscallExpr,
    Var,
    Let,
)
from repro.osmodel import Kernel, O_CREAT, O_WRONLY, ProcessState, Sys
from repro.pipeline import FlowGuardPipeline
from repro.workloads import build_libsim

LIBS = {"libsim.so": build_libsim()}


def forking_app():
    """A master that forks one worker; both perform write endpoints."""
    prog = Program("prefork")
    prog.add_needed("libsim.so")
    for symbol in ("fork", "wait", "open", "write", "close", "strlen",
                   "exit"):
        prog.import_symbol(symbol)
    prog.add_string("worker_path", "/out/worker")
    prog.add_string("master_path", "/out/master")
    prog.add_string("payload", "data!")
    prog.add_func(
        Func(
            "emit",
            ["path"],
            [
                Let("fd", Call("open", [Var("path"),
                                        Const(O_CREAT | O_WRONLY)])),
                Call("write", [Var("fd"), Global("payload"), Const(5)]),
                Call("close", [Var("fd")]),
                Return(Const(0)),
            ],
        )
    )
    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("pid", Call("fork", [])),
                If(
                    Rel("==", Var("pid"), Const(0)),
                    [
                        Call("emit", [Global("worker_path")]),
                        Return(Const(7)),
                    ],
                ),
                Let("status", Call("wait", [])),
                Call("emit", [Global("master_path")]),
                Return(Var("status")),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "prefork", forking_app(), LIBS, corpus=[b""], mode="stdin",
    )


class TestAutoProtect:
    def test_fork_child_gets_protected(self, pipeline):
        kernel = Kernel()
        monitor = pipeline.auto_deploy(kernel)
        proc = kernel.spawn("prefork")
        kernel.run(proc)
        assert proc.exit_code == 7  # child status propagated
        assert kernel.fs.exists("/out/worker")
        assert kernel.fs.exists("/out/master")
        # Both the master and the forked worker were protected...
        assert len(monitor._protected) == 2  # noqa: SLF001
        protected = list(monitor._protected.values())  # noqa: SLF001
        for pp in protected:
            assert pp.stats.checks > 0, pp.process.name
        # ...with distinct CR3 filters (the §6 multi-CR3 scenario).
        cr3s = {pp.config.cr3_match for pp in protected}
        assert len(cr3s) == 2
        assert monitor.detections == []

    def test_worker_flow_is_checked_not_just_master(self, pipeline):
        kernel = Kernel()
        monitor = pipeline.auto_deploy(kernel)
        proc = kernel.spawn("prefork")
        kernel.run(proc)
        child = next(
            p for p in kernel.processes.values() if p.pid != proc.pid
        )
        child_stats = monitor.stats_for(child)
        assert child_stats.checks >= 1
        assert child_stats.trace_cycles > 0

    def test_manual_deploy_does_not_follow_forks(self, pipeline):
        kernel = Kernel()
        monitor, proc = pipeline.deploy(kernel)
        kernel.run(proc)
        assert len(monitor._protected) == 1  # noqa: SLF001

    def test_auto_protect_covers_existing_processes(self, pipeline):
        kernel = Kernel()
        kernel.register_program("prefork", pipeline.exe,
                                pipeline.libraries)
        proc = kernel.spawn("prefork")  # spawned before the monitor
        monitor = pipeline.auto_deploy(kernel)
        assert monitor.protected_for(proc) is not None


def sys_(nr, *args):
    return SyscallExpr(int(nr), list(args))


def fork_exec_app():
    """A master whose forked child execs ``other``."""
    prog = Program("forkexec")
    prog.add_string("path", "other")
    prog.add_func(Func("main", [], [
        Let("pid", sys_(Sys.FORK)),
        If(Rel("==", Var("pid"), Const(0)),
           [sys_(Sys.EXECVE, Global("path")), Return(Const(1))]),
        Return(sys_(Sys.WAIT)),
    ]))
    prog.set_entry("main")
    return prog.build()


def other_app():
    prog = Program("other")
    prog.add_func(Func("main", [], [Return(Const(9))]))
    prog.set_entry("main")
    return prog.build()


def reexec_app():
    """Execs itself once: the first run leaves ``/done`` behind."""
    prog = Program("reexec")
    prog.add_string("done", "/done")
    prog.add_string("self", "reexec")
    prog.add_func(Func("main", [], [
        Let("fd", sys_(Sys.OPEN, Global("done"), Const(0))),
        If(Rel("<", Var("fd"), Const(0)), [
            sys_(Sys.OPEN, Global("done"), Const(O_CREAT | O_WRONLY)),
            sys_(Sys.EXECVE, Global("self")),
            Return(Const(1)),
        ]),
        Return(Const(4)),
    ]))
    prog.set_entry("main")
    return prog.build()


class TestExecDropsStaleProtection:
    """An execve gives the process a fresh CR3: whatever FlowGuard
    protected under the old one must go, not linger filtered out."""

    def test_exec_into_unprotected_program(self):
        pipeline = FlowGuardPipeline.offline(
            "forkexec", fork_exec_app(), {}, corpus=[b""], mode="stdin",
        )
        kernel = Kernel()
        kernel.register_program("other", other_app())
        monitor = pipeline.auto_deploy(kernel)
        proc = kernel.spawn("forkexec")
        kernel.run(proc)
        assert proc.exit_code == 9
        child = next(p for p in kernel.processes.values() if p is not proc)
        assert child.name == "other"
        assert child.executor.listeners == []
        assert len(monitor._protected) == 1  # noqa: SLF001
        assert monitor.protected_for(proc) is not None
        assert len(monitor.all_stats()) == 1

    def test_exec_into_the_same_program(self):
        pipeline = FlowGuardPipeline.offline(
            "reexec", reexec_app(), {}, corpus=[b""], mode="stdin",
        )
        kernel = Kernel()
        monitor = pipeline.auto_deploy(kernel)
        proc = kernel.spawn("reexec")
        first_cr3 = proc.cr3
        kernel.run(proc)
        assert proc.exit_code == 4
        assert proc.cr3 != first_cr3
        pp = monitor.protected_for(proc)
        assert pp is not None
        assert proc.executor.listeners == [pp.encoder.on_branch]
        assert list(monitor._protected) == [proc.cr3]  # noqa: SLF001
        assert monitor.detections == []
