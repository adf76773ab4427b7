"""Tests for the baseline defenses (kBouncer/ROPecker/PathArmor/CFIMon)."""

import pytest

from repro.attacks import build_flushing_request, build_rop_request, run_recon
from repro.defenses import CFIMon, KBouncer, PathArmorLite, ROPecker
from repro.defenses.base import is_call_preceded
from repro.osmodel import Kernel, ProcessState, Sys
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)

LIBS = {"libsim.so": build_libsim()}


@pytest.fixture(scope="module")
def recon():
    return run_recon(build_nginx(), LIBS, vdso=build_vdso())


@pytest.fixture(scope="module")
def ocfg():
    pipeline = FlowGuardPipeline.offline(
        "nginx", build_nginx(), LIBS, vdso=build_vdso()
    )
    return pipeline.ocfg


def deploy(defense_cls, request_bytes, ocfg=None, **kw):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    kernel.register_program("nginx", build_nginx(), LIBS, vdso=build_vdso())
    defense = defense_cls(kernel, **kw)
    defense.install()
    proc = kernel.spawn("nginx")
    if ocfg is not None:
        defense.protect(proc, ocfg)
    else:
        defense.protect(proc)
    proc.push_connection(request_bytes)
    kernel.run(proc)
    return kernel, proc, defense


class TestKBouncer:
    def test_benign_traffic_clean(self):
        _, proc, defense = deploy(KBouncer, nginx_request("/index.html"))
        assert defense.detections == []
        assert proc.state is ProcessState.EXITED

    def test_rop_detected_via_call_preceded_check(self, recon):
        _, proc, defense = deploy(KBouncer, build_rop_request(recon))
        assert defense.detections
        assert proc.state is ProcessState.KILLED
        assert "call-preceded" in defense.detections[0].reason

    def test_uninstall(self):
        kernel = Kernel()
        before = dict(kernel.syscall_table)
        defense = KBouncer(kernel)
        defense.install()
        defense.uninstall()
        assert kernel.syscall_table == before

    def test_unprotected_process_passes_through(self):
        kernel = Kernel()
        kernel.fs.create("/index.html", b"x")
        kernel.register_program("nginx", build_nginx(), LIBS,
                                vdso=build_vdso())
        defense = KBouncer(kernel)
        defense.install()
        proc = kernel.spawn("nginx")  # never .protect()ed
        proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        assert defense.detections == []
        assert proc.state is ProcessState.EXITED


class TestIsCallPreceded:
    def test_true_after_direct_call(self):
        from repro.binary import Loader
        from repro.lang import Call, Const, Func, Program, Return, Var

        prog = Program("t")
        prog.add_func(Func("callee", [], [Return(Const(1))]))
        prog.add_func(Func("main", [],
                           [Return(Call("callee", [Const(0)][:0]))]))
        prog.set_entry("main")
        image = Loader().load(prog.build())
        # Find the return site: the instruction after main's call.
        from repro.analysis import build_ocfg, EdgeKind

        cfg = build_ocfg(image)
        call_edge = next(e for e in cfg.edges
                         if e.kind is EdgeKind.DIRECT_CALL
                         and cfg.block_at(e.branch_addr).function == "main")
        return_site = call_edge.branch_addr + 5  # direct call length
        assert is_call_preceded(image.memory, return_site)

    def test_false_at_function_entry(self, recon):
        lib = recon.image.by_name("libsim.so")
        assert not is_call_preceded(
            recon.image.memory, lib.addr_of("setcontext")
        )


class TestROPecker:
    def test_benign_traffic_clean(self):
        _, proc, defense = deploy(ROPecker, nginx_request("/index.html"))
        assert defense.detections == []

    def test_whole_function_gadgets_evade(self, recon):
        """Our chain uses whole library functions, not short gadgets —
        ROPecker's gadget-size heuristic never fires (a genuine
        limitation of that approach, not a bug)."""
        _, proc, defense = deploy(ROPecker, build_rop_request(recon))
        assert defense.detections == []


class TestPathArmorLite:
    def test_benign_traffic_clean(self, ocfg):
        _, proc, defense = deploy(
            PathArmorLite, nginx_request("/index.html"), ocfg=ocfg
        )
        assert defense.detections == []

    def test_rop_detected(self, recon, ocfg):
        _, proc, defense = deploy(
            PathArmorLite, build_rop_request(recon), ocfg=ocfg
        )
        assert defense.detections
        assert "outside" in defense.detections[0].reason


class TestCFIMon:
    def test_benign_traffic_clean(self, ocfg):
        _, proc, defense = deploy(
            CFIMon, nginx_request("/index.html"), ocfg=ocfg
        )
        assert defense.detections == []

    def test_rop_detected_with_full_history(self, recon, ocfg):
        _, proc, defense = deploy(
            CFIMon, build_rop_request(recon), ocfg=ocfg
        )
        assert defense.detections
        assert proc.state is ProcessState.KILLED

    def test_flushing_cannot_evade_full_trace(self, recon, ocfg):
        """BTS keeps everything: flushing is useless against CFIMon."""
        _, proc, defense = deploy(
            CFIMon, build_flushing_request(recon), ocfg=ocfg
        )
        assert defense.detections

    def test_tracing_cost_is_enormous(self, ocfg):
        """The Table 1 trade-off: CFIMon pays BTS's tracing price."""
        kernel, proc, defense = deploy(
            CFIMon, nginx_request("/index.html"), ocfg=ocfg
        )
        tracer_cycles = sum(t.cycles for t in defense._tracers.values())
        assert tracer_cycles > proc.executor.cycles
