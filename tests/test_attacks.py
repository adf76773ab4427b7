"""§7.1.2 security tests: real attacks against the protected nginx.

Each attack is first shown to *work* on an unprotected server (arbitrary
data lands in the attacker's file), then shown to be detected and killed
under FlowGuard — ROP at the ``write`` endpoint, SROP at ``sigreturn``,
as in the paper.
"""

import pytest

from repro.attacks import (
    build_flushing_request,
    build_retlib_request,
    build_rop_request,
    build_srop_request,
    find_gadgets,
    run_recon,
)
from repro.attacks.rop import ATTACK_DATA, ATTACK_PATH
from repro.osmodel import Kernel, ProcessState, SIGKILL, Sys
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
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        LIBS,
        vdso=build_vdso(),
        corpus=[
            nginx_request("/index.html"),
            nginx_request("/x", "POST", b"small-body"),
            nginx_request("/y", "HEAD"),
        ],
        mode="socket",
    )


def run_unprotected(request_bytes):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    kernel.register_program("nginx", build_nginx(), LIBS, vdso=build_vdso())
    proc = kernel.spawn("nginx")
    proc.push_connection(request_bytes)
    kernel.run(proc)
    return kernel, proc


def run_protected(pipeline, request_bytes):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    monitor, proc = pipeline.deploy(kernel)
    proc.push_connection(request_bytes)
    kernel.run(proc)
    return kernel, proc, monitor


class TestRecon:
    def test_recon_finds_stack_and_fd(self, recon):
        assert recon.body_addr > 0x7F0000000000 or recon.body_addr > 0
        assert recon.next_open_fd >= 5

    def test_gadget_harvest(self, recon):
        gadgets = find_gadgets(recon.image)
        regs = max(gadgets.pop_chains, key=len)
        assert len(regs) >= 4  # setcontext's pop r1..r4
        assert gadgets.syscall_ret  # syscall;ret tails exist
        assert "setcontext" in gadgets.functions
        assert "sigreturn" in gadgets.functions


class TestAttacksSucceedUnprotected:
    """The exploits genuinely hijack control flow when no CFI runs."""

    def test_rop_writes_attacker_file(self, recon):
        kernel, proc = run_unprotected(build_rop_request(recon))
        assert kernel.fs.exists(ATTACK_PATH.decode())
        assert kernel.fs.contents(ATTACK_PATH.decode()) == ATTACK_DATA

    def test_srop_writes_attacker_file(self, recon):
        kernel, proc = run_unprotected(build_srop_request(recon))
        assert kernel.fs.exists(ATTACK_PATH.decode())
        assert kernel.fs.contents(ATTACK_PATH.decode()) == ATTACK_DATA

    def test_retlib_emits_attacker_string(self, recon):
        kernel, proc = run_unprotected(build_retlib_request(recon))
        assert ATTACK_PATH in bytes(proc.stdout)

    def test_flushing_writes_attacker_file(self, recon):
        kernel, proc = run_unprotected(build_flushing_request(recon))
        assert kernel.fs.exists(ATTACK_PATH.decode())


class TestFlowGuardStopsAttacks:
    def test_rop_detected_at_write(self, recon, pipeline):
        kernel, proc, monitor = run_protected(
            pipeline, build_rop_request(recon)
        )
        assert monitor.detections, "ROP went undetected"
        detection = monitor.detections[0]
        assert detection.syscall_nr == int(Sys.WRITE)
        assert proc.state is ProcessState.KILLED
        assert proc.killed_by == SIGKILL
        # The chain's open(O_CREAT) precedes the endpoint, but the
        # malicious *write* was blocked: the file stays empty.
        if kernel.fs.exists(ATTACK_PATH.decode()):
            assert kernel.fs.contents(ATTACK_PATH.decode()) == b""


    def test_srop_detected_at_sigreturn(self, recon, pipeline):
        kernel, proc, monitor = run_protected(
            pipeline, build_srop_request(recon)
        )
        assert monitor.detections, "SROP went undetected"
        detection = monitor.detections[0]
        assert detection.syscall_nr == int(Sys.SIGRETURN)
        assert proc.state is ProcessState.KILLED
        # SROP is stopped at sigreturn, before the chain even opens
        # the target file.
        assert not kernel.fs.exists(ATTACK_PATH.decode())

    def test_retlib_detected(self, recon, pipeline):
        kernel, proc, monitor = run_protected(
            pipeline, build_retlib_request(recon)
        )
        assert monitor.detections
        assert proc.state is ProcessState.KILLED
        assert ATTACK_PATH not in bytes(proc.stdout)

    def test_flushing_detected_despite_long_chain(self, recon, pipeline):
        kernel, proc, monitor = run_protected(
            pipeline, build_flushing_request(recon, nop_gadgets=40)
        )
        assert monitor.detections
        assert proc.state is ProcessState.KILLED
        if kernel.fs.exists(ATTACK_PATH.decode()):
            assert kernel.fs.contents(ATTACK_PATH.decode()) == b""

    def test_benign_traffic_still_served_alongside(self, recon, pipeline):
        """A benign request before the attack is served normally."""
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>")
        monitor, proc = pipeline.deploy(kernel)
        good = proc.push_connection(nginx_request("/index.html"))
        proc.push_connection(build_rop_request(recon, conn_fd=5))
        kernel.run(proc)
        assert bytes(good.outbound).startswith(b"HTTP/1.1 200")
        assert monitor.detections
        assert proc.state is ProcessState.KILLED
