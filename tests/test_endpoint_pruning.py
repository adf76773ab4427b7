"""§7.1.2 endpoint bypassing: the PMI fallback.

FlowGuard assumes attacks eventually trigger a sensitive endpoint.  An
endpoint-pruning attacker avoids syscalls entirely — here, a very long
NOP-gadget chain that computes without ever trapping.  The paper's
worst-case answer: "FlowGuard can rely on periodic performance
monitoring interrupts (PMIs) generated when the trace buffer is full as
endpoints" — the ``check_on_pmi`` policy.
"""

import pytest

from repro.attacks import run_recon
from repro.attacks.flushing import build_flushing_payload
from repro.attacks.rop import build_filler, frame_glue
from repro.monitor.policy import FlowGuardPolicy
from repro.osmodel import Kernel, ProcessState, SIGKILL
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)

LIBS = {"libsim.so": build_libsim()}


def pivot_loop_request(recon):
    """A syscall-free infinite ROP loop.

    The payload plants a self-referencing frame inside the overflowed
    buffer and corrupts the saved FP to point at it; an epilogue gadget
    (``mov sp, fp; pop fp; ret``) then pivots onto that frame and
    re-enters itself forever.  The loop issues *no* syscall, so no
    default endpoint ever fires — but every iteration retires a return,
    so its TIP traffic steadily fills the 16 KiB ToPA.
    """
    import struct

    from repro.attacks.gadgets import find_gadgets

    gadgets = find_gadgets(recon.image)
    assert gadgets.epilogues, "no epilogue pivot gadgets found"
    epilogue = gadgets.epilogues[0]

    # In-buffer pivot frame at filler offset 32: [fp=self][&epilogue].
    pivot_addr = recon.body_addr + 32
    filler, _, _ = build_filler(recon.body_addr)
    filler = bytearray(filler)
    filler[32:40] = struct.pack("<Q", pivot_addr)
    filler[40:48] = struct.pack("<Q", epilogue)

    # Overwritten frame: keep line/cfd sane, set saved FP to the pivot
    # frame, and return straight into the epilogue gadget.
    glue = (
        struct.pack("<Q", recon.body_addr)  # line: readable string
        + struct.pack("<Q", 4)              # cfd
        + struct.pack("<Q", pivot_addr)     # saved FP -> pivot frame
    )
    payload = bytes(filler) + glue + struct.pack("<Q", epilogue)
    return nginx_request("/x", "POST", payload)


@pytest.fixture(scope="module")
def recon():
    return run_recon(build_nginx(), LIBS, vdso=build_vdso())


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx", build_nginx(), LIBS, vdso=build_vdso(),
        corpus=[nginx_request("/index.html"),
                nginx_request("/p", "POST", b"ok")],
        mode="socket",
    )


def run_attack(pipeline, request, policy, max_steps=5_000_000):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"x")
    monitor, proc = pipeline.deploy(kernel, policy=policy)
    proc.push_connection(request)
    kernel.run(proc, max_steps=max_steps)
    return kernel, proc, monitor


class TestEndpointPruning:
    def test_syscall_free_chain_evades_default_endpoints(
        self, recon, pipeline
    ):
        """Without the PMI fallback the chain runs unchecked — the
        §7.1.2 vulnerability, reproduced.  With ``check_on_pmi`` the
        same chain dies within ~20k steps; 200k steps fill the ToPA
        many times over, so the buffer-full PMIs provably fire and go
        unchecked."""
        request = pivot_loop_request(recon)
        kernel, proc, monitor = run_attack(
            pipeline, request, FlowGuardPolicy(check_on_pmi=False),
            max_steps=200_000,
        )
        assert monitor.detections == []
        assert monitor.stats_for(proc).pmi_count >= 1
        # The loop spins unchecked until the step budget runs out.
        assert proc.state is ProcessState.RUNNABLE

    def test_pmi_endpoint_catches_it(self, recon, pipeline):
        """With buffer-full PMIs as endpoints, the chain's own trace
        volume triggers the check that kills it."""
        request = pivot_loop_request(recon)
        kernel, proc, monitor = run_attack(
            pipeline, request, FlowGuardPolicy(check_on_pmi=True)
        )
        assert monitor.detections, "PMI endpoint must fire mid-chain"
        assert proc.state is ProcessState.KILLED
        assert proc.killed_by == SIGKILL
        stats = monitor.stats_for(proc)
        assert stats.pmi_count >= 1

    def test_pmi_checking_benign_false_positive_free(self, pipeline):
        """PMI checks on benign traffic must stay clean."""
        kernel = Kernel()
        kernel.fs.create("/index.html", b"<html>x</html>" * 30)
        monitor, proc = pipeline.deploy(
            kernel, policy=FlowGuardPolicy(check_on_pmi=True)
        )
        for _ in range(25):  # enough traffic to wrap the ToPA
            proc.push_connection(nginx_request("/index.html"))
        kernel.run(proc)
        assert proc.state is ProcessState.EXITED
        assert monitor.detections == []
        assert monitor.stats_for(proc).pmi_count >= 1
