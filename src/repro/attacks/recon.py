"""Attacker reconnaissance: derive runtime constants by dry-running.

With no ASLR (§3.3) the stack layout and fd allocation are
deterministic, so the attacker rehearses the exact connection sequence
against their own copy of the server and records:

- the absolute stack address of the vulnerable POST body buffer (the
  ``buf`` argument of the body-sized ``read``), letting the payload
  embed strings and point at them,
- the fd number the *next* ``open`` in the hijacked flow will return,
  so a two-stage open-then-write chain can hardcode it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.binary.loader import Image, Loader
from repro.binary.module import Module
from repro.isa.registers import R2, R3
from repro.osmodel.kernel import Kernel
from repro.osmodel.syscalls import Sys
from repro.workloads.servers import nginx_request

#: body length of the rehearsal POST; the body read is the only read
#: of this length.
MARKER_LEN = 48


@dataclass
class ReconReport:
    """What the rehearsal run learned."""

    body_addr: int
    next_open_fd: int
    image: Image  # the attacker's copy: identical layout to the target


def run_recon(
    exe: Module,
    libraries: Dict[str, Module],
    vdso: Optional[Module] = None,
) -> ReconReport:
    """Rehearse one POST request; capture body address and fd state."""
    kernel = Kernel()
    kernel.register_program("nginx", exe, libraries, vdso=vdso)
    proc = kernel.spawn("nginx")
    proc.push_connection(
        nginx_request("/probe", "POST", b"A" * MARKER_LEN)
    )

    captured: Dict[str, int] = {}
    original_read = kernel.syscall_table[int(Sys.READ)]

    def spy_read(k, p):
        # The body read is the only read with the marker length.
        if p.machine.reg(R3) == MARKER_LEN and "body" not in captured:
            captured["body"] = p.machine.reg(R2)
        return original_read(k, p)

    kernel.install_handler(Sys.READ, spy_read)
    kernel.run(proc)
    if "body" not in captured:
        raise RuntimeError("recon failed: body read not observed")

    # fd prediction: replay allocation arithmetic.  During the exploit
    # request the server consumes the same fds as this rehearsal did,
    # so the hijacked open() returns exactly the rehearsal's next_fd.
    next_open_fd = proc.next_fd

    # The attacker's own loaded copy for address harvesting.
    image = Loader(libraries, vdso=vdso).load(exe)
    return ReconReport(
        body_addr=captured["body"],
        next_open_fd=next_open_fd,
        image=image,
    )
