"""Shared scaffolding for endpoint-triggered baseline defenses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hardware.lbr import LBRStack
from repro.osmodel.kernel import Kernel, SyscallInterposer
from repro.osmodel.process import Process
from repro.osmodel.syscalls import SENSITIVE_SYSCALLS, SIGKILL


@dataclass
class BaselineDetection:
    pid: int
    syscall_nr: int
    reason: str


class EndpointDefense(SyscallInterposer):
    """Base class: intercept sensitive syscalls, delegate to _check.
    The LBR-based defenses keep each protected process's LBR in
    ``_lbrs``."""

    name = "baseline"

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel)
        self.endpoints = frozenset(int(nr) for nr in SENSITIVE_SYSCALLS)
        self._lbrs: Dict[int, LBRStack] = {}
        self.detections: List[BaselineDetection] = []

    def _make_wrapper(self, nr: int):
        def wrapper(kernel: Kernel, proc: Process):
            reason = self.check(proc, nr)
            if reason is not None:
                self.detections.append(
                    BaselineDetection(proc.pid, nr, reason)
                )
                kernel.kill_process(proc, SIGKILL)
                return -1
            return self._originals[nr](kernel, proc)

        return wrapper

    # -- to override -------------------------------------------------------

    def check(self, proc: Process, nr: int) -> Optional[str]:
        """Return a violation reason, or None if the flow looks clean."""
        raise NotImplementedError


def is_call_preceded(memory, target: int) -> bool:
    """Whether the instruction *before* ``target`` is a call.

    Variable-length encoding means checking both call widths — exactly
    the check kBouncer performs on x86 return targets.
    """
    from repro.isa.encoding import DecodeError, decode_at
    from repro.isa.instructions import Op

    for width, op in ((5, Op.CALL), (2, Op.CALLR)):
        try:
            raw = memory.read_raw(target - width, width)
            insn, length = decode_at(raw, 0)
        except Exception:  # unmapped or undecodable
            continue
        if insn.op is op and length == width:
            return True
    return False
