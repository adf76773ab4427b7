"""The per-instruction full-decode walker: the oracle for the full decoder.

:class:`repro.ipt.full_decoder.FullDecoder` steps from chained run to
chained run over the shared store's predecoded entries.  This is the
walk it replaced — fetch one instruction, count it, dispatch on its
opcode — kept as the oracle the chained walk is tested against (``tests/test_full_decode_differential.py``): edges,
``insn_count``, ``cycles``, ``end_ip``, ``exhausted`` and every
``TraceMismatch`` message must agree.  It shares the production
decoder's result bookkeeping, but fetches on its own, with no store
and no cache: every fetch decodes the bytes in memory now, so it can
never serve stale code.
"""

from typing import List, Optional, Tuple

from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.memory import MemoryError_
from repro.ipt.full_decoder import (
    FullDecoder,
    FullDecodeResult,
    TraceMismatch,
)
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Insn, Op


class ReferenceFullDecoder(FullDecoder):
    """Same surface as :class:`~repro.ipt.full_decoder.FullDecoder`."""

    def _fetch(self, ip: int) -> Tuple[Insn, int]:
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            insn, _ = decode_at(self.memory.read_raw(ip, length), 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        return insn, length

    def decode(self, source, start_ip: Optional[int] = None
               ) -> FullDecodeResult:
        cursor = source.cursor()
        ip = start_ip if start_ip is not None else cursor.initial_ip()
        edges: List[BranchEvent] = []
        insn_count = 0
        if ip is None:
            return FullDecodeResult(edges, 0, 0.0, exhausted=True)

        while insn_count < self.max_insns:
            insn, length = self._fetch(ip)
            insn_count += 1
            op = insn.op
            next_ip = ip + length

            if op is Op.HALT:
                return self._finish(edges, insn_count, ip, True)
            if op is Op.JMP:
                target = next_ip + insn.rel
                edges.append(BranchEvent(CoFIKind.DIRECT_JMP, ip, target))
                ip = target
                continue
            if op is Op.CALL:
                target = next_ip + insn.rel
                edges.append(BranchEvent(CoFIKind.DIRECT_CALL, ip, target))
                ip = target
                continue
            if op is Op.JCC:
                bit = cursor.next_tnt_bit()
                if bit is None:
                    return self._finish(edges, insn_count, ip, True)
                target = next_ip + insn.rel if bit else next_ip
                edges.append(
                    BranchEvent(CoFIKind.COND_BRANCH, ip, target, taken=bit)
                )
                ip = target
                continue
            if op in (Op.JMPR, Op.CALLR, Op.RET):
                target = cursor.next_tip()
                if target is None:
                    return self._finish(edges, insn_count, ip, True)
                kind = {
                    Op.JMPR: CoFIKind.INDIRECT_JMP,
                    Op.CALLR: CoFIKind.INDIRECT_CALL,
                    Op.RET: CoFIKind.RET,
                }[op]
                edges.append(BranchEvent(kind, ip, target))
                ip = target
                continue
            if op is Op.SYSCALL:
                resume = cursor.next_far_resume(ip)
                if resume is None:
                    return self._finish(edges, insn_count, ip, True)
                edges.append(BranchEvent(CoFIKind.FAR_TRANSFER, ip, resume))
                ip = resume
                continue
            ip = next_ip

        # Fell out on the instruction budget: packets may remain.
        return self._finish(edges, insn_count, ip, False)
