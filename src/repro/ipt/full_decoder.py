"""Full decode: the instruction-flow layer of abstraction.

Models Intel's reference decoder library: reconstructing the exact
execution flow requires parsing the *program binaries* instruction by
instruction and combining them with the packet stream — each conditional
branch consumes a TNT bit, each indirect branch consumes a TIP, each far
transfer consumes its FUP/PGD/PGE group.

On the charged clock the walk is per instruction: every instruction
walked charges :data:`repro.costs.FULL_DECODE_CYCLES_PER_INSN`, which is
why decoding is orders of magnitude slower than tracing (§2: ~230x on
SPECCPU).  On the wall clock it steps per chained run, like libipt's block
decoder (``pt_blk_*`` rather than ``pt_insn_*``): :class:`FullDecoder`
keeps a lazy map from an address to its chained run — straight-line
code and the direct JMPs and CALLs it passes, up to the next
instruction that consumes a packet — so a run adds its length to
``insn_count`` and its prebuilt edges to the edge list in one step.
Edges, instruction counts, end points, and ``TraceMismatch`` messages
are those of the per-instruction walk.

The decoder reads the code the CPU runs: the predecoded entries
(:func:`repro.cpu.executor.predecode`) of the module's shared
:class:`~repro.cpu.blocks.BlockStore`, on every page the store attests
(mapped EXEC and not WRITE, bytes the store decoded).  Each edge is a
:class:`~repro.cpu.events.BranchEvent`, and a direct JMP's, CALL's
or JCC's edge is the event object held in its entry.  Anything else —
code no module filed, a writable page, an instruction that crosses a
page edge or does not decode on its page — is decoded from memory at
every visit and remembered nowhere, so a guest store to a writable page
(which moves no code epoch) is seen at the next decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.cpu.events import BranchEvent, CoFIKind
from repro.cpu.executor import predecode
from repro.cpu.memory import PAGE_SHIFT, Memory, MemoryError_
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.blocks import CodePage
    from repro.ipt.columnar import ColumnarSlowSource


class TraceMismatch(Exception):
    """Packet stream and binaries disagree (decoder desync)."""


@dataclass
class FullDecodeResult:
    edges: List[BranchEvent]
    insn_count: int
    cycles: float
    end_ip: Optional[int] = None
    exhausted: bool = True  # packets fully consumed


_JCC = int(Op.JCC)
_SYSCALL = int(Op.SYSCALL)
_HALT = int(Op.HALT)
#: Direct JMPs and CALLs: their entries hold the target and the event.
_DIRECT = frozenset((int(Op.JMP), int(Op.CALL)))
#: Chain terminators: the instructions a chained run stops at, because
#: they end the walk or consume packets.  Direct JMPs and CALLs have
#: static targets, so a chained run continues through them.
_TERMINATORS = frozenset(
    int(op) for op in (Op.HALT, Op.JCC, Op.JMPR, Op.CALLR, Op.RET,
                       Op.SYSCALL)
)
_INDIRECT_KIND = {
    int(Op.JMPR): CoFIKind.INDIRECT_JMP,
    int(Op.CALLR): CoFIKind.INDIRECT_CALL,
    int(Op.RET): CoFIKind.RET,
}
#: Most instructions one chained run records; a longer run continues
#: in the next chained run, so building one never walks far past the
#: instruction budget (a NOP sled stops where the budget does) and a
#: ``jmp .`` cycle ends after this many steps.
MAX_BLOCK_RUN = 64

#: ``(run, edges, term_ip, term_op, flow, fault)``: ``run``
#: instructions from the run's address, through straight-line code and
#: direct JMPs and CALLs (whose events are ``edges``), then the
#: instruction at ``term_ip`` with opcode ``term_op`` (an int).
#: ``flow`` is the (not-taken, taken) event pair of a JCC, indexed by
#: the TNT bit.  ``term_op`` is None when the run hit
#: :data:`MAX_BLOCK_RUN` (the walk continues at ``term_ip``) or when
#: ``term_ip`` cannot be disassembled (``fault`` holds the
#: ``TraceMismatch`` message).
Chain = Tuple[int, Tuple[BranchEvent, ...], int, Optional[int], object,
              Optional[str]]


class FullDecoder:
    """Reconstructs exact control flow from packets + binaries."""

    def __init__(self, memory: Memory, max_insns: int = 5_000_000) -> None:
        self.memory = memory
        self.max_insns = max_insns
        #: Page number -> the store's page attested for it, or None.
        self._pages: Dict[int, Optional[CodePage]] = {}
        self._chains: Dict[int, Chain] = {}
        self._code_epoch = memory.code_epoch

    def _sync_code(self) -> None:
        """Drop the attestations and chained runs if the memory's code
        has been re-mapped."""
        epoch = self.memory.code_epoch
        if epoch != self._code_epoch:
            self._pages.clear()
            self._chains.clear()
            self._code_epoch = epoch

    def _entry(self, ip: int) -> Tuple[tuple, bool]:
        """The predecoded entry at ``ip``, and whether it is the shared
        store's (so a chained run through it may be remembered)."""
        pageno = ip >> PAGE_SHIFT
        try:
            page = self._pages[pageno]
        except KeyError:
            memory = self.memory
            store = memory.block_store(ip)
            page = self._pages[pageno] = (
                store.attest(memory, pageno) if store is not None else None
            )
        if page is not None:
            entry = page.entry(ip)
            if entry is not None:
                return entry, True
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            raw = self.memory.read_raw(ip, length)
            insn, _ = decode_at(raw, 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        return predecode(insn, ip, length), False

    def _chain(self, start: int) -> Chain:
        """Decode the chained run at ``start``; remember it if every
        entry in it is the shared store's."""
        ip = start
        run = 0
        edges: List[BranchEvent] = []
        entry_at = self._entry
        shared = True
        while run < MAX_BLOCK_RUN:
            try:
                e, attested = entry_at(ip)
            except TraceMismatch as exc:
                # Not remembered: like a failed fetch, it is retried on
                # the next visit, when the code may have been mapped.
                return (run, tuple(edges), ip, None, None, str(exc))
            shared = shared and attested
            op = e[0]
            if op in _DIRECT:
                edges.append(e[4])
                run += 1
                ip = e[3]
                continue
            if op in _TERMINATORS:
                flow = None
                if op == _JCC:
                    # The entry's events, per flags word, hold both.
                    by_bit = {event.taken: event for event in e[4]}
                    flow = (by_bit[False], by_bit[True])
                chain = (run, tuple(edges), ip, op, flow, None)
                break
            run += 1
            ip = e[2]
        else:
            chain = (run, tuple(edges), ip, None, None, None)
        if shared:
            self._chains[start] = chain
        return chain

    def decode(
        self,
        source: ColumnarSlowSource,
        start_ip: Optional[int] = None,
    ) -> FullDecodeResult:
        """Walk the binaries under the guidance of the packet stream.

        ``source`` is a :class:`~repro.ipt.columnar.ColumnarSlowSource`:
        its cursor reads packets straight out of the scanned segment
        bytes.  Decoding anchors at ``start_ip`` or at the first
        PSB-context FUP / TIP.PGE in the stream, and ends when packets
        run out.
        """
        cursor = source.cursor()
        ip = start_ip if start_ip is not None else cursor.initial_ip()
        edges: List[BranchEvent] = []
        if ip is None:
            return FullDecodeResult(edges, 0, 0.0, exhausted=True)

        self._sync_code()
        chains = self._chains
        append = edges.append
        extend = edges.extend
        new_event = tuple.__new__
        # Pending TNT bits, oldest last: a JCC pops its bit here and
        # calls the cursor only when a packet boundary is reached.
        pending = cursor.pending_bits
        next_tnt_bit = cursor.next_tnt_bit
        budget = self.max_insns
        insn_count = 0
        while True:
            chain = chains.get(ip)
            if chain is None:
                chain = self._chain(ip)
            run, run_edges, term_ip, op, flow, fault = chain
            if insn_count + run >= budget:
                # The budget ends inside the run (or at its terminator,
                # which is then never fetched): step it instruction by
                # instruction, taking each JMP's and CALL's edge as it
                # is passed.
                while insn_count < budget:
                    e = self._entry(ip)[0]
                    insn_count += 1
                    if e[0] in _DIRECT:
                        append(e[4])
                        ip = e[3]
                    else:
                        ip = e[2]
                return self._finish(edges, insn_count, ip, False)
            insn_count += run
            if run_edges:
                extend(run_edges)
            ip = term_ip
            if op is None:
                if fault is not None:
                    raise TraceMismatch(fault)
                continue

            insn_count += 1
            if op == _JCC:
                if pending:
                    bit = pending.pop()
                else:
                    bit = next_tnt_bit()
                    if bit is None:
                        return self._finish(edges, insn_count, ip, True)
                edge = flow[bit]
            elif op == _SYSCALL:
                resume = cursor.next_far_resume(ip)
                if resume is None:
                    return self._finish(edges, insn_count, ip, True)
                edge = new_event(
                    BranchEvent, (CoFIKind.FAR_TRANSFER, ip, resume, True)
                )
            elif op == _HALT:
                return self._finish(edges, insn_count, ip, True)
            else:
                dst = cursor.next_tip()
                if dst is None:
                    return self._finish(edges, insn_count, ip, True)
                edge = new_event(
                    BranchEvent, (_INDIRECT_KIND[op], ip, dst, True)
                )
            append(edge)
            ip = edge.dst

    def _finish(
        self, edges: List[BranchEvent], insn_count: int, ip: int,
        exhausted: bool,
    ) -> FullDecodeResult:
        tel = get_telemetry()
        if tel.enabled:
            m = tel.metrics
            m.counter("ipt.full_decode.calls").inc()
            m.counter("ipt.full_decode.insns").inc(insn_count)
            m.counter("ipt.full_decode.edges").inc(len(edges))
        return FullDecodeResult(
            edges=edges,
            insn_count=insn_count,
            cycles=insn_count * costs.FULL_DECODE_CYCLES_PER_INSN,
            end_ip=ip,
            exhausted=exhausted,
        )
