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
are those of the per-instruction walk.  Code on a writable page is
decoded afresh at every visit, since a guest store moves no code epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import costs
from repro.telemetry import get_telemetry
from repro.cpu.events import CoFIKind
from repro.cpu.memory import Memory, MemoryError_
from repro.isa.encoding import DecodeError, decode_at, instruction_length
from repro.isa.instructions import Insn, Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipt.columnar import ColumnarSlowSource


class TraceMismatch(Exception):
    """Packet stream and binaries disagree (decoder desync)."""


class FlowEdge:
    """One reconstructed control transfer.

    A value: equality, hash and repr are those of a frozen dataclass
    with these four fields.  It is a plain ``__slots__`` class because
    the decoder builds one per far transfer, return and indirect branch,
    and a frozen dataclass pays ``object.__setattr__`` per field; treat
    it as immutable (it is hashed).
    """

    __slots__ = ("kind", "src", "dst", "taken")

    def __init__(
        self, kind: CoFIKind, src: int, dst: int, taken: bool = True
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.taken = taken

    def _key(self) -> tuple:
        return (self.kind, self.src, self.dst, self.taken)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"FlowEdge(kind={self.kind!r}, src={self.src!r}, "
            f"dst={self.dst!r}, taken={self.taken!r})"
        )


@dataclass
class FullDecodeResult:
    edges: List[FlowEdge]
    insn_count: int
    cycles: float
    end_ip: Optional[int] = None
    exhausted: bool = True  # packets fully consumed


#: Chain terminators: the instructions a chained run stops at, because
#: they end the walk or consume packets.  Direct JMPs and CALLs have
#: static targets, so a chained run continues through them.
_TERMINATORS = frozenset(
    (Op.HALT, Op.JCC, Op.JMPR, Op.CALLR, Op.RET, Op.SYSCALL)
)
_DIRECT_KIND = {Op.JMP: CoFIKind.DIRECT_JMP, Op.CALL: CoFIKind.DIRECT_CALL}
_INDIRECT_KIND = {
    Op.JMPR: CoFIKind.INDIRECT_JMP,
    Op.CALLR: CoFIKind.INDIRECT_CALL,
    Op.RET: CoFIKind.RET,
}
#: Most instructions one chained run records; a longer run continues
#: in the next chained run, so building one never walks far past the
#: instruction budget (a NOP sled stops where the budget does) and a
#: ``jmp .`` cycle ends after this many steps.
MAX_BLOCK_RUN = 64

#: ``(run, edges, term_ip, term_op, flow, fault)``: ``run``
#: instructions from the run's address, through straight-line code and
#: direct JMPs and CALLs (whose ``FlowEdge``s, built once, are
#: ``edges``), then the instruction at ``term_ip`` with opcode
#: ``term_op``.  ``flow`` is the (not-taken, taken) edge pair of a JCC,
#: indexed by the TNT bit.  ``term_op`` is None when the run hit
#: :data:`MAX_BLOCK_RUN` (the walk continues at ``term_ip``) or when
#: ``term_ip`` cannot be disassembled (``fault`` holds the
#: ``TraceMismatch`` message).
Chain = Tuple[int, Tuple[FlowEdge, ...], int, Optional[Op], object,
              Optional[str]]


class FullDecoder:
    """Reconstructs exact control flow from packets + binaries."""

    def __init__(self, memory: Memory, max_insns: int = 5_000_000) -> None:
        self.memory = memory
        self.max_insns = max_insns
        self._icache: Dict[int, Tuple[Insn, int]] = {}
        self._chains: Dict[int, Chain] = {}
        self._code_epoch = memory.code_epoch

    def _fetch(self, ip: int) -> Tuple[Insn, int]:
        cached = self._icache.get(ip)
        if cached is not None:
            return cached
        try:
            header = self.memory.read_raw(ip, 1)
            length = instruction_length(Op(header[0]))
            raw = self.memory.read_raw(ip, length)
            insn, _ = decode_at(raw, 0)
        except (MemoryError_, DecodeError, ValueError) as exc:
            raise TraceMismatch(
                f"cannot disassemble at {ip:#x}: {exc}"
            ) from exc
        # A guest store to a writable page moves no code epoch, so code
        # there is decoded at every fetch and remembered nowhere (the
        # CPU's rule).
        if not self.memory.writable(ip, length):
            self._icache[ip] = (insn, length)
        return insn, length

    def _sync_code(self) -> None:
        """Drop decoded code if the memory's code has been re-mapped."""
        epoch = self.memory.code_epoch
        if epoch != self._code_epoch:
            self._icache.clear()
            self._chains.clear()
            self._code_epoch = epoch

    def _chain(self, start: int) -> Chain:
        """Decode (and remember) the chained run at ``start``."""
        ip = start
        run = 0
        edges: List[FlowEdge] = []
        fetch = self._fetch
        icache = self._icache
        # Whether ``_fetch`` cached every instruction, i.e. none sits on
        # a writable page: a run through writable code is not
        # remembered either.
        fixed = True
        while run < MAX_BLOCK_RUN:
            try:
                insn, length = fetch(ip)
            except TraceMismatch as exc:
                # Not remembered: like a failed fetch, it is retried on
                # the next visit, when the code may have been mapped.
                return (run, tuple(edges), ip, None, None, str(exc))
            if fixed and ip not in icache:
                fixed = False
            op = insn.op
            if op in _DIRECT_KIND:
                edge = FlowEdge(_DIRECT_KIND[op], ip, ip + length + insn.rel)
                edges.append(edge)
                run += 1
                ip = edge.dst
                continue
            if op in _TERMINATORS:
                flow = None
                if op is Op.JCC:
                    next_ip = ip + length
                    flow = (
                        FlowEdge(CoFIKind.COND_BRANCH, ip, next_ip, False),
                        FlowEdge(CoFIKind.COND_BRANCH, ip, next_ip + insn.rel),
                    )
                chain = (run, tuple(edges), ip, op, flow, None)
                break
            run += 1
            ip += length
        else:
            chain = (run, tuple(edges), ip, None, None, None)
        if fixed:
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
        edges: List[FlowEdge] = []
        if ip is None:
            return FullDecodeResult(edges, 0, 0.0, exhausted=True)

        self._sync_code()
        chains = self._chains
        append = edges.append
        extend = edges.extend
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
                # instruction, taking the run's edges as JMPs and CALLs
                # are passed.
                taken = iter(run_edges)
                while insn_count < budget:
                    insn, length = self._fetch(ip)
                    insn_count += 1
                    if insn.op in _DIRECT_KIND:
                        edge = next(taken)
                        append(edge)
                        ip = edge.dst
                    else:
                        ip += length
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
            if op is Op.JCC:
                if pending:
                    bit = pending.pop()
                else:
                    bit = next_tnt_bit()
                    if bit is None:
                        return self._finish(edges, insn_count, ip, True)
                edge = flow[bit]
            elif op is Op.SYSCALL:
                resume = cursor.next_far_resume(ip)
                if resume is None:
                    return self._finish(edges, insn_count, ip, True)
                edge = FlowEdge(CoFIKind.FAR_TRANSFER, ip, resume)
            elif op is Op.HALT:
                return self._finish(edges, insn_count, ip, True)
            else:
                dst = cursor.next_tip()
                if dst is None:
                    return self._finish(edges, insn_count, ip, True)
                edge = FlowEdge(_INDIRECT_KIND[op], ip, dst)
            append(edge)
            ip = edge.dst

    def _finish(
        self, edges: List[FlowEdge], insn_count: int, ip: int, exhausted: bool
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
