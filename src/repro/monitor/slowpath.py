"""The slow path (§5.3): full decode + context-sensitive checking.

Triggered when the fast path meets a low-credit edge or an unseen TNT
pattern.  The engine runs as an (upcalled) user-level process in the
paper; here the upcall is modelled as a fixed cycle cost.  It:

1. fully decodes the suspicious window at the instruction-flow layer
   (reads the binaries' code as the CPU decoded it, charges per
   instruction) into the CPU's own ``BranchEvent`` edges,
2. enforces fine-grained forward edges: every reconstructed indirect
   call/jump target must be in the TypeArmor-restricted O-CFG set,
3. enforces the single-target backward-edge policy with a shadow stack,
4. on a clean verdict, reports which ITC pairs to promote (negative
   caching, §7.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import costs
from repro.analysis.cfg import ControlFlowGraph
from repro.cpu.events import CoFIKind
from repro.cpu.memory import Memory
from repro.ipt.columnar import ColumnarSegment
from repro.ipt.full_decoder import FullDecoder, TraceMismatch

# Edges no policy judges: conditional and direct jumps (their targets
# are static) and far transfers.  A tuple, not a set: an identity scan
# over three enum members beats hashing one.
_UNJUDGED = (
    CoFIKind.DIRECT_JMP, CoFIKind.COND_BRANCH, CoFIKind.FAR_TRANSFER
)
_DIRECT_CALL = CoFIKind.DIRECT_CALL
_INDIRECT_CALL = CoFIKind.INDIRECT_CALL
_RET = CoFIKind.RET
# Encoded lengths of the two call instructions (opcode + operands): a
# call's return site is its address plus its length.
_DIRECT_CALL_LEN = 5
_INDIRECT_CALL_LEN = 2


@dataclass
class SlowPathResult:
    ok: bool
    reason: Optional[str] = None
    violation_addr: Optional[int] = None
    cycles: float = 0.0
    insns_decoded: int = 0
    #: shadow-stack share of ``cycles`` (telemetry phase attribution).
    shadow_cycles: float = 0.0
    #: (src_ip, dst_ip, sig) ITC pairs confirmed clean, each with its
    #: packed TNT run — the promotion list.
    confirmed_pairs: List[Tuple[int, int, int]] = field(default_factory=list)


class SlowPathEngine:
    """Context-sensitive verification over a fully decoded window."""

    def __init__(self, memory: Memory, ocfg: ControlFlowGraph) -> None:
        self.memory = memory
        self.ocfg = ocfg
        self._decoder = FullDecoder(memory)

    def check(
        self,
        source: Sequence[Tuple[ColumnarSegment, int]],
        ips: Sequence[Optional[int]] = (),
        sigs: Sequence[int] = (),
    ) -> SlowPathResult:
        """Verify the packets of ``source``, scanned segments with their
        stream bases (usually ``FastPathResult.slow_path_source()``);
        ``ips``/``sigs`` are the
        fast-path window's record IPs and packed TNT signatures, for
        promotion bookkeeping.  A trace the binaries cannot follow — a
        desync, including an IP-suppressed packet where the walk needs a
        target — fails the check and confirms nothing.  So does a
        window the decoder's instruction budget cuts off: the walk
        verified only a prefix of the window, and its instructions are
        still charged.
        """
        cycles = costs.SLOWPATH_UPCALL_CYCLES
        try:
            decoded = self._decoder.decode(source)
        except TraceMismatch as exc:
            return SlowPathResult(
                ok=False,
                reason=f"decoder desync: {exc}",
                cycles=cycles,
            )
        cycles += decoded.cycles
        if not decoded.exhausted:
            return SlowPathResult(
                ok=False,
                reason=(
                    f"decode budget exhausted at {decoded.end_ip:#x} after "
                    f"{decoded.insn_count} instructions"
                ),
                cycles=cycles,
                insns_decoded=decoded.insn_count,
            )

        # The policy pass: only calls, returns and indirect jumps are
        # judged, in edge order.  Forward edges must land in their
        # fine-grained TypeArmor target set; the shadow stack (one op
        # per call or return) enforces the single-target backward-edge
        # policy, and a return that outruns the window's reconstructed
        # stack falls back to the conservative call/return-matched
        # O-CFG set.
        allowed_of = self.ocfg.indirect_targets.get
        stack: List[int] = []
        push = stack.append
        shadow = 0.0
        shadow_op = costs.SHADOW_STACK_OP_CYCLES
        for edge in decoded.edges:
            kind = edge.kind
            if kind in _UNJUDGED:
                continue
            if kind is _DIRECT_CALL:
                push(edge.src + _DIRECT_CALL_LEN)
                shadow += shadow_op
                continue
            if kind is _RET:
                if stack:
                    shadow += shadow_op
                    expected = stack.pop()
                    if edge.dst == expected:
                        continue
                    reason = (
                        f"ret at {edge.src:#x}: expected return to "
                        f"{expected:#x}, observed {edge.dst:#x}"
                    )
                else:
                    allowed = allowed_of(edge.src)
                    if not allowed or edge.dst in allowed:
                        # The window began inside a call it never saw.
                        shadow += shadow_op
                        continue
                    reason = (
                        f"backward-edge violation: ret at "
                        f"{edge.src:#x} -> {edge.dst:#x} outside the "
                        f"call/return-matched set"
                    )
            else:
                allowed = allowed_of(edge.src)
                if allowed is not None and edge.dst in allowed:
                    if kind is _INDIRECT_CALL:
                        push(edge.src + _INDIRECT_CALL_LEN)
                        shadow += shadow_op
                    continue
                reason = (
                    f"forward-edge violation: {kind.value} at "
                    f"{edge.src:#x} -> {edge.dst:#x}"
                )
            return SlowPathResult(
                ok=False,
                reason=reason,
                violation_addr=edge.src,
                cycles=cycles + shadow,
                insns_decoded=decoded.insn_count,
                shadow_cycles=shadow,
            )

        confirmed = [
            (ips[i - 1], ips[i], sigs[i]) for i in range(1, len(ips))
        ]
        return SlowPathResult(
            ok=True,
            cycles=cycles + shadow,
            insns_decoded=decoded.insn_count,
            shadow_cycles=shadow,
            confirmed_pairs=confirmed,
        )
