"""The slow path (§5.3): full decode + context-sensitive checking.

Triggered when the fast path meets a low-credit edge or an unseen TNT
pattern.  The engine runs as an (upcalled) user-level process in the
paper; here the upcall is modelled as a fixed cycle cost.  It:

1. fully decodes the suspicious window at the instruction-flow layer
   (requires the binaries, charges per instruction),
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
from repro.ipt.columnar import ColumnarSlowSource
from repro.ipt.full_decoder import FullDecoder, TraceMismatch
from repro.ipt.packets import unpack_tnt_sig
from repro.monitor.shadowstack import ShadowStack, ShadowStackViolation


@dataclass
class SlowPathResult:
    ok: bool
    reason: Optional[str] = None
    violation_addr: Optional[int] = None
    cycles: float = 0.0
    insns_decoded: int = 0
    #: shadow-stack share of ``cycles`` (telemetry phase attribution).
    shadow_cycles: float = 0.0
    #: (src_ip, dst_ip, tnt) ITC pairs confirmed clean — promotion list.
    confirmed_pairs: List[Tuple[int, int, Tuple[bool, ...]]] = field(
        default_factory=list
    )


class SlowPathEngine:
    """Context-sensitive verification over a fully decoded window."""

    def __init__(self, memory: Memory, ocfg: ControlFlowGraph) -> None:
        self.memory = memory
        self.ocfg = ocfg
        self._decoder = FullDecoder(memory)

    def check(
        self,
        source: ColumnarSlowSource,
        ips: Sequence[Optional[int]] = (),
        sigs: Sequence[int] = (),
    ) -> SlowPathResult:
        """Verify the packets of ``source`` (usually
        ``FastPathResult.slow_path_source()``); ``ips``/``sigs`` are the
        fast-path window's record IPs and packed TNT signatures, for
        promotion bookkeeping.  A trace the binaries cannot follow — a
        desync, including an IP-suppressed packet where the walk needs a
        target — fails the check and confirms nothing.
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

        shadow = ShadowStack()
        for edge in decoded.edges:
            # Forward edges: fine-grained TypeArmor target sets.
            if edge.kind in (CoFIKind.INDIRECT_CALL, CoFIKind.INDIRECT_JMP):
                allowed = self.ocfg.indirect_targets.get(edge.src)
                if allowed is None or edge.dst not in allowed:
                    return SlowPathResult(
                        ok=False,
                        reason=(
                            f"forward-edge violation: {edge.kind.value} at "
                            f"{edge.src:#x} -> {edge.dst:#x}"
                        ),
                        violation_addr=edge.src,
                        cycles=cycles + shadow.cycles,
                        insns_decoded=decoded.insn_count,
                        shadow_cycles=shadow.cycles,
                    )
            # Backward edges: shadow stack; returns that outrun the
            # window's reconstructed stack fall back to the conservative
            # call/return-matched O-CFG target sets.
            if edge.kind is CoFIKind.RET and shadow.depth == 0:
                allowed = self.ocfg.indirect_targets.get(edge.src)
                if allowed and edge.dst not in allowed:
                    return SlowPathResult(
                        ok=False,
                        reason=(
                            f"backward-edge violation: ret at "
                            f"{edge.src:#x} -> {edge.dst:#x} outside the "
                            f"call/return-matched set"
                        ),
                        violation_addr=edge.src,
                        cycles=cycles + shadow.cycles,
                        insns_decoded=decoded.insn_count,
                        shadow_cycles=shadow.cycles,
                    )
            try:
                shadow.feed(edge)
            except ShadowStackViolation as exc:
                return SlowPathResult(
                    ok=False,
                    reason=str(exc),
                    violation_addr=exc.ret_addr,
                    cycles=cycles + shadow.cycles,
                    insns_decoded=decoded.insn_count,
                    shadow_cycles=shadow.cycles,
                )

        confirmed = [
            (ips[i - 1], ips[i], unpack_tnt_sig(sigs[i]))
            for i in range(1, len(ips))
        ]
        return SlowPathResult(
            ok=True,
            cycles=cycles + shadow.cycles,
            insns_decoded=decoded.insn_count,
            shadow_cycles=shadow.cycles,
            confirmed_pairs=confirmed,
        )
