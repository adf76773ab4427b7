"""The per-edge slow-path policy loop: the oracle for the policy pass.

:meth:`repro.monitor.slowpath.SlowPathEngine.check` judges only the
edges a policy reads (calls, returns and indirect jumps) with the shadow
stack inlined.  This is the loop it replaced — every decoded edge goes
through the forward-edge test, the depth-0 return fallback and
:meth:`ShadowStack.feed` — kept so ``tests/test_slowpath_differential.py``
can hold the production engine to it: ``ok``, ``reason``,
``violation_addr``, ``cycles``, ``insns_decoded``, ``shadow_cycles`` and
``confirmed_pairs`` must be equal.  It shares the production engine's
decoder, so only the policy loop differs.
"""

from dataclasses import dataclass, field
from typing import List

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt.full_decoder import TraceMismatch
from repro.monitor.slowpath import (
    _DIRECT_CALL_LEN,
    _INDIRECT_CALL_LEN,
    SlowPathEngine,
    SlowPathResult,
)


class ShadowStackViolation(Exception):
    """A return targeted an address other than its call's return site."""

    def __init__(self, ret_addr: int, expected: int, actual: int) -> None:
        super().__init__(
            f"ret at {ret_addr:#x}: expected return to {expected:#x}, "
            f"observed {actual:#x}"
        )
        self.ret_addr = ret_addr
        self.expected = expected
        self.actual = actual


@dataclass
class ShadowStack:
    """Replays call/return discipline over reconstructed flow edges.

    Because a checked window starts mid-execution, returns that outrun
    the reconstructed stack are *unknown* rather than violations."""

    _stack: List[int] = field(default_factory=list)
    cycles: float = 0.0
    checked_returns: int = 0
    unknown_returns: int = 0

    def feed(self, edge: BranchEvent) -> None:
        """Process one reconstructed edge; raises on a mismatch."""
        if edge.kind is CoFIKind.DIRECT_CALL:
            self._stack.append(edge.src + _DIRECT_CALL_LEN)
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
        elif edge.kind is CoFIKind.INDIRECT_CALL:
            self._stack.append(edge.src + _INDIRECT_CALL_LEN)
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
        elif edge.kind is CoFIKind.RET:
            self.cycles += costs.SHADOW_STACK_OP_CYCLES
            if not self._stack:
                # The window began inside a call we never saw.
                self.unknown_returns += 1
                return
            expected = self._stack.pop()
            self.checked_returns += 1
            if edge.dst != expected:
                raise ShadowStackViolation(edge.src, expected, edge.dst)

    @property
    def depth(self) -> int:
        return len(self._stack)


class ReferenceSlowPathEngine(SlowPathEngine):
    """Same surface as :class:`~repro.monitor.slowpath.SlowPathEngine`."""

    def check(self, source, ips=(), sigs=()) -> SlowPathResult:
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
            (ips[i - 1], ips[i], sigs[i]) for i in range(1, len(ips))
        ]
        return SlowPathResult(
            ok=True,
            cycles=cycles + shadow.cycles,
            insns_decoded=decoded.insn_count,
            shadow_cycles=shadow.cycles,
            confirmed_pairs=confirmed,
        )
