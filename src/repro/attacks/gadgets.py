"""Gadget discovery over a loaded image.

The attacker disassembles the (deterministically loaded, no-ASLR) image
and harvests:

- register-control gadgets: ``pop rX; ...; ret`` runs (libsim's
  ``setcontext`` is the jackpot),
- ``syscall; ret`` gadgets (every syscall wrapper tail),
- whole-function "call gadgets": entries of ABI-respecting functions
  that can be chained by return because their epilogues restore the
  stack exactly (ret-to-libc style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.binary.loader import Image, LoadedModule
from repro.isa.encoding import DecodeError, decode_at
from repro.isa.instructions import Op
from repro.isa.registers import FP as _FP_REG, SP as _SP_REG


@dataclass
class GadgetMap:
    """Harvested gadget addresses (absolute)."""

    #: run of pops -> gadget address, keyed by the popped register tuple.
    pop_chains: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    #: addresses of `syscall` instructions directly followed by `ret`.
    syscall_ret: List[int] = field(default_factory=list)
    #: exported function entries by name ("call gadgets").
    functions: Dict[str, int] = field(default_factory=dict)
    #: `mov sp, fp; pop fp; ret` epilogues — stack-pivot gadgets: with a
    #: corrupted frame pointer they move SP anywhere the attacker likes.
    epilogues: List[int] = field(default_factory=list)


def _scan_module(lm: LoadedModule, gadgets: GadgetMap) -> None:
    code = lm.module.code
    # Linear sweep; on desync skip a byte (attacker-style scanning).
    pos = 0
    while pos < len(code):
        try:
            insn, length = decode_at(code, pos)
        except DecodeError:
            pos += 1
            continue
        if insn.op is Op.POP:
            regs: List[int] = []
            cursor = pos
            while cursor < len(code):
                try:
                    nxt, nlen = decode_at(code, cursor)
                except DecodeError:
                    break
                if nxt.op is Op.POP:
                    regs.append(nxt.rd)
                    cursor += nlen
                    continue
                if nxt.op is Op.RET and regs:
                    key = tuple(regs)
                    gadgets.pop_chains.setdefault(key, lm.base + pos)
                break
        if insn.op is Op.SYSCALL:
            try:
                nxt, _ = decode_at(code, pos + length)
                if nxt.op is Op.RET:
                    gadgets.syscall_ret.append(lm.base + pos)
            except DecodeError:
                pass
        if (
            insn.op is Op.MOV_RR
            and insn.rd == _SP_REG
            and insn.rs == _FP_REG
        ):
            try:
                pop, pop_len = decode_at(code, pos + length)
                ret, _ = decode_at(code, pos + length + pop_len)
                if (pop.op is Op.POP and pop.rd == _FP_REG
                        and ret.op is Op.RET):
                    gadgets.epilogues.append(lm.base + pos)
            except DecodeError:
                pass
        pos += length


def find_gadgets(image: Image) -> GadgetMap:
    """Harvest gadgets from every module of a loaded image."""
    gadgets = GadgetMap()
    for lm in image.all_modules():
        _scan_module(lm, gadgets)
        for sym in lm.module.symbols.values():
            if sym.is_function:
                gadgets.functions.setdefault(sym.name, lm.base + sym.offset)
    return gadgets
