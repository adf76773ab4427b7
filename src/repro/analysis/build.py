"""O-CFG construction from a loaded image.

The pipeline mirrors §4.1:

1. disassemble each module independently and split functions into basic
   blocks (intra-module CFGs),
2. resolve indirect calls with a TypeArmor-style use-def/liveness arity
   match over address-taken functions,
3. resolve indirect jumps: PLT stubs have exactly one (GOT-resolved)
   target; jump tables are bounded by relocation targets inside the
   enclosing function, falling back to a conservative module-wide set,
4. connect returns by call/return matching, propagating return sites
   through the tail-call closure (a function reached by an
   inter-procedural jump returns on behalf of its jumper — this is also
   what stitches caller modules to callee returns across the PLT),
5. syscalls and non-terminated blocks get fall-through edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.telemetry import get_telemetry
from repro.analysis.cfg import BasicBlock, ControlFlowGraph, Edge, EdgeKind
from repro.binary.loader import Image, LoadedModule
from repro.isa.encoding import decode_at
from repro.isa.instructions import Insn, Op

_ARG_REGS = (1, 2, 3, 4, 5)
_UNKNOWN_ARITY = 5


def _instruction_reads(insn: Insn) -> List[int]:
    """Registers read by an instruction (for the liveness pass)."""
    op = insn.op
    if op in (Op.MOV_RI, Op.LEA, Op.POP, Op.NOP, Op.HALT, Op.RET,
              Op.JMP, Op.JCC, Op.CALL):
        return []
    if op is Op.MOV_RR:
        return [insn.rs]
    if op in (Op.LOAD, Op.LOADB):
        return [insn.rb]
    if op in (Op.STORE, Op.STOREB):
        return [insn.rb, insn.rs]
    if op is Op.PUSH:
        return [insn.rs]
    if op in (Op.JMPR, Op.CALLR):
        return [insn.rs]
    if op is Op.SYSCALL:
        # Syscalls consume r0..r5 by convention.
        return [0, 1, 2, 3, 4, 5]
    if op in (Op.ADDI, Op.SUBI, Op.CMPI, Op.MULI, Op.ANDI):
        return [insn.rd]
    # Two-operand ALU ops read both.
    return [insn.rd, insn.rs]


def _instruction_writes(insn: Insn) -> List[int]:
    op = insn.op
    if op in (Op.MOV_RI, Op.MOV_RR, Op.LEA, Op.LOAD, Op.LOADB, Op.POP):
        return [insn.rd]
    if op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
              Op.XOR, Op.SHL, Op.SHR, Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI):
        return [insn.rd]
    if op is Op.SYSCALL:
        return [0]
    return []


class _Function:
    """Disassembled view of one function (or PLT stub)."""

    def __init__(self, name: str, module: LoadedModule,
                 start: int, end: int) -> None:
        self.name = name
        self.module = module
        self.start = start
        self.end = end
        self.insns: List[Tuple[int, Insn, int]] = []
        self.is_plt = False
        self.plt_import: Optional[str] = None


def build_ocfg(image: Image) -> ControlFlowGraph:
    """Convenience wrapper around :class:`CFGBuilder`."""
    return CFGBuilder(image).build()


class CFGBuilder:
    """Builds the conservative O-CFG for a loaded image, bounding
    disassembly by each module's ``function_ranges``."""

    def __init__(self, image: Image) -> None:
        self.image = image
        self.cfg = ControlFlowGraph()
        self._functions: List[_Function] = []
        self._entry_to_function: Dict[int, _Function] = {}
        #: callee entry -> set of return-site addresses
        self._return_sites: Dict[int, Set[int]] = {}
        #: function entry -> entries it tail-jumps to
        self._tail_jumps: Dict[int, Set[int]] = {}
        #: module name -> code addresses referenced from data relocations
        self._reloc_code_targets: Dict[str, Set[int]] = {}

    # -- phase 1: disassembly ------------------------------------------------

    def _disassemble(self) -> None:
        for lm in self.image.all_modules():
            module = lm.module
            for name, (start, end) in sorted(
                module.function_ranges.items(),
                key=lambda kv: kv[1][0],
            ):
                fn = _Function(name, lm, lm.base + start, lm.base + end)
                self._decode_range(fn, module.code, start, end)
                self._functions.append(fn)
                self._entry_to_function[fn.start] = fn
            # PLT stubs live after the last function; each is a
            # pseudo-function of its own.
            plt_sorted = sorted(module.plt.items(), key=lambda kv: kv[1])
            for index, (import_name, offset) in enumerate(plt_sorted):
                stub_end = (
                    plt_sorted[index + 1][1]
                    if index + 1 < len(plt_sorted)
                    else len(module.code)
                )
                fn = _Function(
                    f"{import_name}@plt", lm,
                    lm.base + offset, lm.base + stub_end,
                )
                fn.is_plt = True
                fn.plt_import = import_name
                self._decode_range(fn, module.code, offset, stub_end)
                self._functions.append(fn)
                self._entry_to_function[fn.start] = fn

    def _decode_range(self, fn: _Function, code: bytes,
                      start: int, end: int) -> None:
        pos = start
        while pos < end:
            insn, length = decode_at(code, pos)
            fn.insns.append((fn.module.base + pos, insn, length))
            pos += length

    # -- phase 2: address-taken & relocation analysis -----------------------------

    def _collect_address_taken(self) -> None:
        taken = self.cfg.address_taken
        # LEA references to function entries.
        for fn in self._functions:
            for addr, insn, length in fn.insns:
                if insn.op is Op.LEA:
                    target = addr + length + insn.rel
                    if target in self._entry_to_function:
                        taken.add(target)
        # Data relocations (function-pointer tables, vtables).
        for lm in self.image.all_modules():
            targets: Set[int] = set()
            for reloc in lm.module.relocations:
                value = self.image.memory.read_u64(
                    lm.data_base + reloc.data_offset
                )
                targets.add(value)
                if value in self._entry_to_function:
                    taken.add(value)
            self._reloc_code_targets[lm.name] = targets
        # Exported functions are conservatively considered address-taken
        # (dlsym-style lookups are invisible to static analysis).
        for lm in self.image.all_modules():
            for sym in lm.module.symbols.values():
                if sym.is_function:
                    taken.add(lm.base + sym.offset)

    # -- phase 3: TypeArmor arity analysis ------------------------------------------

    def _function_arity(self, fn: _Function) -> int:
        """Argument registers consumed: read before written (linear scan)."""
        written: Set[int] = set()
        consumed: Set[int] = set()
        for _, insn, _ in fn.insns:
            if insn.op is Op.SYSCALL:
                # Syscall argument consumption is not caller-visible.
                written.update(range(6))
                continue
            for reg in _instruction_reads(insn):
                if reg in _ARG_REGS and reg not in written:
                    consumed.add(reg)
            for reg in _instruction_writes(insn):
                written.add(reg)
        return max(consumed) if consumed else 0

    @staticmethod
    def _callsite_arity(fn: _Function, call_index: int) -> int:
        """Argument registers prepared before an indirect call."""
        prepared: Set[int] = set()
        index = call_index - 1
        scanned = 0
        while index >= 0 and scanned < 16:
            _, insn, _ = fn.insns[index]
            if insn.op in (Op.CALL, Op.CALLR, Op.SYSCALL, Op.RET):
                break
            for reg in _instruction_writes(insn):
                if reg in _ARG_REGS:
                    prepared.add(reg)
            index -= 1
            scanned += 1
        return max(prepared) if prepared else _UNKNOWN_ARITY

    # -- phase 4: blocks and edges -----------------------------------------------------

    _TERMINATORS = frozenset(
        {Op.JMP, Op.JCC, Op.JMPR, Op.CALL, Op.CALLR, Op.RET, Op.SYSCALL,
         Op.HALT}
    )

    def _split_blocks(self, fn: _Function) -> List[BasicBlock]:
        leaders: Set[int] = {fn.start}
        for addr, insn, length in fn.insns:
            if insn.op in (Op.JMP, Op.JCC):
                target = addr + length + insn.rel
                if fn.start <= target < fn.end:
                    leaders.add(target)
            if insn.op in self._TERMINATORS and addr + length < fn.end:
                leaders.add(addr + length)
        blocks: List[BasicBlock] = []
        current_start: Optional[int] = None
        terminator: Optional[int] = None
        for addr, insn, length in fn.insns:
            if addr in leaders and current_start is not None:
                blocks.append(
                    BasicBlock(current_start, addr, fn.module.name,
                               fn.name, terminator)
                )
                current_start = None
            if current_start is None:
                current_start = addr
                terminator = None
            if insn.op in self._TERMINATORS:
                terminator = addr
                blocks.append(
                    BasicBlock(current_start, addr + length,
                               fn.module.name, fn.name, terminator)
                )
                current_start = None
        if current_start is not None:
            blocks.append(
                BasicBlock(current_start, fn.end, fn.module.name,
                           fn.name, None)
            )
        return blocks

    def _got_target(self, fn: _Function) -> Optional[int]:
        """The resolved target of a PLT stub (read through the GOT)."""
        if not fn.is_plt or fn.plt_import is None:
            return None
        lm = fn.module
        got_offset = lm.module.got[fn.plt_import]
        return self.image.memory.read_u64(lm.data_base + got_offset)

    def build(self) -> ControlFlowGraph:
        tel = get_telemetry()
        with tel.tracer.span("ocfg.disassemble"):
            self._disassemble()
        with tel.tracer.span("ocfg.address_taken"):
            self._collect_address_taken()
        with tel.tracer.span("ocfg.arity"):
            for fn in self._functions:
                self.cfg.function_arity[fn.name] = self._function_arity(fn)

        with tel.tracer.span("ocfg.blocks_edges"):
            # Candidate indirect-call targets: address-taken function
            # entries keyed by arity for the TypeArmor match.
            taken_functions = [
                (entry,
                 self.cfg.function_arity[self._entry_to_function[entry].name])
                for entry in sorted(self.cfg.address_taken)
                if entry in self._entry_to_function
            ]

            all_blocks: Dict[int, BasicBlock] = {}
            for fn in self._functions:
                for block in self._split_blocks(fn):
                    all_blocks[block.start] = block
                    self.cfg.add_block(block)

            deferred_rets: List[Tuple[_Function, int]] = []  # (fn, ret addr)

            for fn in self._functions:
                index_of = {
                    addr: i for i, (addr, _, _) in enumerate(fn.insns)
                }
                for block in (
                    b for b in all_blocks.values()
                    if b.function == fn.name and b.module == fn.module.name
                    and fn.start <= b.start < fn.end
                ):
                    self._block_edges(
                        fn, block, all_blocks, taken_functions,
                        index_of, deferred_rets,
                    )

        with tel.tracer.span("ocfg.returns"):
            self._propagate_tail_calls()
            self._connect_returns(deferred_rets, all_blocks)
        if tel.enabled:
            tel.metrics.counter("ocfg.builds").inc()
            tel.metrics.counter("ocfg.functions_disassembled").inc(
                len(self._functions)
            )
        return self.cfg

    def _block_edges(
        self,
        fn: _Function,
        block: BasicBlock,
        all_blocks: Dict[int, BasicBlock],
        taken_functions: List[Tuple[int, int]],
        index_of: Dict[int, int],
        deferred_rets: List[Tuple["_Function", int]],
    ) -> None:
        cfg = self.cfg
        if block.terminator is None:
            # Straight-line block flowing into the next leader.
            if block.end in all_blocks:
                cfg.add_edge(
                    Edge(block.start, block.end, EdgeKind.FALLTHROUGH,
                         block.end)
                )
            return
        term_index = index_of[block.terminator]
        addr, insn, length = fn.insns[term_index]
        next_addr = addr + length
        op = insn.op

        if op is Op.HALT:
            return
        if op is Op.JMP:
            target = next_addr + insn.rel
            cfg.add_edge(Edge(block.start, target, EdgeKind.DIRECT_JMP, addr))
            target_fn = self._entry_to_function.get(target)
            if target_fn is not None and target != fn.start:
                # Inter-procedural jump: a tail call (§4.1).
                self._tail_jumps.setdefault(fn.start, set()).add(target)
            return
        if op is Op.JCC:
            target = next_addr + insn.rel
            cfg.add_edge(Edge(block.start, target, EdgeKind.COND_TAKEN, addr))
            if next_addr in all_blocks:
                cfg.add_edge(
                    Edge(block.start, next_addr, EdgeKind.FALLTHROUGH, addr)
                )
            return
        if op is Op.SYSCALL:
            if next_addr in all_blocks:
                cfg.add_edge(
                    Edge(block.start, next_addr, EdgeKind.FALLTHROUGH, addr)
                )
            return
        if op is Op.CALL:
            target = next_addr + insn.rel
            cfg.add_edge(Edge(block.start, target, EdgeKind.DIRECT_CALL, addr))
            callee = self._effective_callee(target)
            self._return_sites.setdefault(callee, set()).add(next_addr)
            return
        if op is Op.CALLR:
            site_arity = self._callsite_arity(fn, term_index)
            cfg.indirect_targets.setdefault(addr, set())
            for entry, arity in taken_functions:
                if arity <= site_arity:
                    cfg.add_edge(
                        Edge(block.start, entry, EdgeKind.INDIRECT_CALL, addr)
                    )
                    callee = self._effective_callee(entry)
                    self._return_sites.setdefault(callee, set()).add(
                        next_addr
                    )
            return
        if op is Op.JMPR:
            cfg.indirect_targets.setdefault(addr, set())
            got_target = self._got_target(fn)
            if got_target is not None:
                cfg.add_edge(
                    Edge(block.start, got_target, EdgeKind.INDIRECT_JMP, addr)
                )
                # The stub tail-jumps into the resolved function; returns
                # from it serve the original caller.
                self._tail_jumps.setdefault(fn.start, set()).add(got_target)
                return
            targets = self._jump_table_targets(fn)
            for target in targets:
                cfg.add_edge(
                    Edge(block.start, target, EdgeKind.INDIRECT_JMP, addr)
                )
            return
        if op is Op.RET:
            deferred_rets.append((fn, addr))
            return

    def _effective_callee(self, entry: int) -> int:
        """Resolve a call target through a PLT stub to the real callee."""
        fn = self._entry_to_function.get(entry)
        if fn is not None and fn.is_plt:
            resolved = self._got_target(fn)
            if resolved is not None:
                return resolved
        return entry

    def _jump_table_targets(self, fn: _Function) -> Set[int]:
        """Conservative indirect-jump target resolution (non-PLT)."""
        module_targets = self._reloc_code_targets.get(fn.module.name, set())
        in_function = {
            t for t in module_targets if fn.start <= t < fn.end
        }
        if in_function:
            return in_function
        conservative = {
            t for t in module_targets
            if self.image.module_of(t) is not None
        }
        conservative.update(
            entry for entry in self.cfg.address_taken
            if self._entry_to_function.get(entry) is not None
            and self._entry_to_function[entry].module is fn.module
        )
        return conservative

    def _propagate_tail_calls(self) -> None:
        """Return sites flow through the tail-call closure.

        If F tail-jumps to G (directly or transitively), G's returns may
        land at F's return sites.
        """
        changed = True
        while changed:
            changed = False
            for src_entry, targets in self._tail_jumps.items():
                sites = self._return_sites.get(src_entry)
                if not sites:
                    continue
                for target in targets:
                    resolved = self._effective_callee(target)
                    bucket = self._return_sites.setdefault(resolved, set())
                    before = len(bucket)
                    bucket.update(sites)
                    if len(bucket) != before:
                        changed = True

    def _connect_returns(
        self,
        deferred_rets: List[Tuple[_Function, int]],
        all_blocks: Dict[int, BasicBlock],
    ) -> None:
        cfg = self.cfg
        for fn, ret_addr in deferred_rets:
            cfg.indirect_targets.setdefault(ret_addr, set())
            block = cfg.block_at(ret_addr)
            if block is None:  # pragma: no cover - defensive
                continue
            for site in self._return_sites.get(fn.start, ()):  # noqa: B020
                target_block = cfg.block_at(site)
                if target_block is not None:
                    cfg.add_edge(
                        Edge(block.start, target_block.start,
                             EdgeKind.RET, ret_addr)
                    )
