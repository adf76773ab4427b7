"""Hot basic blocks compiled to straight-line Python.

A *block* starts at a leader — the instruction after a retired CoFI or
SYSCALL — and runs up to and including the next CoFI (JMP, Jcc, CALL,
CALLR, RET, JMPR).  It ends *before* a SYSCALL or HALT, before an
instruction that does not decode wholly on the leader's page, and after
:data:`MAX_BLOCK_INSNS` instructions.  This is the unit Intel PT reports
in: between two retired CoFIs the CPU runs exactly one block.

:func:`compile_block` turns a block into one generated function::

    fn(regs, pages, prots, cycles, flags) -> (ip, cycles, flags, retired)

The body is the dispatch loop's fast path for each instruction, in
order, with the opcode dispatch resolved at compile time.  It keeps one
``cycles += cost`` per instruction, in retirement order: ``cycles`` is a
float that also takes fractional IPT and I/O charges, so a merged sum
could round differently.  Each memory access makes the loop's one
protection lookup.  Where the loop would leave its fast path — a miss
on the page tables, a u64 that crosses a page, a zero divisor — the
function *bails*: it returns before that instruction, uncharged, with
``retired`` short of the block's size and registers exactly as the
loop would have them, and the loop runs the instruction itself.  So
faults, their text and ``ip``, ``cycles`` and ``insn_count`` stay the
loop's.  A block that ends in a CoFI returns its destination; the loop
publishes the CoFI's event.

Decoded code is shared: a :class:`BlockStore` belongs to the module
whose code it holds (:attr:`repro.binary.module.Module.blocks`) and the
loader files the module's code pages under it
(:meth:`repro.cpu.memory.Memory.attach_blocks`).  The store keeps, per
code page and per distinct content of that page, one :class:`CodePage`:
the page's bytes, the predecoded entries decoded from them and the blocks
compiled from those entries.  An executor *attests* a page once per
memory and code epoch (:meth:`BlockStore.attest`): the page must be
mapped EXEC and not WRITE, and its bytes select the variant decoded from
the same bytes.  From then on every process that maps the module —
forked, or loaded by another kernel — takes entries and blocks from a
dict, without fetching, decoding or comparing code again.  A block is
compiled once :data:`HOT_ENTRIES` leader visits found none, and holds
only instructions that lie wholly on its page.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.cpu.events import CoFIKind
from repro.cpu.executor import NO_BLOCK, _ROUTE_KINDS, predecode
from repro.cpu.machine import U64_MASK, to_signed
from repro.cpu.memory import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    Memory,
)
from repro.isa.encoding import DecodeError, decode_at
from repro.isa.instructions import Op
from repro.isa.registers import SP

#: Leader visits that find no compiled block before one is compiled.
HOT_ENTRIES = 16

#: Longest block; a longer straight-line run continues in the loop.
MAX_BLOCK_INSNS = 64

_OFFSET = PAGE_SIZE - 1
_LAST = PAGE_SIZE - 8  # a u64 at a higher page offset crosses pages
_SIGN = 1 << 63

_ROUTE = {
    int(Op.JMP): _ROUTE_KINDS.index(CoFIKind.DIRECT_JMP),
    int(Op.CALL): _ROUTE_KINDS.index(CoFIKind.DIRECT_CALL),
    int(Op.JCC): _ROUTE_KINDS.index(CoFIKind.COND_BRANCH),
    int(Op.JMPR): _ROUTE_KINDS.index(CoFIKind.INDIRECT_JMP),
    int(Op.CALLR): _ROUTE_KINDS.index(CoFIKind.INDIRECT_CALL),
    int(Op.RET): _ROUTE_KINDS.index(CoFIKind.RET),
}
_STOPS = frozenset((int(Op.SYSCALL), int(Op.HALT)))
_FLAG_WRITERS = frozenset(int(op) for op in (
    Op.ADD, Op.SUB, Op.ADDI, Op.SUBI, Op.MUL, Op.MULI, Op.AND, Op.ANDI,
    Op.OR, Op.XOR, Op.CMP, Op.CMPI,
))
#: Instructions that read the flags word: a Jcc, and every instruction
#: that can bail (the bail returns the flags as they stand).
_FLAG_READERS = frozenset(int(op) for op in (
    Op.JCC, Op.LOAD, Op.STORE, Op.LOADB, Op.STOREB, Op.PUSH, Op.POP,
    Op.DIV, Op.MOD, Op.CALL, Op.CALLR, Op.RET,
))
_U64 = struct.Struct("<Q")
#: The names a generated function binds as default arguments.
_NAMESPACE = {
    "unpack": _U64.unpack_from,
    "pack": _U64.pack_into,
    "to_signed": to_signed,
}


class Block(NamedTuple):
    """One compiled block, as the dispatch loop reads it."""

    #: ``fn(regs, pages, prots, cycles, flags)`` returning
    #: ``(ip, cycles, flags, retired)``.
    fn: Callable
    #: Instructions in the block, its CoFI included.
    size: int
    #: Index of the ending CoFI's kind in the loop's listener routes;
    #: -1 when the block ends without one.
    route: int
    #: The ending CoFI's event per flags word when its target is static
    #: (JMP, CALL, Jcc); None when it is computed.
    events: Optional[tuple]
    #: The ending CoFI's kind and address (for computed targets).
    kind: Optional[CoFIKind]
    term_ip: int


class CodePage:
    """One code page as some address spaces map it: its bytes, and the
    predecoded entries and compiled blocks made from them, by address."""

    __slots__ = ("base", "data", "entries", "blocks", "_heat")

    def __init__(self, pageno: int, data: bytes) -> None:
        self.base = pageno << PAGE_SHIFT
        self.data = data
        self.entries: Dict[int, tuple] = {}
        #: Leader ip -> compiled block, or :data:`NO_BLOCK`.
        self.blocks: Dict[int, Union[Block, Tuple[()]]] = {}
        self._heat: Dict[int, int] = {}

    def entry(self, ip: int) -> Optional[tuple]:
        """The predecoded entry at ``ip``, decoded from the page's bytes
        on first use; None unless an instruction decodes there wholly on
        this page."""
        entry = self.entries.get(ip)
        if entry is None:
            try:
                insn, length = decode_at(self.data, ip - self.base)
            except DecodeError:  # off the page, cut by its end, or invalid
                return None
            entry = self.entries[ip] = predecode(insn, ip, length)
        return entry

    def block(self, ip: int) -> Union[Block, Tuple[()], None]:
        """The block entered at leader ``ip``.

        A visit that finds none counts toward :data:`HOT_ENTRIES`, and a
        hot ``ip`` is compiled.  Returns None while ``ip`` is cold, and
        :data:`NO_BLOCK` when no block can start there.
        """
        block = self.blocks.get(ip)
        if block is None:
            heat = self._heat[ip] = self._heat.get(ip, 0) + 1
            if heat < HOT_ENTRIES:
                return None
            block = self.blocks[ip] = compile_block(self, ip) or NO_BLOCK
        return block


class BlockStore:
    """The decoded code of one module: per code page number, one
    :class:`CodePage` per distinct content the page was attested with."""

    def __init__(self) -> None:
        self._pages: Dict[int, List[CodePage]] = {}

    def attest(self, memory: Memory, pageno: int) -> Optional[CodePage]:
        """The store's page for page ``pageno`` of ``memory``: the variant
        decoded from the same bytes, made on first sight of them.  None
        unless the page is mapped EXEC and not WRITE."""
        pages, prots = memory.tables()
        if prots.get(pageno, 0) & (PROT_EXEC | PROT_WRITE) != PROT_EXEC:
            return None
        data = pages[pageno]
        variants = self._pages.setdefault(pageno, [])
        for page in variants:
            if page.data == data:
                return page
        page = CodePage(pageno, bytes(data))
        variants.append(page)
        return page


def compile_block(page: CodePage, ip: int) -> Optional[Block]:
    """Compile the block entered at ``ip`` on ``page``.

    None when no instruction can start a block there: a SYSCALL or HALT,
    or no instruction that decodes wholly on the page.
    """
    entries = []
    at = ip
    while len(entries) < MAX_BLOCK_INSNS:
        e = page.entry(at)
        if e is None or e[0] in _STOPS:
            break
        entries.append((at, e))
        at = e[2]
        if e[0] in _ROUTE:
            break
    if not entries:
        return None
    namespace = dict(_NAMESPACE)
    exec(compile(_source(entries), f"<block {ip:#x}>", "exec"), namespace)
    # Popped, so the function and its globals form no reference cycle.
    fn = namespace.pop("block")
    term_ip, last = entries[-1]
    op = last[0]
    route = _ROUTE.get(op, -1)
    events = kind = None
    if op == Op.JCC:
        events = last[4]
    elif op == Op.JMP or op == Op.CALL:
        events = (last[4],) * 4
    elif route >= 0:
        kind = _ROUTE_KINDS[route]
    return Block(fn, len(entries), route, events, kind, term_ip)


def _source(entries) -> str:
    """The generated function for ``entries`` (``(ip, predecoded)``
    pairs)."""
    # Flags are live after an instruction if something reads them before
    # the next instruction that writes them, or if the block ends first.
    live_after = [True] * len(entries)
    live = True
    for k in range(len(entries) - 1, -1, -1):
        live_after[k] = live
        op = entries[k][1][0]
        if op in _FLAG_WRITERS:
            live = False
        elif op in _FLAG_READERS:
            live = True

    size = len(entries)
    out = ["def block(regs, pages, prots, c, fl, unpack=unpack, pack=pack,"
           " to_signed=to_signed):"]
    for k, (pc, e) in enumerate(entries):
        out.extend("    " + line
                   for line in _insn(k, pc, e, live_after[k], size))
    if entries[-1][1][0] not in _ROUTE:
        out.append(f"    return {entries[-1][1][2]}, c, fl, {size}")
    return "\n".join(out) + "\n"


def _access(addr: str, prot: int, k: int, pc: int, word: bool) -> List[str]:
    """Compute ``a`` (page ``p``, offset ``o``) and bail unless the
    loop's one-page fast path covers the access."""
    lines = [f"a = {addr}", f"p = a >> {PAGE_SHIFT}"]
    if word:
        lines += [f"o = a & {_OFFSET}",
                  f"if o > {_LAST} or not prots.get(p, 0) & {prot}:"]
    else:
        lines += [f"if not prots.get(p, 0) & {prot}:"]
    lines.append(f"    return {pc}, c, fl, {k}")
    return lines


def _insn(k: int, pc: int, e: tuple, flags_live: bool,
          size: int) -> List[str]:
    """Source lines for instruction ``k`` of a block (predecoded ``e`` at
    ``pc``)."""
    R, W = PROT_READ, PROT_WRITE
    op, cost, next_ip = e[0], e[1], e[2]
    charge = f"c += {cost!r}"
    mask = U64_MASK
    bail = f"return {pc}, c, fl, {k}"

    def alu(expr: str, dst: int) -> List[str]:
        if flags_live:
            return [charge, f"r = regs[{dst}] = {expr}",
                    "fl = r >> 63 if r else 2"]
        return [charge, f"regs[{dst}] = {expr}"]

    def disp(base: int, off: int) -> str:
        return f"regs[{base}] + {off}" if off else f"regs[{base}]"

    if op == Op.LOAD:
        return (_access(disp(e[4], e[5]), R, k, pc, True)
                + [charge, f"regs[{e[3]}] = unpack(pages[p], o)[0]"])
    if op == Op.STORE:
        return (_access(disp(e[3], e[4]), W, k, pc, True)
                + [charge, f"pack(pages[p], o, regs[{e[5]}])"])
    if op == Op.LOADB:
        return (_access(disp(e[4], e[5]), R, k, pc, False)
                + [charge, f"regs[{e[3]}] = pages[p][a & {_OFFSET}]"])
    if op == Op.STOREB:
        return (_access(disp(e[3], e[4]), W, k, pc, False)
                + [charge,
                   f"pages[p][a & {_OFFSET}] = regs[{e[5]}] & 255"])
    if op == Op.PUSH:
        # SP moves only once the push cannot bail; the value is read
        # first, so PUSH SP stores the old SP.
        return (_access(f"(regs[{SP}] - 8) & {mask}", W, k, pc, True)
                + [charge, f"pack(pages[p], o, regs[{e[3]}])",
                   f"regs[{SP}] = a"])
    if op == Op.POP:
        return (_access(f"regs[{SP}]", R, k, pc, True)
                + [charge, "v = unpack(pages[p], o)[0]",
                   f"regs[{SP}] = (a + 8) & {mask}", f"regs[{e[3]}] = v"])
    if op == Op.MOV_RR:
        return [charge, f"regs[{e[3]}] = regs[{e[4]}]"]
    if op == Op.MOV_RI:
        return [charge, f"regs[{e[3]}] = {e[4]}"]
    if op == Op.ADD:
        return alu(f"(regs[{e[3]}] + regs[{e[4]}]) & {mask}", e[3])
    if op == Op.SUB:
        return alu(f"(regs[{e[3]}] - regs[{e[4]}]) & {mask}", e[3])
    if op == Op.ADDI:
        return alu(f"(regs[{e[3]}] + {e[4]}) & {mask}", e[3])
    if op == Op.SUBI:
        return alu(f"(regs[{e[3]}] - {e[4]}) & {mask}", e[3])
    if op == Op.MUL:
        return alu(f"(regs[{e[3]}] * regs[{e[4]}]) & {mask}", e[3])
    if op == Op.MULI:
        return alu(f"(regs[{e[3]}] * {e[4]}) & {mask}", e[3])
    if op == Op.AND:
        return alu(f"regs[{e[3]}] & regs[{e[4]}]", e[3])
    if op == Op.ANDI:
        return alu(f"regs[{e[3]}] & {e[4]}", e[3])
    if op == Op.OR:
        return alu(f"regs[{e[3]}] | regs[{e[4]}]", e[3])
    if op == Op.XOR:
        return alu(f"regs[{e[3]}] ^ regs[{e[4]}]", e[3])
    if op == Op.SHL:
        return [charge,
                f"regs[{e[3]}] = (regs[{e[3]}] << (regs[{e[4]}] & 63))"
                f" & {mask}"]
    if op == Op.SHR:
        return [charge, f"regs[{e[3]}] = regs[{e[3]}] >> (regs[{e[4]}] & 63)"]
    if op == Op.CMP:
        if not flags_live:
            return [charge]
        return [charge, f"a = regs[{e[3]}]", f"b = regs[{e[4]}]",
                f"fl = 2 if a == b else (a ^ {_SIGN}) < (b ^ {_SIGN})"]
    if op == Op.CMPI:
        if not flags_live:
            return [charge]
        return [charge, f"a = regs[{e[3]}]",
                f"fl = 2 if a == {e[4]} else (a ^ {_SIGN}) < {e[5]}"]
    if op == Op.DIV or op == Op.MOD:
        result = "q" if op == Op.DIV else "x - q * d"
        return [f"d = to_signed(regs[{e[4]}])", "if d == 0:",
                f"    {bail}", charge,
                f"x = to_signed(regs[{e[3]}])",
                "q = abs(x) // abs(d)",
                "if (x < 0) != (d < 0):", "    q = -q",
                f"regs[{e[3]}] = ({result}) & {mask}"]
    if op == Op.NOP:
        return [charge]
    # The block's CoFI.
    if op == Op.JMP:
        return [charge, f"return {e[3]}, c, fl, {size}"]
    if op == Op.JCC:
        return [charge, f"return {e[3]!r}[fl], c, fl, {size}"]
    if op == Op.JMPR:
        return [charge, f"return regs[{e[3]}], c, fl, {size}"]
    if op == Op.CALL or op == Op.CALLR:
        target = str(e[3]) if op == Op.CALL else "t"
        first = [] if op == Op.CALL else [f"t = regs[{e[3]}]"]
        return (first
                + _access(f"(regs[{SP}] - 8) & {mask}", W, k, pc, True)
                + [charge, f"pack(pages[p], o, {next_ip})",
                   f"regs[{SP}] = a", f"return {target}, c, fl, {size}"])
    if op == Op.RET:
        return (_access(f"regs[{SP}]", R, k, pc, True)
                + [charge, f"regs[{SP}] = (a + 8) & {mask}",
                   f"return unpack(pages[p], o)[0], c, fl, {size}"])
    raise ValueError(f"no block form for opcode {op:#04x}")
