"""Hot basic blocks compiled to straight-line Python.

A *block* starts at a leader — the instruction after a retired CoFI or
SYSCALL — and runs up to and including the next CoFI (JMP, Jcc, CALL,
CALLR, RET, JMPR).  It ends *before* a SYSCALL or HALT, before an
instruction that does not decode wholly on the leader's page, and after
:data:`MAX_BLOCK_INSNS` instructions.  This is the unit Intel PT reports
in: between two retired CoFIs the CPU runs exactly one block.

A *superblock* also runs straight through each direct JMP and CALL whose
target lies on the leader's page, up to the next CoFI it cannot follow.
Those CoFIs make no packet and publish no event, so an executor runs
superblocks only while no listener subscribes to ``DIRECT_JMP`` or
``DIRECT_CALL`` (:attr:`CodePage.chains`, beside the per-block map
:attr:`CodePage.blocks`).

:func:`compile_block` turns either into one generated function::

    fn(regs, pages, prots, cycles, flags) -> (ip, cycles, flags, retired)

The body is the dispatch loop's fast path for each instruction, in
order, with the opcode dispatch resolved at compile time.

- *One cycle charge per exit.*  The loop adds each instruction's cost to
  ``cycles`` one at a time; a block adds the summed cost of the
  instructions it retires once, at its exit or bail (``c + K``).  An
  entry guard makes the one add round exactly as the adds in order do:
  the block bails at its first instruction, uncharged, when ``c`` is at
  least ``2**51``, or when ``c`` is below the block's total cost ``A``
  and off the half-cycle grid.  Every instruction cost is a whole
  number of cycles (:data:`repro.costs.INSN_CYCLES`).  A ``c`` on the
  grid below ``2**51`` takes every sum exactly, so no add rounds.  A
  ``c`` of at least ``A`` is at least every ``K``: the adds cross at
  most one binade, the first add that crosses rounds to the even grid of
  the next, and below ``2**51`` every whole number is a multiple of that
  grid's tie-breaking step, so the adds after it, and the one add of the
  sum, land on the same float.  An open-loop arrival gap can set ``c``
  to any float; closed-loop charges (whole instruction and syscall
  costs, 1.5 cycles per I/O byte) keep it on the grid.

- *Registers in locals.*  Each guest register the block reads before it
  writes it is loaded from ``regs`` once, at entry; every write makes a
  new local (so ``MOV_RR`` is an alias and costs no code), and each
  register that changed is stored back at every exit, bails included.
  PUSH, POP, CALL and RET move SP by a constant that is tracked at
  compile time and added only where SP's value is needed.
- *One protection check per base value.*  Every access's address is a
  base value (one local, that is one register version) plus a constant.
  The accesses of one base value whose offsets span at most
  :data:`GROUP_SPAN` bytes form a *group*, checked once, at its first
  access: its bytes lie on one page that has every R/W bit the group
  needs.  After the check its loads and stores index that page's
  bytearray directly.
- *Forwarding through memory.*  A u64 *slot* is one offset of one
  group.  The compiler remembers the register value last stored to each
  slot (STORE, PUSH, CALL) or loaded from it (LOAD, POP), and a LOAD,
  POP or RET of a remembered slot becomes an alias of that value, with
  no read of the page.  The access is still filed in its group, so the
  group's check, and every bail and fault, stay as they were.  Every
  store still writes the page; it forgets every slot of the other
  groups (another base value may point at the same bytes) and the slots
  of its own group that it overlaps, and a STOREB only forgets.
- *Bails.*  Where the loop would leave its fast path — a group that does
  not fit one page or lacks a protection bit, a zero divisor — the
  function returns before that instruction, uncharged, with ``retired``
  short of the block's size and the registers exactly as the loop would
  have them, and the loop runs the instruction itself.  So faults, their
  text and ``ip``, ``cycles`` and ``insn_count`` stay the loop's.  A
  group bails at its first access even when only a later access would
  miss; the loop then runs the accesses one by one, and faults where it
  would have.

A block that ends in a CoFI returns its destination; the loop publishes
the CoFI's event.

Decoded code is shared: a :class:`BlockStore` belongs to the module
whose code it holds (:attr:`repro.binary.module.Module.blocks`) and the
loader files the module's code pages under it
(:meth:`repro.cpu.memory.Memory.attach_blocks`).  The store keeps, per
code page and per distinct content of that page, one :class:`CodePage`:
the page's bytes, the predecoded entries decoded from them and the blocks
and superblocks compiled from those entries.  An executor *attests* a
page once per memory and code epoch (:meth:`BlockStore.attest`): the
page must be mapped EXEC and not WRITE, and its bytes select the variant
decoded from the same bytes.  From then on every process that maps the
module — forked, or loaded by another kernel — takes entries and blocks
from a dict, without fetching, decoding or comparing code again.  The
slow path's :class:`~repro.ipt.full_decoder.FullDecoder` attests pages
the same way and walks the same entries, so :meth:`BlockStore.attest`
is the one rule for when decoded code may be reused.  A
block is compiled once :data:`HOT_ENTRIES` leader visits found none, and
holds only instructions that lie wholly on its page.
"""

from __future__ import annotations

import struct
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Tuple, Union,
)

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
from repro.isa.registers import NUM_REGS, SP

#: Leader visits that find no compiled block before one is compiled.
HOT_ENTRIES = 16

#: Longest block or superblock; a longer straight-line run continues in
#: the loop.
MAX_BLOCK_INSNS = 64

#: Widest byte span of one access group.  The group's check bails when
#: the span crosses a page, so a narrow span bails rarely; accesses
#: further apart form separate groups.
GROUP_SPAN = 512

_OFFSET = PAGE_SIZE - 1
_SIGN = 1 << 63

_ROUTE = {
    int(Op.JMP): _ROUTE_KINDS.index(CoFIKind.DIRECT_JMP),
    int(Op.CALL): _ROUTE_KINDS.index(CoFIKind.DIRECT_CALL),
    int(Op.JCC): _ROUTE_KINDS.index(CoFIKind.COND_BRANCH),
    int(Op.JMPR): _ROUTE_KINDS.index(CoFIKind.INDIRECT_JMP),
    int(Op.CALLR): _ROUTE_KINDS.index(CoFIKind.INDIRECT_CALL),
    int(Op.RET): _ROUTE_KINDS.index(CoFIKind.RET),
}
#: The CoFIs a superblock runs through (when their target is on its page).
_CHAINED = frozenset((int(Op.JMP), int(Op.CALL)))
_STOPS = frozenset((int(Op.SYSCALL), int(Op.HALT)))
_FLAG_WRITERS = frozenset(int(op) for op in (
    Op.ADD, Op.SUB, Op.ADDI, Op.SUBI, Op.MUL, Op.MULI, Op.AND, Op.ANDI,
    Op.OR, Op.XOR, Op.CMP, Op.CMPI,
))
_U64 = struct.Struct("<Q")
#: From here up a cycle count bails at a block's entry: below it a whole
#: cycle is a multiple of the tie-breaking step of every binade a block's
#: adds reach (see the module docstring).
_EXACT_BELOW = float(2 ** 51)
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

    __slots__ = ("base", "data", "entries", "blocks", "chains", "_heat")

    def __init__(self, pageno: int, data: bytes) -> None:
        self.base = pageno << PAGE_SHIFT
        self.data = data
        self.entries: Dict[int, tuple] = {}
        #: Leader ip -> compiled block, or :data:`NO_BLOCK`.
        self.blocks: Dict[int, Union[Block, Tuple[()]]] = {}
        #: Leader ip -> compiled superblock, or :data:`NO_BLOCK`.
        self.chains: Dict[int, Union[Block, Tuple[()]]] = {}
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

    def block(self, ip: int, chain: bool) -> Union[Block, Tuple[()], None]:
        """The block entered at leader ``ip``: a superblock with
        ``chain``, else a basic block.

        A visit that finds none counts toward :data:`HOT_ENTRIES`, and a
        hot ``ip`` is compiled.  Returns None while ``ip`` is cold, and
        :data:`NO_BLOCK` when no block can start there.
        """
        blocks = self.chains if chain else self.blocks
        block = blocks.get(ip)
        if block is None:
            heat = self._heat[ip] = self._heat.get(ip, 0) + 1
            if heat < HOT_ENTRIES:
                return None
            block = blocks[ip] = compile_block(self, ip, chain) or NO_BLOCK
        return block


class BlockStore:
    """The decoded code of one module: per code page number, one
    :class:`CodePage` per distinct content the page was attested with."""

    def __init__(self) -> None:
        self._pages: Dict[int, List[CodePage]] = {}

    def attest(self, memory: Memory, pageno: int) -> Optional[CodePage]:
        """The store's page for page ``pageno`` of ``memory``: the variant
        decoded from the same bytes, made on first sight of them.  None
        unless the page is mapped EXEC and not WRITE: the mapping's
        protection decides, so a shared page mapped writable is refused
        although its access bits lack WRITE until its first write."""
        if memory.protection(pageno) & (PROT_EXEC | PROT_WRITE) != PROT_EXEC:
            return None
        data = memory.page_bytes(pageno)
        variants = self._pages.setdefault(pageno, [])
        for page in variants:
            if page.data == data:
                return page
        page = CodePage(pageno, bytes(data))
        variants.append(page)
        return page


def compile_block(page: CodePage, ip: int, chain: bool) -> Optional[Block]:
    """Compile the block entered at ``ip`` on ``page``; with ``chain``
    the superblock that runs through direct JMPs and CALLs into the page.

    None when no instruction can start a block there: a SYSCALL or HALT,
    or no instruction that decodes wholly on the page.
    """
    entries = []
    at = ip
    pageno = page.base >> PAGE_SHIFT
    while len(entries) < MAX_BLOCK_INSNS:
        e = page.entry(at)
        if e is None or e[0] in _STOPS:
            break
        entries.append((at, e))
        op = e[0]
        if op not in _ROUTE:
            at = e[2]
        elif chain and op in _CHAINED and e[3] >> PAGE_SHIFT == pageno:
            at = e[3]
        else:
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


class _Group:
    """The accesses of one base value checked together: offsets
    ``lo``..``hi`` (exclusive) from ``base``, needing the ``need`` bits,
    checked at instruction ``first``."""

    __slots__ = ("id", "base", "lo", "hi", "need", "first")

    def __init__(self, gid: int, base: str, lo: int, hi: int, need: int,
                 first: int) -> None:
        self.id, self.base, self.first = gid, base, first
        self.lo, self.hi, self.need = lo, hi, need


class _Access:
    """One load or store at ``offset`` from its group's base value."""

    __slots__ = ("group", "offset")

    def __init__(self, group: _Group, offset: int) -> None:
        self.group, self.offset = group, offset

    @property
    def page(self) -> str:
        return f"g{self.group.id}"

    @property
    def at(self) -> str:
        rel = self.offset - self.group.lo
        return f"o{self.group.id} + {rel}" if rel else f"o{self.group.id}"


class _Insn:
    """The generated code of one instruction, before groups and flag
    liveness are known.  ``body`` holds lines and callables that render
    a line once the groups are final."""

    __slots__ = ("pc", "charged", "op", "divisor", "body", "flags", "bail",
                 "exit")

    def __init__(self, pc: int, e: tuple, charged: float,
                 bail: tuple) -> None:
        self.pc, self.op = pc, e[0]
        #: The summed cost of the block's instructions before this one.
        self.charged = charged
        #: DIV or MOD: the divisor, which bails when zero.
        self.divisor: Optional[str] = None
        self.body: list = []
        self.flags: Optional[str] = None
        #: The register values to store back if the block bails here.
        self.bail = bail
        #: The block's exit, after its last instruction.
        self.exit: List[str] = []


class _Compiler:
    """Symbolic execution of a block over register *values*.

    ``values[r]`` is ``(base, delta)``: guest register ``r`` holds
    ``(base + delta) & U64_MASK``, ``base`` a Python local (or a
    literal); None while ``r`` is untouched.  ``delta`` is nonzero only
    for SP moved by PUSH, POP, CALL and RET.
    """

    def __init__(self) -> None:
        self.values: List[Optional[Tuple[str, int]]] = [None] * NUM_REGS
        self.loads: List[int] = []
        self.fresh = 0
        self.groups: List[_Group] = []
        #: The groups of each base value.
        self._based: Dict[str, List[_Group]] = {}
        #: The register value each u64 slot ``(group id, offset)`` is
        #: known to hold.
        self.slots: Dict[Tuple[int, int], Tuple[str, int]] = {}
        self.insns: List[_Insn] = []
        #: The summed cost of the instructions compiled so far.
        self.charged = 0.0

    # -- register values ------------------------------------------------

    def value(self, r: int) -> Tuple[str, int]:
        v = self.values[r]
        if v is None:
            v = self.values[r] = (f"r{r}", 0)
            self.loads.append(r)
        return v

    def read(self, r: int) -> str:
        """An expression for register ``r``'s value."""
        return _expr(self.value(r))

    def write(self, r: int) -> str:
        """A new local for register ``r``'s next value."""
        name = f"v{self.fresh}"
        self.fresh += 1
        self.values[r] = (name, 0)
        return name

    def stores(self, values: Optional[tuple] = None) -> List[str]:
        """Store back every register whose value (now, or in
        ``values``) differs from ``regs``."""
        if values is None:
            values = self.values
        return [f"regs[{r}] = {_expr(v)}" for r, v in enumerate(values)
                if v is not None and v != (f"r{r}", 0)]

    # -- accesses -------------------------------------------------------

    def access(self, k: int, base: str, offset: int, width: int,
               need: int, cover: Optional[int] = None) -> _Access:
        """File an access of ``width`` bytes at ``base + offset`` under
        the first group of ``base`` it fits in, else a new one.  The
        group also covers the byte at ``base + cover``, when given."""
        lo, hi = offset, offset + width
        if cover is not None:
            lo, hi = min(lo, cover), max(hi, cover + 1)
        groups = self._based.setdefault(base, [])
        for group in groups:
            low, high = min(group.lo, lo), max(group.hi, hi)
            if high - low <= GROUP_SPAN:
                group.lo, group.hi = low, high
                group.need |= need
                return _Access(group, offset)
        group = _Group(len(self.groups), base, lo, hi, need, k)
        self.groups.append(group)
        groups.append(group)
        return _Access(group, offset)

    def based(self, k: int, r: int, offset: int, width: int,
              need: int) -> _Access:
        """An access at register ``r`` plus ``offset``, as LOAD, STORE,
        LOADB and STOREB address memory (not masked to 64 bits)."""
        base, delta = self.value(r)
        if not delta:
            return self.access(k, base, offset, width, need)
        # ``r`` is SP (or a copy of it) moved by a tracked delta, and
        # holds ``(base + delta)`` masked.  The group covers
        # ``base + delta`` itself: a group that passes its check lies on
        # a mapped page, below 2**64, so the mask changes nothing there.
        return self.access(k, base, delta + offset, width, need, delta)

    def stack(self, k: int, delta: int, need: int) -> _Access:
        """The u64 stack slot at SP plus ``delta``."""
        base, at = self.value(SP)
        return self.access(k, base, at + delta, 8, need)

    # -- forwarding -----------------------------------------------------

    def stored(self, a: _Access, width: int,
               value: Optional[Tuple[str, int]] = None) -> None:
        """Forget the slots a store of ``width`` bytes at ``a`` may
        change, then remember that its slot holds ``value``, if given
        (a u64 store)."""
        gid, lo, hi = a.group.id, a.offset, a.offset + width
        self.slots = {key: v for key, v in self.slots.items()
                      if key[0] == gid and (key[1] >= hi or key[1] + 8 <= lo)}
        if value is not None:
            self.slots[gid, lo] = value

    def loaded(self, a: _Access, rd: Optional[int],
               body: list) -> Tuple[str, int]:
        """The value of the u64 slot at ``a``, which register ``rd``
        takes (None: none does): the value the slot is known to hold,
        else a new local that reads the page."""
        key = a.group.id, a.offset
        value = self.slots.get(key)
        if value is None:
            name = self.write(rd) if rd is not None else "t"
            body.append(lambda: f"{name} = unpack({a.page}, {a.at})[0]")
            value = self.slots[key] = (name, 0)
        elif rd is not None:
            self.values[rd] = value
        return value

    # -- instructions ---------------------------------------------------

    def insn(self, k: int, pc: int, e: tuple, last: bool,
             size: int) -> None:
        insn = _Insn(pc, e, self.charged, tuple(self.values))
        self.insns.append(insn)
        self.charged += e[1]
        body = insn.body
        op = e[0]
        R, W = PROT_READ, PROT_WRITE
        mask = U64_MASK

        def ret(target: str) -> None:
            insn.exit.extend(self.stores())
            insn.exit.append(
                f"return {target}, {_charge(self.charged)}, fl, {size}"
            )

        def alu(expr: str, rd: int, flags: bool = True) -> None:
            name = self.write(rd)
            body.append(f"{name} = {expr}")
            if flags:
                insn.flags = f"fl = {name} >> 63 if {name} else 2"

        if op == Op.LOAD:
            a = self.based(k, e[4], e[5], 8, R)
            self.loaded(a, e[3], body)
        elif op == Op.STORE:
            a = self.based(k, e[3], e[4], 8, W)
            v = self.value(e[5])
            src = _expr(v)
            body.append(lambda: f"pack({a.page}, {a.at}, {src})")
            self.stored(a, 8, v)
        elif op == Op.LOADB:
            a = self.based(k, e[4], e[5], 1, R)
            name = self.write(e[3])
            body.append(lambda: f"{name} = {a.page}[{a.at}]")
        elif op == Op.STOREB:
            a = self.based(k, e[3], e[4], 1, W)
            src = self.read(e[5])
            body.append(lambda: f"{a.page}[{a.at}] = {src} & 255")
            self.stored(a, 1)
        elif op == Op.PUSH:
            # The value is read first, so PUSH SP stores the old SP.
            v = self.value(e[3])
            src = _expr(v)
            a = self.stack(k, -8, W)
            body.append(lambda: f"pack({a.page}, {a.at}, {src})")
            self.stored(a, 8, v)
            base, delta = self.value(SP)
            self.values[SP] = (base, delta - 8)
        elif op == Op.POP:
            a = self.stack(k, 0, R)
            base, delta = self.value(SP)
            self.values[SP] = (base, delta + 8)
            self.loaded(a, e[3], body)  # POP SP keeps the popped value
        elif op == Op.MOV_RR:
            self.values[e[3]] = self.value(e[4])
        elif op == Op.MOV_RI:
            self.values[e[3]] = (str(e[4]), 0)
        elif op == Op.ADD:
            alu(f"({self.read(e[3])} + {self.read(e[4])}) & {mask}", e[3])
        elif op == Op.SUB:
            alu(f"({self.read(e[3])} - {self.read(e[4])}) & {mask}", e[3])
        elif op == Op.ADDI:
            alu(f"({self.read(e[3])} + {e[4]}) & {mask}", e[3])
        elif op == Op.SUBI:
            alu(f"({self.read(e[3])} - {e[4]}) & {mask}", e[3])
        elif op == Op.MUL:
            alu(f"({self.read(e[3])} * {self.read(e[4])}) & {mask}", e[3])
        elif op == Op.MULI:
            alu(f"({self.read(e[3])} * {e[4]}) & {mask}", e[3])
        elif op == Op.AND:
            alu(f"{self.read(e[3])} & {self.read(e[4])}", e[3])
        elif op == Op.ANDI:
            alu(f"{self.read(e[3])} & {e[4]}", e[3])
        elif op == Op.OR:
            alu(f"{self.read(e[3])} | {self.read(e[4])}", e[3])
        elif op == Op.XOR:
            alu(f"{self.read(e[3])} ^ {self.read(e[4])}", e[3])
        elif op == Op.SHL:
            alu(f"({self.read(e[3])} << ({self.read(e[4])} & 63)) & {mask}",
                e[3], False)
        elif op == Op.SHR:
            alu(f"{self.read(e[3])} >> ({self.read(e[4])} & 63)", e[3],
                False)
        elif op == Op.CMP:
            x, y = self.read(e[3]), self.read(e[4])
            insn.flags = (f"fl = 2 if {x} == {y} else"
                          f" ({x} ^ {_SIGN}) < ({y} ^ {_SIGN})")
        elif op == Op.CMPI:
            x = self.read(e[3])
            insn.flags = (f"fl = 2 if {x} == {e[4]} else"
                          f" ({x} ^ {_SIGN}) < {e[5]}")
        elif op == Op.DIV or op == Op.MOD:
            insn.divisor = self.read(e[4])
            result = "q" if op == Op.DIV else "x - q * d"
            body.extend([f"x = to_signed({self.read(e[3])})",
                         "q = abs(x) // abs(d)",
                         "if (x < 0) != (d < 0):", "    q = -q"])
            alu(f"({result}) & {mask}", e[3], False)
        elif op == Op.NOP:
            pass
        # The CoFIs: the block's last instruction, or a chained JMP/CALL.
        elif op == Op.JMP:
            if last:
                ret(str(e[3]))
        elif op == Op.JCC:
            ret(f"{e[3]!r}[fl]")
        elif op == Op.JMPR:
            ret(self.read(e[3]))
        elif op == Op.CALL or op == Op.CALLR:
            target = str(e[3]) if op == Op.CALL else self.read(e[3])
            a = self.stack(k, -8, W)
            body.append(lambda: f"pack({a.page}, {a.at}, {e[2]})")
            self.stored(a, 8, (str(e[2]), 0))
            base, delta = self.value(SP)
            self.values[SP] = (base, delta - 8)
            if last:
                ret(target)
        elif op == Op.RET:
            a = self.stack(k, 0, R)
            base, delta = self.value(SP)
            self.values[SP] = (base, delta + 8)
            ret(_expr(self.loaded(a, None, body)))
        else:
            raise ValueError(f"no block form for opcode {op:#04x}")
        if last and op not in _ROUTE:
            ret(str(e[2]))

    # -- output ---------------------------------------------------------

    def _check(self, group: _Group, bail: List[str]) -> List[str]:
        """Set ``group``'s page bytes ``g<id>`` and base offset ``o<id>``,
        or run the ``bail`` lines unless the group fits its page with
        every bit it needs."""
        i, lo, span, need = group.id, group.lo, group.hi - group.lo, \
            group.need
        if lo:
            addr = f"{group.base} {'+' if lo > 0 else '-'} {abs(lo)}"
            lines = [f"a = {addr}"]
            addr = "a"
        else:
            addr, lines = group.base, []
        lines.append(f"o{i} = {addr} & {_OFFSET}")
        if need & (need - 1):
            prot = f"prots.get({addr} >> {PAGE_SHIFT}, 0) & {need} != {need}"
        else:
            prot = f"not prots.get({addr} >> {PAGE_SHIFT}, 0) & {need}"
        if span > 1:
            prot = f"o{i} > {PAGE_SIZE - span} or {prot}"
        lines.append(f"if {prot}:")
        lines += [f"    {line}" for line in bail]
        lines.append(f"g{i} = pages[{addr} >> {PAGE_SHIFT}]")
        return lines

    def source(self) -> str:
        # An instruction makes at most one access, so starts at most one
        # group.
        firsts = {group.first: group for group in self.groups}
        # Flags are live after an instruction if something reads them
        # before the next instruction that writes them, or if the block
        # ends first.  A bail returns them, so a bail point reads them.
        live_after = [True] * len(self.insns)
        live = True
        for k in range(len(self.insns) - 1, -1, -1):
            insn = self.insns[k]
            live_after[k] = live
            if insn.op in _FLAG_WRITERS:
                live = False
            if k in firsts or insn.divisor or insn.op == Op.JCC:
                live = True

        out = ["def block(regs, pages, prots, c, fl, unpack=unpack,"
               " pack=pack, to_signed=to_signed):",
               f"    if c >= {_EXACT_BELOW!r} or c < {self.charged!r}"
               " and c % 0.5:",
               f"        return {self.insns[0].pc}, c, fl, 0"]
        out += [f"    r{r} = regs[{r}]" for r in self.loads]
        for k, insn in enumerate(self.insns):
            if insn.divisor or k in firsts:
                bail = self.stores(insn.bail)
                bail.append(
                    f"return {insn.pc}, {_charge(insn.charged)}, fl, {k}"
                )
            if insn.divisor:
                out.append(f"    d = to_signed({insn.divisor})")
                out.append("    if d == 0:")
                out += [f"        {line}" for line in bail]
            if k in firsts:
                out += [f"    {line}"
                        for line in self._check(firsts[k], bail)]
            out += [f"    {line() if callable(line) else line}"
                    for line in insn.body]
            if insn.flags is not None and live_after[k]:
                out.append(f"    {insn.flags}")
            out += [f"    {line}" for line in insn.exit]
        return "\n".join(out) + "\n"


def _expr(value: Tuple[str, int]) -> str:
    """An expression for a register value ``(base, delta)``."""
    base, delta = value
    if not delta:
        return base
    return f"(({base} {'+' if delta > 0 else '-'} {abs(delta)}) & {U64_MASK})"


def _charge(cycles: float) -> str:
    """An expression for ``c`` charged ``cycles`` more."""
    return f"c + {cycles!r}" if cycles else "c"


def _source(entries) -> str:
    """The generated function for ``entries`` (``(ip, predecoded)``
    pairs): a block, or a superblock whose JMPs and CALLs before the
    last entry are followed."""
    compiler = _Compiler()
    size = len(entries)
    for k, (pc, e) in enumerate(entries):
        compiler.insn(k, pc, e, k == size - 1, size)
    return compiler.source()
