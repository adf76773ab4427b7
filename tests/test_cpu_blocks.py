"""Compiled blocks against the oracle, with the compiled path running.

``tests/test_cpu_differential.py``'s lock step retires one instruction
per call, so it never runs a block longer than one instruction, and most
of its hand-written programs are too cold to compile.  Every program
here loops long enough for its blocks to compile
(:data:`repro.cpu.blocks.HOT_ENTRIES` leader visits), and every test
asserts that compiled blocks ran — through :func:`compile_block`
wrapped to count each block call — while the loop and
:class:`tests.cpu_reference.ReferenceExecutor` agree on registers,
flags, ``ip``, exact ``cycles``, ``insn_count``, page bytes, events,
call-out state and faults.  The shared code image (entries and blocks
kept per module page and attested per address space) is held to the
oracle the same way, across kernels, forks, execve, patched and
writable pages, page edges and a library at two bases.  Superblocks run
wherever a side records only the encoder's kinds; the access-group
cases cover each way one protection check per base value can fail,
split or alias.  The deferred-trace cases make an IPT encoder the
loop's only listener, so the loop hands it runs, while the oracle feeds
the reference encoder per event; the ToPA bytes must match too.
"""

import random
from unittest import mock

import pytest

import repro.cpu.blocks as blocks
import repro.cpu.executor as executor_module
import repro.osmodel.kernel as kernel_module
from repro.binary.loader import LIB_BASE, LIB_STRIDE
from repro.cpu import (
    CPUFault,
    Executor,
    HaltReason,
    Machine,
    Memory,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.cpu.blocks import GROUP_SPAN, HOT_ENTRIES, BlockStore, CodePage
from repro.cpu.events import CoFIKind
from repro.ipt.encoder import ENCODER_KINDS, IPTEncoder
from repro.ipt.msr import IPTConfig
from repro.ipt.topa import ToPA, ToPARegion
from repro.isa import A, Cond, Label, Op, asm, instruction_length
from repro.isa.registers import (
    FP, R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, SP,
)
from repro.lang import (
    Assign,
    BinOp,
    Call,
    Const,
    Func,
    Global,
    If,
    Let,
    Program,
    Rel,
    Return,
    SyscallExpr,
    Var,
    While,
)
from repro.osmodel import Kernel, Sys
from tests.cpu_reference import ReferenceExecutor
from tests.encoder_reference import ReferenceEncoder, ReferenceToPA
from tests.test_cpu_differential import (
    CODE_BASE,
    DATA_BASE,
    RO_BASE,
    STACK_TOP,
    Side,
    build_machine,
    kernel_pair,
    sliced,
)
from tests.test_encoder_differential import ON, guard_runs
from tests.test_encoder_differential import Side as TraceSide

WO_BASE = 0x74000  # one write-only page: pushes land, loads bail
LOOPS = 40  # iterations: the loop's blocks are hot after HOT_ENTRIES


@pytest.fixture
def runs(monkeypatch):
    """Every compiled-block call: ``(entry ip, retired, size, chain)``,
    ``chain`` true for a superblock."""
    calls = []
    compile_block = blocks.compile_block

    def counting(page, ip, chain):
        block = compile_block(page, ip, chain)
        if block is None:
            return None
        fn, size = block.fn, block.size

        def counted(*args):
            out = fn(*args)
            calls.append((ip, out[3], size, chain))
            return out

        return block._replace(fn=counted)

    monkeypatch.setattr(blocks, "compile_block", counting)
    return calls


def block_pair(items, handler=None, listener=None, store=None, kinds=None,
               record=True, **kw):
    """Two sides as ``make_pair`` builds them, the loop's code filed
    under a block store (``store`` to share one).  Each side's recorder
    subscribes to ``kinds`` (None: every kind, so no superblock runs);
    without ``record`` there is none."""
    sides = []
    for cls in (Executor, ReferenceExecutor):
        machine, symbols = build_machine(items, **kw)
        machine.memory.map_region(WO_BASE, 0x1000, PROT_WRITE)
        if cls is Executor:
            machine.memory.attach_blocks(
                CODE_BASE, 0x1000, store if store is not None else BlockStore()
            )
        side = Side(cls(machine), record=record, kinds=kinds)
        if handler is not None:
            side.cpu.syscall_handler = handler(side)
        if listener is not None:
            side.cpu.add_listener(listener(side))
        sides.append(side)
    return sides[0], sides[1], symbols


def variants(store):
    """Compiled blocks and superblocks per entry ip, over the store's
    page variants."""
    counts = {}
    for pages in store._pages.values():
        for page in pages:
            for ip, block in [*page.blocks.items(), *page.chains.items()]:
                if block:
                    counts[ip] = counts.get(ip, 0) + 1
    return counts


def run_out(new, ref, budget=100_000):
    """``run`` both sides until neither can go on."""
    return sliced(new, ref, [budget] * 50)[-1]


# -- budgets ------------------------------------------------------------------

MIXED_LOOP = [
    A.mov(R1, DATA_BASE + 0x100), A.mov(R2, 7), A.mov(R6, 0),
    Label("top"),
    A.load(R0, R1, 8), A.addi(R0, 3), A.store(R1, 8, R0),
    A.push(R0), A.pop(R3), A.loadb(R4, R1, 9), A.storeb(R1, 10, R4),
    A.mul(R3, R2), A.xor(R3, R4), A.cmp(R3, R2), A.shl(R3, R2),
    A.addi(R6, 1), A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"),
    A.halt(),
]
MIXED_BLOCK = 14  # instructions from "top" to the Jcc


@pytest.mark.parametrize("budget", range(1, MIXED_BLOCK + 2))
def test_every_budget_at_every_offset(runs, budget):
    """Quanta of every size from 1 to the block's length + 1: each
    quantum ends at every offset into the block in turn, and a block
    runs only where it fits."""
    new, ref, symbols = block_pair(MIXED_LOOP)
    outcomes = sliced(new, ref, [budget] * (LOOPS * MIXED_BLOCK + 20))
    assert outcomes[-1] == ("ok", HaltReason.HALTED)
    assert all(retired == size == MIXED_BLOCK
               for _, retired, size, _ in runs)
    # A run is entered mid-block (the entry is no leader): with quanta of
    # the block's own length, no leader ever has a whole block left.
    assert bool(runs) == (budget > MIXED_BLOCK)
    # Lookups happen only at leaders: quantum cuts mint no suffix block.
    store = new.cpu.machine.memory.block_store(CODE_BASE)
    assert set(variants(store)) <= {symbols["top"]}


def test_cycles_are_added_per_instruction(runs):
    """At 2**53 a 1-cycle add is lost to rounding and a 2-cycle add is
    not: only per-instruction adds, in order, match the oracle."""
    new, ref, _ = block_pair(MIXED_LOOP)
    for side in (new, ref):
        side.cpu.cycles = float(2 ** 53)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert runs


@pytest.mark.parametrize("seed", range(6))
def test_random_alu_blocks_feed_their_jcc(runs, seed):
    """Random ALU runs (with loads and stores between them) ending in a
    Jcc on a random condition: the flags the Jcc and every possible
    bail point read are exact, whichever flag-writer set them."""
    rng = random.Random(seed)
    regs = [R0, R1, R2, R3, R4, R5]
    values = [0, 1, 2, 63, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, -3]
    body = []
    for _ in range(40):
        rd, rs = rng.choice(regs), rng.choice(regs)
        imm = rng.randint(-(1 << 31), (1 << 31) - 1)
        body.append(rng.choice([
            A.add(rd, rs), A.sub(rd, rs), A.mul(rd, rs), A.and_(rd, rs),
            A.or_(rd, rs), A.xor(rd, rs), A.shl(rd, rs), A.shr(rd, rs),
            A.cmp(rd, rs), A.addi(rd, imm), A.subi(rd, imm),
            A.muli(rd, imm), A.andi(rd, imm), A.cmpi(rd, imm),
            A.movr(rd, rs), A.load(rd, R8, 8 * rng.randrange(4)),
            A.store(R8, 8 * rng.randrange(4), rs),
        ]))
    items = [A.mov(r, rng.choice(values)) for r in regs] + [
        A.mov(R8, DATA_BASE), Label("top"),
    ] + body[:rng.randrange(1, len(body))] + [
        A.jcc(rng.choice(list(Cond)), "skip"), A.addi(R7, 1),
        Label("skip"),
    ] + body + [A.addi(R6, 1), A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"),
                A.halt()]
    new, ref, _ = block_pair(items)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert runs


# -- bails --------------------------------------------------------------------

def _victim_loop(snippet):
    """A loop whose block (after the SYSCALL) runs ``snippet``; the
    syscall handler poisons the snippet's address register once the
    block is hot."""
    return [
        A.mov(R1, DATA_BASE + 0x100), A.mov(R9, STACK_TOP - 64),
        A.mov(R10, STACK_TOP - 64), A.mov(R11, STACK_TOP - 72),
        A.mov(R12, 3), A.mov(R0, 0x1122334455667788),
        Label("top"), A.syscall(), A.addi(R6, 1),
    ] + snippet + [
        A.addi(R7, 3), A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"), A.halt(),
        Label("fn"), A.movr(SP, R11), A.ret(),
    ]


CALL_FN = [A.movr(SP, R9), A.call("fn"), A.movr(SP, R10)]
# (snippet, poisoned register, value as an offset from the bad address)
VICTIMS = {
    "load": ([A.load(R5, R1, 8)], R1, -8, "r"),
    "store": ([A.store(R1, 8, R6)], R1, -8, "w"),
    "loadb": ([A.loadb(R5, R1, 1)], R1, -1, "rb"),
    "storeb": ([A.storeb(R1, 1, R6)], R1, -1, "wb"),
    "push": ([A.movr(SP, R9), A.push(R6), A.movr(SP, R10)], R9, 8, "w"),
    "pop": ([A.movr(SP, R9), A.pop(R5), A.movr(SP, R10)], R9, 0, "r"),
    "call": (CALL_FN, R9, 8, "w"),
    "ret": (CALL_FN, R11, 0, "r"),
    "div": ([A.div(R0, R12)], R12, None, "z"),
    "mod": ([A.mod(R0, R12)], R12, None, "z"),
}
BAD = {
    "unmapped": 0x900000,
    "read-only": RO_BASE + 0x10,
    "write-only": WO_BASE + 0x10,
    # A u64 that crosses into the unmapped page after the data pages,
    # and one that crosses between two mapped pages (the loop's slow
    # path then completes it).
    "straddle-unmapped": DATA_BASE + 0x1FFC,
    "straddle-mapped": DATA_BASE + 0xFFC,
}
BAIL_CASES = [
    (victim, bad)
    for victim, (_, _, _, access) in VICTIMS.items()
    for bad in (["zero"] if access == "z" else BAD)
    if not (access.endswith("b") and bad.startswith("straddle"))
]


def poisoned(snippet, reg, value, kinds=None, prepare=None):
    """Run ``_victim_loop(snippet)`` on both sides, setting ``reg`` to
    ``value`` halfway; ``prepare(memory)`` adjusts each side's memory
    first.  Returns the last outcome."""
    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == LOOPS // 2:
                machine.regs[reg] = value
        return on_syscall

    new, ref, _ = block_pair(_victim_loop(snippet), handler=handler,
                             kinds=kinds)
    if prepare is not None:
        for side in (new, ref):
            prepare(side.cpu.machine.memory)
    return run_out(new, ref)


def _miss_case(runs, victim, bad, kinds):
    snippet, reg, delta, access = VICTIMS[victim]
    value = 0 if bad == "zero" else BAD[bad] + delta
    outcome = poisoned(snippet, reg, value, kinds)
    assert runs
    misses = (bad == "zero" or bad.startswith("straddle")
              or bad == "unmapped"
              or (bad == "read-only" and access.startswith("w"))
              or (bad == "write-only" and access.startswith("r")))
    # A miss leaves the block before the victim; the loop runs it (and
    # faults, unless its slow path completes a straddling access).
    bailed = [r for r in runs if r[1] != r[2]]
    assert bool(bailed) == misses
    # A RET that reads anything but its return address jumps to garbage.
    faulted = (misses and bad != "straddle-mapped") or victim == "ret"
    assert (outcome[0] == "CPUFault") == faulted


@pytest.mark.parametrize("victim,bad", BAIL_CASES)
def test_fast_path_miss_bails_before_the_instruction(runs, victim, bad):
    _miss_case(runs, victim, bad, None)


@pytest.mark.parametrize("victim,bad", BAIL_CASES)
def test_superblock_miss_bails_before_the_instruction(runs, victim, bad):
    """The same misses with only the encoder's kinds subscribed: the
    block runs as a superblock, through ``call fn`` into ``fn``, and a
    CALL or RET miss bails in the middle of it."""
    _miss_case(runs, victim, bad, ENCODER_KINDS)
    assert all(chain for _, _, _, chain in runs)
    if VICTIMS[victim][0] is CALL_FN:
        # Entered after the SYSCALL: ADDI, MOV_RR, CALL, then ``fn``'s
        # MOV_RR and RET.
        assert max(size for _, _, size, _ in runs) == 5


# -- code changes -------------------------------------------------------------

def test_mprotect_remap_of_a_compiled_block(runs):
    """A handler re-maps the loop's code (RW, patch, RX): the code epoch
    moves, the block map drops the stale block, and the new bytes
    compile and run."""
    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == LOOPS // 2:
                memory = machine.memory
                memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_WRITE)
                patch, _ = asm([A.addi(R7, 100)])
                memory.write(machine.regs[R5], patch)
                memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
        return on_syscall

    items = [A.lea(R5, "patch"), Label("top"), A.syscall(), A.addi(R6, 1),
             Label("patch"), A.addi(R7, 1), A.cmpi(R6, 2 * LOOPS),
             A.jcc(Cond.LT, "top"), A.halt()]
    new, ref, symbols = block_pair(items, handler=handler)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert new.cpu.machine.regs[R7] == LOOPS // 2 + 100 * (LOOPS * 3 // 2)
    store = new.cpu.machine.memory.block_store(CODE_BASE)
    # The old bytes' block and the patched one.
    assert variants(store) == {symbols["top"] + 1: 2}
    entry = symbols["top"] + 1  # after the SYSCALL
    assert {ip for ip, _, _, _ in runs} == {entry}


def test_address_spaces_with_different_code_never_share_a_block(runs):
    """Two address spaces file different bytes at the same ip under one
    store: each runs a block compiled from its own bytes."""
    store = BlockStore()
    results = []
    for step in (1, 5):
        items = [Label("top"), A.addi(R0, step), A.addi(R6, 1),
                 A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"), A.halt()]
        new, ref, _ = block_pair(items, store=store)
        assert run_out(new, ref) == ("ok", HaltReason.HALTED)
        results.append(new.cpu.machine.regs[R0])
    assert results == [LOOPS, 5 * LOOPS]
    assert variants(store) == {CODE_BASE: 2}
    first, second = store._pages[CODE_BASE >> 12]
    assert first.data != second.data
    assert first.blocks[CODE_BASE].fn is not second.blocks[CODE_BASE].fn


def test_code_on_a_writable_page_stays_in_the_loop(runs):
    items = [Label("top"), A.addi(R6, 1), A.cmpi(R6, LOOPS),
             A.jcc(Cond.LT, "top"), A.halt()]
    new, ref, _ = block_pair(items, code_prot=PROT_READ | PROT_WRITE
                             | PROT_EXEC)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert not runs


# -- call-outs at a block's CoFI ----------------------------------------------

HOT_LOOP = [A.mov(R1, DATA_BASE + 16), Label("top"), A.load(R0, R1, 0),
            A.addi(R0, 1), A.store(R1, 0, R0), A.cmpi(R0, LOOPS),
            A.jcc(Cond.LT, "top"), A.halt()]


@pytest.mark.parametrize("action", ["stop", "halt", "regs", "memory"])
def test_listener_acting_at_a_block_ending_cofi(runs, action):
    def listener(side):
        def on_event(event):
            if len(side.events) < LOOPS // 2 or len(side.events) % 3:
                return
            cpu, machine = side.cpu, side.cpu.machine
            if action == "stop":
                cpu.stop_requested = True
            elif action == "halt":
                machine.halted = True
            elif action == "regs":
                machine.regs = list(machine.regs)
                machine.regs[R2] += 1
                cpu.cycles += 0.5
            else:
                machine.memory = machine.memory.clone()
        return on_event

    new, ref, _ = block_pair(HOT_LOOP, listener=listener)
    outcomes = sliced(new, ref, [1000] * (LOOPS + 5))
    assert runs
    reasons = [outcome[1] for outcome in outcomes]
    if action == "stop":
        assert HaltReason.INTERRUPTED in reasons
    assert reasons[-1] is HaltReason.HALTED
    if action == "memory":
        # A replaced memory drops the block map; the clone shares the
        # store, so the block is found again without a compile.
        store = new.cpu.machine.memory.block_store(CODE_BASE)
        assert list(variants(store).values()) == [1]


# -- sharing ------------------------------------------------------------------

def _forking_program():
    prog = Program("forker")
    prog.add_func(Func("spin", ["n"], [
        Let("i", Const(0)),
        While(Rel("<", Var("i"), Var("n")),
              [Assign("i", BinOp("+", Var("i"), Const(1)))]),
        Return(Var("i")),
    ]))
    prog.add_func(Func("main", [], [
        Let("a", Call("spin", [Const(LOOPS)])),
        Let("pid", SyscallExpr(int(Sys.FORK), [])),
        Let("b", Call("spin", [Const(LOOPS)])),
        If(Rel("==", Var("pid"), Const(0)), [Return(Const(7))]),
        Return(Const(0)),
    ]))
    prog.set_entry("main")
    return prog.build()


def test_forked_child_reuses_its_parents_blocks(runs):
    module = _forking_program()
    kernel = Kernel()
    kernel.register_program("forker", module)
    parent = kernel.spawn("forker")
    kernel.run(parent)
    child = kernel.processes[parent.children[0]]
    compiled = variants(module.blocks)
    kernel.run(child)
    assert child.exit_code == 7
    assert runs and variants(module.blocks) == compiled
    shared = [ip for ip, block in child.executor._blocks.items()
              if block and parent.executor._blocks.get(ip) is block]
    assert shared


def test_kernels_loading_one_module_share_its_blocks(runs):
    """Two kernels load one built module: the second process compiles
    nothing and runs the first one's blocks."""
    module = _forking_program()
    procs, compiled = [], []
    for _ in range(2):
        kernel = Kernel()
        kernel.register_program("forker", module)
        proc = kernel.spawn("forker")
        kernel.run(proc)
        procs.append(proc)
        compiled.append(variants(module.blocks))
    assert compiled[0] and compiled[1] == compiled[0]
    first, second = procs
    assert any(block and first.executor._blocks.get(ip) is block
               for ip, block in second.executor._blocks.items())


# -- the shared code image ----------------------------------------------------

PAGE = 0x1000


def crosses(ip, length):
    """Whether the ``length`` bytes at ``ip`` span two pages."""
    return ip // PAGE != (ip + length - 1) // PAGE


def kernel_outcomes(programs, name, cls=Executor, libs=None, hook=None):
    """Spawn ``name`` in a fresh kernel whose processes all run on
    ``cls``, and run every process to its end: per pid, the process's
    name, exit code, fault, ``ip``, exact cycles, ``insn_count``,
    registers and every event it published.  ``hook`` is called after
    every spawn, fork and execve."""
    kernel = Kernel()
    for program, module in programs.items():
        kernel.register_program(program, module, libs)
    events = {}

    def subscribe(proc):
        if proc.pid not in events:
            events[proc.pid] = []
            proc.executor.add_listener(events[proc.pid].append)

    kernel.spawn_hooks.append(subscribe)
    if hook is not None:
        kernel.spawn_hooks.append(hook)
    with mock.patch.object(kernel_module, "Executor", cls):
        kernel.spawn(name)
        while any(proc.alive for proc in kernel.processes.values()):
            for proc in list(kernel.processes.values()):
                if proc.alive:
                    kernel.run(proc)
    out = {}
    for pid, proc in kernel.processes.items():
        assert type(proc.executor) is cls
        cpu, machine = proc.executor, proc.machine
        out[pid] = (proc.name, proc.exit_code, proc.fault, machine.ip,
                    cpu.cycles, cpu.insn_count, list(machine.regs),
                    events[pid])
    return out, kernel


@pytest.fixture
def decodes(monkeypatch):
    """Every fetch-and-decode (``ip``, length), every predecode ``ip``
    and every ``Memory.fetch`` the loop and the store make."""
    seen = {"fetch_insn": [], "predecode": [], "fetch": []}
    fetch_insn, predecode = executor_module.fetch_insn, blocks.predecode
    fetch = Memory.fetch

    def counting_fetch_insn(memory, ip):
        insn, length = fetch_insn(memory, ip)
        seen["fetch_insn"].append((ip, length))
        return insn, length

    def counting_predecode(insn, ip, length):
        seen["predecode"].append(ip)
        return predecode(insn, ip, length)

    def counting_fetch(memory, addr, size):
        seen["fetch"].append(addr)
        return fetch(memory, addr, size)

    monkeypatch.setattr(executor_module, "fetch_insn", counting_fetch_insn)
    monkeypatch.setattr(executor_module, "predecode", counting_predecode)
    monkeypatch.setattr(blocks, "predecode", counting_predecode)
    monkeypatch.setattr(Memory, "fetch", counting_fetch)
    return seen


def test_second_kernel_decodes_and_byte_checks_nothing(runs, decodes):
    """A second kernel loading an already-run module takes every entry
    and block from the shared image: it fetches and predecodes only
    instructions that cross a page, and reads no code to check a
    leader."""
    module = _forking_program()
    programs = {"forker": module}
    first, _ = kernel_outcomes(programs, "forker")
    decoded = {ip for pages in module.blocks._pages.values()
               for page in pages for ip in page.entries}
    assert decoded
    for seen in decodes.values():
        seen.clear()
    calls = len(runs)
    second, kernel = kernel_outcomes(programs, "forker")
    assert len(runs) > calls
    straddlers = [ip for ip, length in decodes["fetch_insn"]
                  if crosses(ip, length)]
    assert straddlers == [ip for ip, _ in decodes["fetch_insn"]]
    assert decodes["predecode"] == straddlers
    assert not decoded & set(decodes["predecode"])
    assert len(decodes["fetch"]) == 2 * len(straddlers)
    # Entries are the image's own objects, not copies.
    parent = kernel.processes[1].executor
    page = parent._code_pages[parent.machine.ip // PAGE]
    assert page is not None
    assert any(parent._icache[ip] is entry
               for ip, entry in page.entries.items()
               if ip in parent._icache)
    oracle, _ = kernel_outcomes(programs, "forker", ReferenceExecutor)
    assert first == second == oracle


def test_patched_page_runs_its_own_bytes_beside_a_sibling(runs):
    """Three address spaces share one store.  The second patches its
    code with ``write_raw`` + ``flush_icache`` halfway through and runs
    its own bytes from then on; the third, with the original bytes,
    runs the first one's entries and blocks."""
    store = BlockStore()
    items = [A.lea(R5, "patch"), Label("top"), A.syscall(), A.addi(R6, 1),
             Label("patch"), A.addi(R7, 1), A.cmpi(R6, LOOPS),
             A.jcc(Cond.LT, "top"), A.halt()]
    patch, _ = asm([A.addi(R7, 100)])

    def patching(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == LOOPS // 2:
                machine.memory.write_raw(machine.regs[R5], patch)
                side.cpu.flush_icache()
        return on_syscall

    sides = []
    for handler in (None, patching, None):
        new, ref, symbols = block_pair(items, handler=handler, store=store)
        assert run_out(new, ref) == ("ok", HaltReason.HALTED)
        sides.append(new.cpu)
    first, patched, third = sides
    assert first.machine.regs[R7] == third.machine.regs[R7] == LOOPS
    assert patched.machine.regs[R7] == LOOPS // 2 + 100 * (LOOPS // 2)
    pageno = CODE_BASE // PAGE
    original, own = store._pages[pageno]
    assert first._code_pages[pageno] is third._code_pages[pageno] is original
    assert patched._code_pages[pageno] is own
    # The SYSCALL ends no block, so the loop runs it from the icache.
    top, at = symbols["top"], symbols["patch"]
    assert third._icache[top] is first._icache[top] is original.entries[top]
    assert patched._icache[at] is own.entries[at] != original.entries[at]
    entry = top + 1  # after the SYSCALL
    assert third._blocks[entry] is first._blocks[entry]
    assert patched._blocks[entry] is not first._blocks[entry]


def test_mprotect_adding_write_stops_shared_use(runs):
    """A hot loop's code page becomes writable (a syscall handler
    mprotects it RWX); the loop then patches its own body with a STOREB.
    From the mprotect on no block runs, and the patched instruction runs
    at its very next fetch."""
    one, _ = asm([A.addi(R7, 1)])
    hundred, _ = asm([A.addi(R7, 100)])
    (offset,) = [i for i in range(len(one)) if one[i] != hundred[i]]
    half = LOOPS // 2
    rwx = PROT_READ | PROT_WRITE | PROT_EXEC
    seen_runs = []

    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == half - 1:
                machine.memory.protect(CODE_BASE, 0x1000, rwx)
                if isinstance(side.cpu, Executor):
                    seen_runs.append(len(runs))
        return on_syscall

    items = [A.lea(R5, "patch"), A.addi(R5, offset),
             A.mov(R4, hundred[offset]),
             Label("top"), A.syscall(), A.addi(R6, 1), A.cmpi(R6, half),
             A.jcc(Cond.LT, "patch"), A.storeb(R5, 0, R4),
             Label("patch"), A.addi(R7, 1), A.cmpi(R6, LOOPS),
             A.jcc(Cond.LT, "top"), A.halt()]
    new, ref, _ = block_pair(items, handler=handler)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert seen_runs and seen_runs[0] > 0
    assert len(runs) == seen_runs[0]
    assert new.cpu.machine.regs[R7] == (half - 1) + 100 * (LOOPS - half + 1)
    assert new.cpu._code_pages[CODE_BASE // PAGE] is None
    assert not new.cpu._icache


def _straddle_items(align, limit=LOOPS):
    """A loop at the end of the first code page whose body crosses into
    the second: an instruction across the edge (``across``), or two
    that meet at it (``edge``)."""
    big = A.mov(R0, 0x1122334455667788)
    body = [A.addi(R6, 1), big, A.cmpi(R6, limit),
            A.jcc(Cond.LT, "top"), A.halt()]
    head, _ = asm([A.jmp("top"), Label("top")], base=CODE_BASE)
    first, _ = asm(body[:1])
    crossing, _ = asm(body[1:2])
    # Where the crossing instruction starts: across the edge, or on it.
    start = PAGE - (len(crossing) // 2 if align == "across" else 0)
    pad = start - len(head) - len(first)
    nop, _ = asm([A.nop()])
    assert pad > 0 and pad % len(nop) == 0
    return [A.jmp("top")] + [A.nop()] * (pad // len(nop)) + [
        Label("top")] + body


def straddle_machine(items, second):
    """Code over two pages; the second mapped RX, RW or not at all."""
    code, symbols = asm(items, base=CODE_BASE)
    machine, _ = build_machine([A.halt()])
    memory = machine.memory
    memory.write_raw(CODE_BASE, code[:PAGE])
    if second is not None:
        memory.map_region(CODE_BASE + PAGE, PAGE, second)
        memory.write_raw(CODE_BASE + PAGE, code[PAGE:])
    return machine, symbols


@pytest.mark.parametrize("align", ["across", "edge"])
@pytest.mark.parametrize("second", ["rx", "rw", "unmapped", "revoked"])
def test_code_across_a_page_edge(runs, align, second):
    """A hot loop crossing into a second code page that is executable,
    not executable, unmapped, or made non-executable once the loop is
    hot: blocks stop at the page edge, and the loop runs, or faults,
    exactly as the oracle does."""
    prot = {"rx": PROT_READ | PROT_EXEC, "rw": PROT_READ | PROT_WRITE,
            "unmapped": None, "revoked": PROT_READ | PROT_EXEC}[second]
    items = _straddle_items(align)
    store = BlockStore()
    sides = []
    for cls in (Executor, ReferenceExecutor):
        machine, symbols = straddle_machine(items, prot)
        if cls is Executor:
            machine.memory.attach_blocks(CODE_BASE, 2 * PAGE, store)
        side = Side(cls(machine))
        if second == "revoked":
            def revoke(event, side=side):
                if len(side.events) == HOT_ENTRIES + 8:
                    side.cpu.machine.memory.protect(
                        CODE_BASE + PAGE, PAGE, PROT_READ)
            side.cpu.add_listener(revoke)
        sides.append(side)
    new, ref = sides
    outcome = run_out(new, ref)
    if second == "rx":
        assert outcome == ("ok", HaltReason.HALTED)
        assert new.cpu.machine.regs[R6] == LOOPS
        assert runs
    else:
        assert outcome[0] == "CPUFault" and "fetch" in outcome[1]
    # No block holds code from two pages.
    for block_ip, _, _, _ in runs:
        assert block_ip // PAGE == CODE_BASE // PAGE
    for pages in store._pages.values():
        for page in pages:
            for ip, entry in page.entries.items():
                assert not crosses(ip, entry[2] - ip)
                assert ip // PAGE == page.base // PAGE


def test_differently_patched_second_pages_never_share(runs):
    """Two address spaces with the same first page and different second
    pages (a different loop bound after the edge) share the first
    page's entries and each runs its own second page."""
    store = BlockStore()
    results = []
    for limit in (LOOPS, LOOPS + 7):
        items = _straddle_items("across", limit)
        sides = []
        for cls in (Executor, ReferenceExecutor):
            machine, symbols = straddle_machine(items,
                                                PROT_READ | PROT_EXEC)
            if cls is Executor:
                machine.memory.attach_blocks(CODE_BASE, 2 * PAGE, store)
            sides.append(Side(cls(machine)))
        new, ref = sides
        assert run_out(new, ref) == ("ok", HaltReason.HALTED)
        results.append((new.cpu.machine.regs[R6], new.cpu._code_pages))
    (first, pages_a), (second, pages_b) = results
    assert (first, second) == (LOOPS, LOOPS + 7)
    low, high = CODE_BASE // PAGE, CODE_BASE // PAGE + 1
    assert pages_a[low] is pages_b[low]
    assert pages_a[high] is not pages_b[high]
    assert [len(store._pages[n]) for n in (low, high)] == [1, 2]


def _library(name, body_name):
    lib = Program(name)
    lib.add_func(Func(body_name, ["n"], [
        Let("i", Const(0)), Let("acc", Const(0)),
        While(Rel("<", Var("i"), Var("n")), [
            Assign("acc", BinOp("+", Var("acc"), BinOp("*", Var("i"),
                                                        Const(3)))),
            Assign("i", BinOp("+", Var("i"), Const(1))),
        ]),
        Return(Var("acc")),
    ]))
    return lib.build()


def _caller(name, needed, calls):
    prog = Program(name)
    for soname in needed:
        prog.add_needed(soname)
    for fn in calls:
        prog.import_symbol(fn)
    total = Const(0)
    for fn in calls:
        total = BinOp("+", total, Call(fn, [Const(LOOPS)]))
    prog.add_func(Func("main", [], [Return(BinOp("&", total,
                                                  Const(0xFF)))]))
    prog.set_entry("main")
    return prog.build()


def test_library_mapped_at_two_bases(runs):
    """One library at a different base in each of two programs: each
    base gets its own pages in the library's store, and both programs
    run exactly as the oracle does."""
    libs = {"liba.so": _library("liba.so", "fa"),
            "libb.so": _library("libb.so", "fb")}
    programs = {"both": _caller("both", ["liba.so", "libb.so"],
                                ["fa", "fb"]),
                "only": _caller("only", ["libb.so"], ["fb"])}
    for name in ("both", "only", "both"):
        new, _ = kernel_outcomes(programs, name, libs=libs)
        ref, _ = kernel_outcomes(programs, name, ReferenceExecutor, libs)
        assert new == ref
        assert new[1][1] == (2 if name == "both" else 1) * (
            3 * LOOPS * (LOOPS - 1) // 2) & 0xFF
    bases = {pageno * PAGE - (pageno * PAGE - LIB_BASE) % LIB_STRIDE
             for pageno in libs["libb.so"].blocks._pages}
    assert bases == {LIB_BASE, LIB_BASE + LIB_STRIDE}
    assert runs


def test_fork_child_runs_the_shared_image(runs, decodes):
    """The fork child re-attests its cloned pages and runs the parent's
    entries and blocks without decoding, exactly as the oracle does."""
    module = _forking_program()
    kernel = Kernel()
    kernel.register_program("forker", module)
    parent = kernel.spawn("forker")
    kernel.run(parent)
    child = kernel.processes[parent.children[0]]
    decoded = {ip for pages in module.blocks._pages.values()
               for page in pages for ip in page.entries}
    for seen in decodes.values():
        seen.clear()
    kernel.run(child)
    assert child.exit_code == 7
    # Only the child's own path (fork returned 0) is new code.
    assert decodes["predecode"]
    assert not decoded & set(decodes["predecode"])
    icache = child.executor._icache
    assert any(parent.executor._icache.get(ip) is entry
               for ip, entry in icache.items())
    pages = child.executor._code_pages
    assert all(entry is pages[ip // PAGE].entries[ip]
               for ip, entry in icache.items()
               if not crosses(ip, entry[2] - ip))
    new, _ = kernel_outcomes({"forker": module}, "forker")
    ref, _ = kernel_outcomes({"forker": module}, "forker",
                             ReferenceExecutor)
    assert new == ref


def test_execve_image_runs_the_shared_image(runs, decodes):
    """An execve'd image of an already-run module decodes none of its
    code, and the run matches the oracle."""
    spinner = _forking_program()
    launcher = Program("launcher")
    launcher.add_string("path", "forker")
    launcher.add_func(Func("main", [], [
        Return(SyscallExpr(int(Sys.EXECVE), [Global("path")])),
    ]))
    launcher.set_entry("main")
    programs = {"forker": spinner, "launcher": launcher.build()}
    kernel_outcomes(programs, "forker")

    def exec_hook(proc):
        if proc.name == "forker":  # from the execve on
            for seen in decodes.values():
                seen.clear()

    new, kernel = kernel_outcomes(programs, "launcher", hook=exec_hook)
    assert new[1][0] == "forker"
    assert decodes["predecode"] == [ip for ip, length in
                                    decodes["fetch_insn"]
                                    if crosses(ip, length)]
    exe = kernel.processes[1].executor
    assert any(page is not None and page in spinner.blocks._pages.get(n, [])
               for n, page in exe._code_pages.items())
    ref, _ = kernel_outcomes(programs, "launcher", ReferenceExecutor)
    assert new == ref


# -- EXEC revoked -------------------------------------------------------------

def test_mprotect_revoking_exec_stops_the_cpu_at_the_next_fetch():
    """A loop on an mmap'd page calls mprotect(page, RX), then, on its
    second pass, mprotect(page, RW): the instruction right after that
    SYSCALL must fault, not run from the icache."""
    prog = Program("nx")
    prog.add_func(Func("main", [], [Return(Const(0))]))
    prog.set_entry("main")
    kernel = Kernel()
    kernel.register_program("nx", prog.build())
    proc = kernel.spawn("nx")
    machine = proc.machine
    machine.set_reg(R0, int(Sys.MMAP))
    machine.set_reg(R2, 0x1000)
    machine.set_reg(R3, PROT_READ | PROT_EXEC)
    proc.executor.syscall_handler(machine)
    page = machine.reg(R0)
    rx, rw = PROT_READ | PROT_EXEC, PROT_READ | PROT_WRITE
    code, symbols = asm([
        A.mov(R6, rx), Label("top"),
        A.mov(R0, int(Sys.MPROTECT)), A.mov(R1, page), A.mov(R2, 0x1000),
        A.movr(R3, R6), A.syscall(),
        Label("after"), A.addi(R7, 1), A.cmpi(R7, 2), A.jcc(Cond.EQ, "done"),
        A.mov(R6, rw), A.jmp("top"),
        Label("done"), A.halt(),
    ], base=page)
    machine.memory.write_raw(page, code)
    machine.ip = page
    kernel.run(proc)
    assert machine.reg(R7) == 1
    assert proc.fault is not None
    assert "fetch" in proc.fault
    assert proc.fault.endswith(f"(ip={symbols['after']:#x})")


def test_icache_and_block_map_follow_the_memory():
    """The executor drops both caches when ``machine.memory`` is
    replaced or its code epoch moves, without a ``flush_icache`` call."""
    items = [Label("top"), A.addi(R6, 1), A.cmpi(R6, LOOPS),
             A.jcc(Cond.LT, "top"), A.halt()]
    machine, symbols = build_machine(items)
    machine.memory.attach_blocks(CODE_BASE, 0x1000, BlockStore())
    cpu = Executor(machine)
    cpu.run()
    assert cpu._icache and any(cpu._blocks.values())
    machine.memory.protect(CODE_BASE, 0x1000, PROT_READ)
    machine.ip = symbols["top"]
    machine.halted = False
    with pytest.raises(CPUFault, match="fetch"):
        cpu.run()
    assert not cpu._blocks
    machine.memory = Machine().memory
    cpu._icache[123] = ()
    with pytest.raises(CPUFault, match="fetch"):
        cpu.run()
    assert 123 not in cpu._icache


# -- access groups ------------------------------------------------------------
#
# A block checks each group of accesses to one base value once, at the
# group's first access (``repro.cpu.blocks``).  Each case below is a way
# such a check can fail, split or alias; each runs with basic blocks and
# with superblocks, against the oracle (registers, flags, counters,
# events and every page's bytes).

KINDS = {"all": None, "encoder": ENCODER_KINDS}


def _frame_loop(start):
    """Call ``f``, whose frame and stack temporaries sit 8 bytes lower
    on every pass: from ``start`` down, so they sweep across the page
    edge at ``DATA_BASE + 0x1000``."""
    return [
        A.mov(R9, start), A.mov(R1, 5),
        Label("top"), A.subi(R9, 8), A.movr(R10, SP), A.movr(SP, R9),
        A.call("f"), A.movr(SP, R10), A.addi(R6, 1), A.cmpi(R6, LOOPS),
        A.jcc(Cond.LT, "top"), A.halt(),
        Label("f"), A.push(FP), A.movr(FP, SP), A.subi(SP, 32),
        A.store(FP, -8, R1), A.store(FP, -16, R6), A.load(R0, FP, -8),
        A.push(R0), A.load(R2, FP, -16), A.pop(R3), A.add(R3, R2),
        A.store(FP, -24, R3), A.movr(SP, FP), A.pop(FP), A.ret(),
    ]


@pytest.mark.parametrize("kinds", KINDS)
def test_frame_and_stack_groups_straddling_a_page_edge(runs, kinds):
    """Frames that straddle the edge between two mapped pages bail at
    their group's first access and finish in the loop; the others run
    whole."""
    new, ref, _ = block_pair(_frame_loop(DATA_BASE + 0x1000 + 160),
                             kinds=KINDS[kinds])
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    bailed = [r for r in runs if r[1] != r[2]]
    assert bailed and len(bailed) < len(runs)


@pytest.mark.parametrize("kinds", KINDS)
def test_mixed_group_on_the_read_only_page_faults_in_the_loop(runs, kinds):
    """Two loads and a store of one base value on the read-only page:
    the group needs READ and WRITE, so it bails at the first load; the
    loop runs both loads and faults at the store, with its own text."""
    snippet = [A.load(R5, R1, 0), A.load(R4, R1, 8), A.store(R1, 16, R5)]
    outcome = poisoned(snippet, R1, RO_BASE + 0x10, KINDS[kinds])
    assert outcome[0] == "CPUFault"
    assert outcome[1].startswith("store fault: write protection")
    assert [r for r in runs if r[1] != r[2]]


@pytest.mark.parametrize("kinds", KINDS)
@pytest.mark.parametrize("gap", [GROUP_SPAN, 0x1000, 0x1008])
def test_offsets_too_far_apart_split_the_group(runs, kinds, gap):
    """Accesses of one base value further apart than a group spans get
    groups of their own, so neither ever bails."""
    items = [
        A.mov(R1, DATA_BASE + 0x10), A.mov(R2, 3),
        Label("top"), A.store(R1, 0, R2), A.store(R1, gap, R6),
        A.load(R3, R1, 0), A.load(R4, R1, gap), A.add(R3, R4),
        A.addi(R6, 1), A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"), A.halt(),
    ]
    new, ref, _ = block_pair(items, kinds=KINDS[kinds])
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert runs and all(r[1] == r[2] for r in runs)


@pytest.mark.parametrize("kinds", KINDS)
@pytest.mark.parametrize("sp,faults", [(48, False), (24, False),
                                       (16, True), (0, True)])
def test_stack_within_64_bytes_of_zero(runs, kinds, sp, faults):
    """Page 0 mapped and SP near 0: three pushes below 24 wrap SP past
    zero, which the loop faults on; the block's group must bail there
    rather than index page 0."""
    snippet = [A.movr(SP, R9), A.push(R0), A.push(R6), A.push(R0),
               A.pop(R5), A.pop(R4), A.pop(R5), A.movr(SP, R10)]

    def low_page(memory):
        memory.map_region(0, 0x1000, PROT_READ | PROT_WRITE)

    outcome = poisoned(snippet, R9, sp, KINDS[kinds], low_page)
    assert runs
    assert (outcome[0] == "CPUFault") == faults
    if faults:
        assert outcome[1].startswith("stack push fault")


@pytest.mark.parametrize("kinds", KINDS)
def test_stack_wrapping_past_the_top_of_memory(runs, kinds):
    """The top page mapped and SP 8 bytes below 2**64: a POP wraps SP to
    0, so the next load at SP - 8 is at -8, which the loop faults on.
    The load's group covers SP itself, so it crosses the top page's end
    and bails, rather than reading the top page."""
    top = (1 << 64) - 0x1000
    snippet = [A.movr(SP, R9), A.pop(R5), A.load(R4, SP, -8),
               A.movr(SP, R10)]

    def top_page(memory):
        memory.map_region(top, 0x1000, PROT_READ | PROT_WRITE)

    outcome = poisoned(snippet, R9, top + 0xFF8, KINDS[kinds], top_page)
    assert outcome[0] == "CPUFault"
    assert outcome[1].startswith("load fault: read of unmapped")
    assert [r for r in runs if r[1] != r[2]]


ALIASES = {
    # LOAD whose destination is its own base register; the loads after
    # it use the new value.
    "load-into-base": [A.mov(R2, DATA_BASE + 0x200), A.store(R1, 8, R2),
                       A.load(R1, R1, 8), A.load(R5, R1, 16),
                       A.store(R1, 24, R1), A.mov(R1, DATA_BASE + 0x100)],
    # STORE whose source is its base register.
    "store-base": [A.store(R1, 8, R1), A.load(R5, R1, 8),
                   A.storeb(R1, 17, R1), A.loadb(R4, R1, 17)],
    # PUSH SP stores the old SP; POP SP keeps the popped value.
    "push-pop-sp": [A.movr(SP, R9), A.push(SP), A.pop(R5), A.push(SP),
                    A.push(R6), A.pop(R4), A.pop(SP), A.movr(R3, SP),
                    A.store(R1, 0, R3), A.movr(SP, R10)],
    # A MOV_RR alias whose source is overwritten next.
    "alias-overwritten": [A.movr(R5, R7), A.addi(R7, 3),
                          A.store(R1, 8, R5), A.movr(R4, R5),
                          A.xor(R5, R5), A.store(R1, 16, R4),
                          A.movr(R2, SP), A.push(R2), A.pop(R3),
                          A.sub(R3, R2)],
}


@pytest.mark.parametrize("kinds", KINDS)
@pytest.mark.parametrize("case", ALIASES)
def test_register_aliases(runs, kinds, case):
    new, ref, _ = block_pair(_victim_loop(ALIASES[case]),
                             kinds=KINDS[kinds])
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert runs and all(r[1] == r[2] for r in runs)


@pytest.mark.parametrize("kinds", KINDS)
@pytest.mark.parametrize("op", [A.div, A.mod])
def test_divide_by_zero_with_dirty_registers(runs, kinds, op):
    """Registers written (and SP moved and restored) before a DIV or MOD
    whose divisor turns zero: the bail stores them back first."""
    snippet = [A.addi(R3, 5), A.movr(R4, R6), A.push(R3), A.pop(R2),
               A.movr(R5, SP), A.push(R4), op(R0, R12), A.pop(R8)]
    outcome = poisoned(snippet, R12, 0, KINDS[kinds])
    assert outcome[0] == "CPUFault" and "divide by zero" in outcome[1]
    assert [r for r in runs if r[1] != r[2]]


# -- superblocks --------------------------------------------------------------

CHAIN_LOOP = [
    A.mov(R1, DATA_BASE + 0x100), A.mov(R9, STACK_TOP - 64),
    Label("top"), A.syscall(), A.addi(R6, 1), A.jmp("next"),
    Label("back"), A.addi(R7, 2), A.cmpi(R6, LOOPS),
    A.jcc(Cond.LT, "top"), A.halt(),
    Label("next"), A.movr(R10, SP), A.movr(SP, R9), A.call("f"),
    A.movr(SP, R10), A.jmp("back"),
    Label("f"), A.store(R1, 0, R6), A.load(R5, R1, 0), A.ret(),
]
#: The superblock after the SYSCALL: ADDI, JMP, MOV_RR, MOV_RR, CALL,
#: then ``f``'s STORE, LOAD and RET.
CHAIN_SIZE = 8


def test_mid_chain_call_onto_an_unmapped_stack_page(runs):
    """SP turns unmapped halfway: the superblock bails at its CALL, in
    the middle of the chain, and the loop faults on the push."""
    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == LOOPS // 2:
                machine.regs[R9] = 0x900000
        return on_syscall

    new, ref, symbols = block_pair(CHAIN_LOOP, handler=handler,
                                   kinds=ENCODER_KINDS)
    outcome = run_out(new, ref)
    assert outcome[0] == "CPUFault"
    assert outcome[1].startswith("stack push fault")
    entry = symbols["top"] + 1  # after the SYSCALL
    assert {(size, chain) for ip, _, size, chain in runs
            if ip == entry} == {(CHAIN_SIZE, True)}
    # Bailed before the CALL: ADDI, JMP and two MOV_RRs retired.
    assert runs[-1][0] == entry and runs[-1][1] == 4


@pytest.mark.parametrize("far", ["jmp", "call"])
def test_jmp_or_call_to_another_page_does_not_chain(runs, far):
    """A direct JMP or CALL whose target is on the next page ends the
    superblock there, as it ends a basic block."""
    body = [Label("top"), A.addi(R6, 1), A.jmp("near"), Label("near"),
            A.addi(R7, 1),
            A.jmp("there") if far == "jmp" else A.call("there"),
            Label("back"), A.cmpi(R6, LOOPS), A.jcc(Cond.LT, "top"),
            A.halt()]
    head = sum(instruction_length(i.op) for i in body if hasattr(i, "op"))
    head += instruction_length(Op.JMP)
    pad = (PAGE - head) // instruction_length(Op.NOP)
    there = [Label("there")] + ([A.jmp("back")] if far == "jmp"
                                else [A.movr(R5, R6), A.ret()])
    items = [A.jmp("top")] + body + [A.nop()] * pad + there
    sides = []
    for cls in (Executor, ReferenceExecutor):
        machine, symbols = straddle_machine(items, PROT_READ | PROT_EXEC)
        if cls is Executor:
            machine.memory.attach_blocks(CODE_BASE, 2 * PAGE, BlockStore())
        sides.append(Side(cls(machine), kinds=ENCODER_KINDS))
    new, ref = sides
    assert symbols["there"] // PAGE != symbols["top"] // PAGE
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    sizes = {ip: size for ip, _, size, chain in runs if chain}
    # ADDI, JMP (chained: same page), ADDI, then the far JMP or CALL.
    assert sizes[symbols["top"]] == 4


def test_direct_listener_subscribed_and_dropped_mid_run(runs):
    """A syscall handler subscribes a direct JMP/CALL listener halfway
    through, once superblocks run, and drops it again: the loop switches
    from superblocks to basic blocks and back, and the listener sees
    exactly the oracle's direct events while it is subscribed."""
    direct = {CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL}

    def handler(side):
        side.direct = []

        def on_direct(event):
            if event.kind in direct:
                side.direct.append(event)
                side.note("direct")

        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R6] == LOOPS // 2:
                side.cpu.add_listener(on_direct, direct)
            elif machine.regs[R6] == 3 * LOOPS // 4:
                side.cpu.remove_listener(on_direct)
        return on_syscall

    new, ref, _ = block_pair(CHAIN_LOOP, handler=handler,
                             kinds=ENCODER_KINDS)
    assert run_out(new, ref) == ("ok", HaltReason.HALTED)
    assert new.direct == ref.direct and new.direct
    modes = [chain for _, _, _, chain in runs]
    # Superblocks, then basic blocks, then superblocks again.
    switches = [m for i, m in enumerate(modes) if i == 0 or m != modes[i - 1]]
    assert switches == [True, False, True]


def test_one_protection_check_per_base_value():
    """A block of frame and stack accesses through three base values
    looks up three protections, however many accesses it makes: SP at
    entry (moved by constants by PUSH, POP and the FP copy of SP), SP
    after the SUBI, and R1."""
    class Counting(dict):
        gets = 0

        def get(self, *args):
            Counting.gets += 1
            return dict.get(self, *args)

    items = [A.push(FP), A.movr(FP, SP), A.subi(SP, 32),
             A.store(FP, -8, R2), A.store(FP, -16, R3),
             A.load(R4, FP, -8), A.push(R4), A.load(R5, FP, -16),
             A.pop(R6), A.add(R6, R5), A.store(FP, -24, R6),
             A.load(R7, R1, 0), A.store(R1, 8, R7), A.loadb(R8, R1, 3),
             A.movr(SP, FP), A.pop(FP), A.ret()]
    code, _ = asm(items, base=CODE_BASE)
    page = CodePage(CODE_BASE // PAGE, code.ljust(PAGE, b"\0"))
    block = blocks.compile_block(page, CODE_BASE, False)
    assert block.size == len(items)
    machine, _ = build_machine([A.halt()])
    pages, prots = machine.memory.tables()
    regs = list(machine.regs)
    regs[R1] = DATA_BASE + 0x40
    regs[SP] = STACK_TOP - 0x100
    ip, _, _, retired = block.fn(regs, pages, Counting(prots), 0.0, 0)
    assert retired == len(items) and Counting.gets == 3
    assert regs[SP] == STACK_TOP - 0x100 + 8 and ip == 0


# -- deferred trace runs -------------------------------------------------------

TRACE_REGIONS = {
    "large": [ToPARegion(1 << 16, interrupt=True)],
    "near-fill": [ToPARegion(131), ToPARegion(89, interrupt=True)],
}


def trace(side, regions):
    """Subscribe an encoder to the side's CPU as its only listener: the
    production one, guarded, on the loop (which then defers its events
    into runs); the reference one on the oracle (fed per event).  Every
    PMI flushes."""
    new = isinstance(side.cpu, Executor)
    side.trace = TraceSide(
        IPTEncoder if new else ReferenceEncoder,
        ToPA if new else ReferenceToPA,
        regions, IPTConfig(ctl=ON, psb_period=64), lambda: None,
        on_pmi=lambda t: t.encoder.flush(),
    )
    if new:
        guard_runs(side.trace)
    side.cpu.add_listener(side.trace.encoder.on_branch, ENCODER_KINDS)


def assert_traced_same(new, ref):
    assert new.state() == ref.state()
    assert new.trace.state() == ref.trace.state()


@pytest.mark.parametrize("regions", sorted(TRACE_REGIONS))
@pytest.mark.parametrize("seed", range(6))
def test_generated_programs_traced_in_runs(runs, seed, regions,
                                           monkeypatch):
    """Generated programs in random slices with every leader compiled at
    its first visit: registers, flags, ``ip``, cycles, counts, page
    bytes and the ToPA agree after every slice, with events deferred
    from superblock ends and from single-stepped instructions."""
    monkeypatch.setattr(blocks, "HOT_ENTRIES", 1)
    (new_kernel, new_proc), (ref_kernel, ref_proc) = kernel_pair(seed)
    new = Side(new_proc.executor, record=False)
    ref = Side(ref_proc.executor, record=False)
    for side in (new, ref):
        trace(side, TRACE_REGIONS[regions])
    rng = random.Random(seed)
    while new_proc.alive:
        budget = rng.choice((1, 2, 7, 31, 500))
        outcome = new_kernel.step(new_proc, budget)
        assert outcome == ref_kernel.step(ref_proc, budget)
        assert_traced_same(new, ref)
    assert new_proc.exit_code == ref_proc.exit_code
    for side in (new, ref):
        side.trace.encoder.flush()
    assert_traced_same(new, ref)
    assert runs and new.trace.runs
    assert any(chain for _, _, _, chain in runs)


TRACED_ENDS = {
    "halt": [],
    "bad-fetch": [A.mov(R5, 0x900000), A.jmpr(R5)],
    "read-only-store": [A.mov(R5, RO_BASE), A.store(R5, 0, R6)],
}


@pytest.mark.parametrize("regions", sorted(TRACE_REGIONS))
@pytest.mark.parametrize("end", sorted(TRACED_ENDS))
def test_hot_loop_traced_in_runs(runs, end, regions):
    """A hot loop that halts or faults at its end, run in slices: the
    same state, fault text and ToPA bytes when the fault propagates."""
    items = MIXED_LOOP[:-1] + TRACED_ENDS[end] + [A.halt()]
    new, ref, _ = block_pair(items, record=False)
    for side in (new, ref):
        trace(side, TRACE_REGIONS[regions])
    outcome = None
    for budget in [5, 60, 100_000] * 5:
        outcome = new.attempt(lambda: new.cpu.run(budget))
        assert outcome == ref.attempt(lambda: ref.cpu.run(budget))
        assert_traced_same(new, ref)
        if outcome[0] != "ok" or new.cpu.machine.halted:
            break
    assert (outcome[0] == "CPUFault") == (end != "halt")
    assert runs and new.trace.runs
