"""The page model: processes of one image share its pages copy-on-write.

A :class:`~repro.cpu.memory.Memory` keeps the mapping's protections
apart from the access table the interpreter's fast path reads.  A
loaded image's pages, and both sides of a fork, are shared: present in
the access table without WRITE, so the first store to one reaches
``Memory``'s slow path, which copies the page.  A demand-zero page (the
stack) is mapped but absent from the access table until its first
touch.  These cases hold the rules that must survive the sharing: no
process sees another's writes, code patched in one address space runs
(and decodes on the slow path) only there, and decoded code is shared
only from pages the mapping keeps read-only.

Every case builds its modules afresh, so no image a loader cached for
another test can stand in for the one under test (CI also runs this
file alone).
"""

import pytest

import repro.cpu.blocks as blocks
from repro.binary import Loader
from repro.binary.builder import ModuleBuilder
from repro.cpu import PROT_EXEC, PROT_READ, PROT_WRITE
from repro.cpu.memory import PAGE_SHIFT, PAGE_SIZE, Memory
from repro.ipt import FullDecoder
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import R0, R1, R2, R5, R6, R7, SP
from repro.osmodel import Kernel, ProcessState, Sys
from repro.osmodel.process import STACK_SIZE, STACK_TOP
from tests.test_full_decode_differential import (
    _encoder,
    _patch_items,
    assert_same,
    parts,
)

RX = PROT_READ | PROT_EXEC
RWX = PROT_READ | PROT_WRITE | PROT_EXEC
INITIAL = 5


def build(name, items, data=INITIAL):
    """A one-function executable with one 8-byte data word ``cell``."""
    builder = ModuleBuilder(name)
    builder.add_function("main", items)
    builder.add_data("cell", data.to_bytes(8, "little"), export=True)
    builder.set_entry("main")
    return builder.build()


def kernel_with(module):
    kernel = Kernel()
    kernel.register_program(module.name, module)
    return kernel


def cell(proc):
    image = proc.image
    return image.memory.read_u64(image.addr_of(proc.image.executable.name,
                                               "cell"))


def page_of(proc, addr):
    return proc.machine.memory.tables()[0].get(addr >> PAGE_SHIFT)


# -- a data write stays in its address space -----------------------------------

def test_a_data_write_is_invisible_to_siblings_and_later_spawns():
    """The first process stores to ``cell``; a second process of the
    same image, spawned before, and a third, spawned after, still read
    the image's value, and so does a process of another kernel.  Code
    pages stay one object in every process; the written data page is
    the writer's own."""
    module = build("writer", [
        A.lea(R1, "cell"), A.load(R6, R1, 0),
        A.mov(R2, 99), A.store(R1, 0, R2), A.halt(),
    ])
    kernel = kernel_with(module)
    first, second = kernel.spawn("writer"), kernel.spawn("writer")
    kernel.run(first)
    assert first.state is ProcessState.EXITED
    assert first.machine.regs[R6] == INITIAL and cell(first) == 99
    assert cell(second) == INITIAL
    kernel.run(second)
    assert second.machine.regs[R6] == INITIAL and cell(second) == 99
    later = kernel.spawn("writer")
    assert cell(later) == INITIAL
    other = kernel_with(module).spawn("writer")
    assert cell(other) == INITIAL
    assert len(module.images) == 1  # one linked image, four processes

    entry = first.image.entry_address
    data = first.image.addr_of("writer", "cell")
    assert page_of(first, entry) is page_of(later, entry)
    assert page_of(first, entry) is page_of(other, entry)
    assert page_of(first, data) is not page_of(later, data)
    assert page_of(first, data) is not page_of(second, data)
    # The untouched process still shares the page with the image: no
    # WRITE bit until its first store.
    access = later.machine.memory.tables()[1]
    assert access[data >> PAGE_SHIFT] == PROT_READ
    assert later.machine.memory.protection(data >> PAGE_SHIFT) == (
        PROT_READ | PROT_WRITE
    )


def test_a_loader_write_copies_the_page_first():
    """``write_raw`` (the loader's and a debugger's write) obeys the same
    rule: the next image of the module set reads the original bytes."""
    module = build("raw", [A.halt()])
    loader = Loader()
    image = loader.load(module)
    addr = image.addr_of("raw", "cell")
    image.memory.write_raw(addr, (77).to_bytes(8, "little"))
    assert image.memory.read_u64(addr) == 77
    assert loader.load(module).memory.read_u64(addr) == INITIAL


# -- code patched in one address space -------------------------------------------

def _patching_module(name):
    """``main`` is :func:`_patch_items`: a JMP at ``site`` to ``a``; with
    R0 == 1 the code first stores the byte that turns it into a JMP to
    ``b``."""
    old, symbols = asm(_patch_items("a"))
    new, _ = asm(_patch_items("b"))
    (at,) = [i for i in range(len(old)) if old[i] != new[i]]
    return build(name, _patch_items("a", at - symbols["site"], new[at]))


@pytest.mark.parametrize("order", ["patcher first", "patcher last"])
def test_a_code_patch_stays_in_its_address_space(order):
    """Two processes of one image.  One mprotects its code page RWX and
    patches its JMP with a guest STOREB; it runs the patched JMP, the
    other the original, whichever runs first.  Each process's slow path
    decodes its own trace along its own bytes (the patcher's from a
    private page, the other's from the shared store), and the decode
    agrees with the oracle and with the CPU."""
    module = _patching_module("patch")
    kernel = kernel_with(module)
    patcher, plain = kernel.spawn("patch"), kernel.spawn("patch")
    code = patcher.image.entry_address
    patcher.machine.memory.protect(code, PAGE_SIZE, RWX)
    patcher.machine.set_reg(R0, 1)
    assert page_of(patcher, code) is page_of(plain, code)

    outcome = {}
    for proc in ([patcher, plain] if order == "patcher first"
                 else [plain, patcher]):
        retired, encoder = [], _encoder()
        proc.executor.add_listener(encoder.on_branch)
        proc.executor.add_listener(retired.append)
        kernel.run(proc)
        encoder.flush()
        outcome[proc.pid] = (retired, encoder.output.snapshot())

    symbols = module.local_symbols
    for proc, target in ((patcher, "b"), (plain, "a")):
        retired, trace = outcome[proc.pid]
        assert retired[-1].dst == code + symbols[target]
        memory = proc.machine.memory
        got = assert_same(memory, trace)
        for result, _ in got.values():
            assert result[0] == [tuple(event) for event in retired]
        decoder = FullDecoder(memory)
        decoder.decode(parts(trace))
        shared = decoder._pages.get(code >> PAGE_SHIFT) is not None
        assert shared == (proc is plain)
    assert page_of(patcher, code) is not page_of(plain, code)
    assert page_of(plain, code) is page_of(kernel.spawn("patch"), code)


def test_attest_refuses_a_shared_page_mapped_writable():
    """An mprotect to RWX leaves the page shared (no copy, no WRITE
    access bit) but the mapping writable, and the W+X rule reads the
    mapping: the store refuses the page until it is RX again."""
    module = build("wx", [A.halt()])
    kernel = kernel_with(module)
    proc, sibling = kernel.spawn("wx"), kernel.spawn("wx")
    memory = proc.machine.memory
    pageno = proc.image.entry_address >> PAGE_SHIFT
    shared = module.blocks.attest(sibling.machine.memory, pageno)
    assert shared is not None
    assert module.blocks.attest(memory, pageno) is shared

    memory.protect(pageno << PAGE_SHIFT, PAGE_SIZE, RWX)
    assert memory.tables()[1][pageno] == RX  # still shared
    assert page_of(proc, pageno << PAGE_SHIFT) is page_of(
        sibling, pageno << PAGE_SHIFT)
    assert module.blocks.attest(memory, pageno) is None
    memory.protect(pageno << PAGE_SHIFT, PAGE_SIZE, RX)
    assert module.blocks.attest(memory, pageno) is shared


# -- fork ---------------------------------------------------------------------------

def test_fork_after_a_private_copy_in_both_directions():
    """The parent writes ``cell`` (its own copy), forks, and writes it
    again; the child starts from the value at the fork and writes its
    own.  Neither sees the other's later write, and the image keeps its
    value."""
    module = build("forker", [
        A.lea(R1, "cell"), A.mov(R2, 11), A.store(R1, 0, R2),
        A.mov(R0, int(Sys.FORK)), A.syscall(),
        A.cmpi(R0, 0), A.jcc(Cond.EQ, "child"),
        A.load(R6, R1, 0), A.mov(R2, 22), A.store(R1, 0, R2), A.halt(),
        Label("child"),
        A.load(R6, R1, 0), A.mov(R2, 33), A.store(R1, 0, R2), A.halt(),
    ])
    kernel = kernel_with(module)
    parent = kernel.spawn("forker")
    kernel.run(parent)
    (child_pid,) = parent.children
    child = kernel.processes[child_pid]
    assert parent.machine.regs[R6] == 11 and cell(parent) == 22
    assert cell(child) == 11
    kernel.run(child)
    assert child.machine.regs[R6] == 11 and cell(child) == 33
    assert cell(parent) == 22
    assert cell(kernel.spawn("forker")) == INITIAL


def test_clone_shares_pages_until_either_side_writes():
    """``Memory.clone`` copies no page; the first write on either side
    copies the one page it lands on."""
    memory = Memory()
    memory.map_region(0x1000, 2 * PAGE_SIZE)
    memory.write(0x1000, b"parent")
    clone = memory.clone()
    pages = memory.tables()[0]
    assert clone.tables()[0][1] is pages[1]
    assert memory.tables()[1][1] == clone.tables()[1][1] == PROT_READ
    clone.write(0x1000, b"child!")
    memory.write(0x2000, b"later")
    assert memory.read(0x1000, 6) == b"parent"
    assert clone.read(0x1000, 6) == b"child!"
    assert clone.read(0x2000, 5) == bytes(5)
    assert clone.tables()[0][1] is not pages[1]
    assert memory.tables()[1][1] == PROT_READ  # still shared on this side


# -- demand-zero pages ------------------------------------------------------------

def _stack_toucher(name):
    """Loads, then stores, one word on each of 40 stack pages below the
    first (none touched yet) and halts; R7 sums what the loads read."""
    return build(name, [
        A.movr(R5, SP), A.mov(R6, 0), A.mov(R7, 0),
        Label("top"),
        A.subi(R5, PAGE_SIZE), A.load(R2, R5, 0), A.add(R7, R2),
        A.store(R5, 0, SP),
        A.addi(R6, 1), A.cmpi(R6, 40), A.jcc(Cond.LT, "top"),
        A.halt(),
    ])


@pytest.mark.parametrize("hot", [1, 10 ** 9], ids=["block", "loop"])
def test_demand_zero_stack_reads_zero_and_stores_land_privately(
        monkeypatch, hot):
    """A new process's stack is mapped but has no page: the first touch
    of each page reads zero and the first store lands in this process
    only, whether it comes from a compiled block (whose access check
    bails on the missing bits) or from the loop."""
    monkeypatch.setattr(blocks, "HOT_ENTRIES", hot)
    module = _stack_toucher(f"stack{hot}")
    kernel = kernel_with(module)
    proc, sibling = kernel.spawn(module.name), kernel.spawn(module.name)
    memory = proc.machine.memory
    first = (STACK_TOP - STACK_SIZE) >> PAGE_SHIFT
    stack = range(first, STACK_TOP >> PAGE_SHIFT)
    pages, access = memory.tables()
    assert all(memory.protection(n) == PROT_READ | PROT_WRITE for n in stack)
    assert not any(n in pages or n in access for n in stack)

    kernel.run(proc)
    assert proc.state is ProcessState.EXITED
    assert proc.machine.regs[R7] == 0
    sp = proc.machine.regs[SP]
    touched = [(sp - PAGE_SIZE * (i + 1)) >> PAGE_SHIFT for i in range(40)]
    for pageno in touched:
        assert access[pageno] == PROT_READ | PROT_WRITE
        assert memory.read_u64(pageno << PAGE_SHIFT
                               | (sp & (PAGE_SIZE - 1))) == sp
    ran = [b for b in proc.executor._blocks.values() if b]
    assert bool(ran) == (hot == 1)
    sibling_pages = sibling.machine.memory.tables()[0]
    assert not any(n in sibling_pages for n in touched)
    assert sibling.machine.memory.read_u64(touched[0] << PAGE_SHIFT) == 0
