"""Lock-step differential test: the dispatch loop against the oracle.

Every case builds two identical machines, runs the production
:class:`~repro.cpu.executor.Executor` on one and the if-chain
:class:`tests.cpu_reference.ReferenceExecutor` on the other, and after
each step (or each ``run`` slice) asserts the two agree on registers,
flags, ``ip``, ``halted``, ``cycles`` (exact float equality),
``insn_count``, every mapped page's bytes and protection, the retired
:class:`BranchEvent` stream, and the fault type and text.  Listeners
and syscall handlers also record what they saw of the executor when
called, so the write-back contract (state is current whenever the loop
calls out) is compared too.
"""

import random

import pytest

import repro.cpu.blocks as blocks
import repro.osmodel.kernel as kernel_module
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
from repro.cpu.events import CoFIKind
from repro.ipt.encoder import ENCODER_KINDS
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import R0, R1, R2, R3, R4, R5, SP
from repro.osmodel import Kernel
from repro.workloads import build_libsim
from repro.workloads.programgen import generate_program
from tests.cpu_reference import ReferenceExecutor

CODE_BASE = 0x40000
DATA_BASE = 0x60000  # two read/write pages; the page after is unmapped
RO_BASE = 0x70000  # one read-only page
STACK_TOP = 0x80000
INT64_MIN = -(1 << 63)

LIBS = {"libsim.so": build_libsim()}


def build_machine(items, code_prot=PROT_READ | PROT_EXEC):
    code, symbols = asm(items, base=CODE_BASE)
    mem = Memory()
    mem.map_region(CODE_BASE, max(len(code), 1), code_prot)
    mem.write_raw(CODE_BASE, code)
    mem.map_region(DATA_BASE, 0x2000, PROT_READ | PROT_WRITE)
    mem.map_region(RO_BASE, 0x1000, PROT_READ)
    mem.map_region(STACK_TOP - 0x4000, 0x4000, PROT_READ | PROT_WRITE)
    machine = Machine(mem)
    machine.ip = CODE_BASE
    machine.set_reg(SP, STACK_TOP - 8)
    return machine, symbols


class Side:
    """One interpreter plus everything it published.

    The recorder subscribes to ``kinds`` (None: every kind) and keeps
    only events of those kinds, so on the oracle, which delivers every
    kind, it records the same stream the loop delivers.
    """

    def __init__(self, cpu, record: bool = True, kinds=None) -> None:
        self.cpu = cpu
        self.events = []
        #: (what, cycles, insn_count, ip, zf, sf) at each call-out.
        self.seen = []
        self.kinds = None if kinds is None else frozenset(kinds)
        if record:
            cpu.add_listener(self._record, kinds)

    def _record(self, event) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        self.events.append(event)
        self.note("listener")

    def note(self, what: str) -> None:
        cpu, m = self.cpu, self.cpu.machine
        self.seen.append((what, cpu.cycles, cpu.insn_count, m.ip, m.zf, m.sf))

    def state(self):
        """Registers, flags, ``ip``, counters, every touched page's bytes
        and access bits, and every mapped page's protection (the
        mapping, which covers the pages nobody has touched)."""
        cpu, m = self.cpu, self.cpu.machine
        pages, access = m.memory.tables()
        return (list(m.regs), m.zf, m.sf, m.ip, m.halted, cpu.cycles,
                cpu.insn_count, cpu.stop_requested,
                {n: bytes(page) for n, page in pages.items()}, dict(access),
                dict(m.memory._prots))

    def attempt(self, call):
        try:
            return ("ok", call())
        except CPUFault as exc:
            return (type(exc).__name__, str(exc), exc.ip)


def make_pair(items, handler=None, listener=None, record=True, **kw):
    """``handler(side)`` / ``listener(side)`` build per-side callbacks;
    without ``record`` no event-recording listener is attached."""
    sides = []
    for cls in (Executor, ReferenceExecutor):
        machine, symbols = build_machine(items, **kw)
        side = Side(cls(machine), record)
        if handler is not None:
            side.cpu.syscall_handler = handler(side)
        if listener is not None:
            side.cpu.add_listener(listener(side))
        sides.append(side)
    return sides[0], sides[1], symbols


def assert_same(new: Side, ref: Side) -> None:
    assert new.state() == ref.state()
    assert new.events == ref.events
    assert new.seen == ref.seen


def lockstep(new: Side, ref: Side, max_steps: int = 100_000):
    """Step both sides until halt or fault; returns the last outcome."""
    for _ in range(max_steps):
        outcome = new.attempt(new.cpu.step)
        assert outcome == ref.attempt(ref.cpu.step)
        assert_same(new, ref)
        if outcome[0] != "ok" or new.cpu.machine.halted:
            return outcome
    raise AssertionError("program did not finish")


def sliced(new: Side, ref: Side, slices):
    """``run`` both sides slice by slice; returns the outcomes."""
    outcomes = []
    for budget in slices:
        outcome = new.attempt(lambda: new.cpu.run(budget))
        assert outcome == ref.attempt(lambda: ref.cpu.run(budget))
        assert_same(new, ref)
        outcomes.append(outcome)
        if outcome[0] != "ok":
            break
    return outcomes


def both_ways(items, slices=(1, 2, 3, 5, 1000), **kw):
    """Compare a program stepped and run in slices, with and without a
    listener attached; returns the step outcome."""
    outcomes = set()
    for record in (True, False):
        new, ref, _ = make_pair(items, record=record, **kw)
        outcomes.add(lockstep(new, ref))
        new, ref, _ = make_pair(items, record=record, **kw)
        sliced(new, ref, slices)
    assert len(outcomes) == 1
    return outcomes.pop()


# -- generated programs -------------------------------------------------------


def kernel_pair(seed, module=None):
    """A process of generated program ``seed`` on each side; both load
    ``module`` when one is given."""
    procs = []
    for cls in (Executor, ReferenceExecutor):
        kernel = Kernel()
        kernel.register_program(f"gen{seed}",
                                module or generate_program(seed), LIBS)
        proc = kernel.spawn(f"gen{seed}")
        if cls is ReferenceExecutor:
            proc.executor = ReferenceExecutor(
                proc.machine, proc.executor.syscall_handler
            )
        procs.append((kernel, proc))
    return procs


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs_step_in_lockstep(seed):
    (_, new_proc), (_, ref_proc) = kernel_pair(seed)
    outcome = lockstep(Side(new_proc.executor), Side(ref_proc.executor))
    assert outcome == ("ok", None)
    assert new_proc.exit_code == ref_proc.exit_code


def recorder(record):
    """``Side`` arguments for a ``record`` parameter: True records every
    kind (so the loop runs basic blocks), ``"encoder"`` the encoder's
    kinds only (so it runs superblocks and publishes their ends), False
    nothing."""
    if record == "encoder":
        return {"record": True, "kinds": ENCODER_KINDS}
    return {"record": record}


@pytest.mark.parametrize("record", [True, False, "encoder"])
@pytest.mark.parametrize("seed", range(10))
def test_generated_programs_run_in_slices(seed, record, monkeypatch):
    """Every leader is compiled at its first visit, so blocks and
    superblocks run for most of each program."""
    monkeypatch.setattr(blocks, "HOT_ENTRIES", 1)
    (new_kernel, new_proc), (ref_kernel, ref_proc) = kernel_pair(seed)
    new = Side(new_proc.executor, **recorder(record))
    ref = Side(ref_proc.executor, **recorder(record))
    rng = random.Random(seed)
    while new_proc.alive:
        budget = rng.choice((1, 2, 7, 31, 500))
        outcome = new_kernel.step(new_proc, budget)
        assert outcome == ref_kernel.step(ref_proc, budget)
        assert_same(new, ref)
    assert new_proc.state == ref_proc.state
    assert new_proc.exit_code == ref_proc.exit_code


@pytest.mark.parametrize("mode", ["step", "slices", "encoder"])
@pytest.mark.parametrize("seed", range(8))
def test_generated_programs_warm_second_process(seed, mode, monkeypatch):
    """The lock step again, on a second process of a module whose first
    process filled the shared code image (every leader compiled at its
    first visit): a stale or wrongly attested shared entry or block
    shows up as a divergence.  ``encoder`` runs slices with a recorder
    of the encoder's kinds only, so superblocks run."""
    monkeypatch.setattr(blocks, "HOT_ENTRIES", 1)
    module = generate_program(seed)
    kernel = Kernel()
    kernel.register_program(f"gen{seed}", module, LIBS)
    first = kernel.spawn(f"gen{seed}")
    kernel.run(first)
    assert module.blocks._pages
    (new_kernel, new_proc), (ref_kernel, ref_proc) = kernel_pair(seed,
                                                                 module)
    kinds = ENCODER_KINDS if mode == "encoder" else None
    new = Side(new_proc.executor, kinds=kinds)
    ref = Side(ref_proc.executor, kinds=kinds)
    if mode == "step":
        assert lockstep(new, ref) == ("ok", None)
    else:
        rng = random.Random(seed)
        while new_proc.alive:
            budget = rng.choice((1, 2, 7, 31, 500))
            outcome = new_kernel.step(new_proc, budget)
            assert outcome == ref_kernel.step(ref_proc, budget)
            assert_same(new, ref)
    assert new_proc.exit_code == ref_proc.exit_code == first.exit_code
    assert new.events


def test_random_straight_line_alu():
    """Every ALU form over random 64-bit operands, flags included."""
    rng = random.Random(2024)
    regs = [R0, R1, R2, R3, R4, R5]
    values = [0, 1, 2, 63, 64, (1 << 63) - 1, 1 << 63, (1 << 64) - 1,
              (1 << 62) + 7, -3, INT64_MIN]
    for _ in range(12):
        items = [A.mov(r, rng.choice(values + [rng.getrandbits(64)]))
                 for r in regs]
        for _ in range(60):
            rd, rs = rng.choice(regs), rng.choice(regs)
            imm = rng.randint(-(1 << 31), (1 << 31) - 1)
            items.append(rng.choice([
                A.add(rd, rs), A.sub(rd, rs), A.mul(rd, rs),
                A.and_(rd, rs), A.or_(rd, rs), A.xor(rd, rs),
                A.shl(rd, rs), A.shr(rd, rs), A.cmp(rd, rs),
                A.addi(rd, imm), A.subi(rd, imm), A.muli(rd, imm),
                A.andi(rd, imm), A.cmpi(rd, imm), A.movr(rd, rs),
                A.mov(rd, rng.choice(values)),
            ]))
        items.append(A.halt())
        assert both_ways(items) == ("ok", None)


def test_every_condition_against_every_flag_outcome():
    operands = [(0, 0), (1, 2), (2, 1), (-1, 1), (1, -1), (INT64_MIN, 0),
                ((1 << 63) - 1, INT64_MIN)]
    items = []
    for index, (a, b) in enumerate(operands):
        imm = max(min(b, (1 << 31) - 1), -(1 << 31))
        for cond in Cond:
            label = f"skip{index}_{cond.name}"
            items += [A.mov(R0, a), A.mov(R1, b), A.cmp(R0, R1),
                      A.jcc(cond, label), A.addi(R2, 1), Label(label),
                      A.cmpi(R0, imm), A.jcc(cond, label + "i"),
                      A.addi(R3, 1), Label(label + "i")]
    # Flags no ALU result produces (zf and sf both set) can still be
    # restored by a handler, as sigreturn does.
    for word in range(4):
        for cond in Cond:
            label = f"flags{word}_{cond.name}"
            items += [A.mov(R0, word), A.syscall(), A.jcc(cond, label),
                      A.addi(R2, 1), Label(label)]
    items.append(A.halt())

    def handler(side):
        def set_flags(machine):
            machine.zf = bool(machine.regs[R0] & 2)
            machine.sf = bool(machine.regs[R0] & 1)
        return set_flags

    assert both_ways(items, handler=handler) == ("ok", None)


# -- faults -------------------------------------------------------------------


@pytest.mark.parametrize("body", [
    [A.mov(R1, 0x900000), A.load(R0, R1, 8)],  # unmapped load
    [A.mov(R1, 0x900000), A.store(R1, -8, R0)],  # unmapped store
    [A.mov(R1, RO_BASE), A.store(R1, 0, R0)],  # read-only store
    [A.mov(R1, 0x900000), A.loadb(R0, R1, 0)],
    [A.mov(R1, RO_BASE), A.storeb(R1, 0, R0)],
    # A u64 that crosses into the unmapped page after the data pages.
    [A.mov(R1, DATA_BASE + 0x1FFC), A.load(R0, R1, 0)],
    [A.mov(R1, DATA_BASE + 0x1FFC), A.store(R1, 0, R0)],
    [A.mov(R1, 0x100), A.jmpr(R1)],  # fetch from unmapped
    [A.mov(R1, DATA_BASE), A.jmpr(R1)],  # fetch from non-exec page
    [A.mov(R0, 1), A.mov(R1, 0), A.div(R0, R1)],
    [A.mov(R0, 1), A.mov(R1, 0), A.mod(R0, R1)],
    [A.mov(SP, 0x10), A.ret()],
    [A.mov(SP, 0x10), A.pop(R0)],
    [A.mov(SP, 0x10), A.push(R0)],
    [A.mov(SP, 0x10), A.call("there"), Label("there")],
    [A.mov(SP, RO_BASE + 0x10), A.lea(R1, "there"), A.callr(R1),
     Label("there")],
    [A.mov(SP, DATA_BASE + 0x2004), A.push(R0)],  # straddles the end
    # Byte accesses just outside mapped pages, on read-only and code
    # pages, and at a negative address.
    [A.mov(R1, DATA_BASE + 0x2000), A.loadb(R0, R1, 0)],
    [A.mov(R1, DATA_BASE + 0x2000), A.storeb(R1, 0, R0)],
    [A.mov(R1, DATA_BASE), A.loadb(R0, R1, -1)],
    [A.mov(R1, DATA_BASE), A.storeb(R1, -1, R0)],
    [A.mov(R1, RO_BASE + 0xFFF), A.storeb(R1, 0, R0)],
    [A.mov(R1, CODE_BASE), A.storeb(R1, 0, R0)],
    [A.mov(R1, 0), A.loadb(R0, R1, -8)],
])
def test_faults_match(body):
    outcome = both_ways([A.mov(R0, 0x1122334455667788)] + body + [A.halt()])
    assert outcome[0] == "CPUFault"


def test_stack_fault_reports_the_faulting_instruction():
    new, ref, symbols = make_pair(
        [A.mov(SP, 0x10), Label("ret"), A.ret()]
    )
    outcome = lockstep(new, ref)
    assert outcome[2] == symbols["ret"]
    assert f"ip={symbols['ret']:#x}" in outcome[1]


def test_invalid_opcode_fetch_faults():
    items = [A.lea(R1, "bad"), A.jmpr(R1), Label("bad"), A.halt()]
    new, ref, symbols = make_pair(items)
    for side in (new, ref):
        side.cpu.machine.memory.write_raw(symbols["bad"], b"\xff")
    outcome = lockstep(new, ref)
    assert outcome[0] == "CPUFault" and "invalid opcode" in outcome[1]


def test_u64_accesses_that_straddle_a_page():
    straddle = DATA_BASE + 0xFFC
    items = [
        A.mov(R0, 0x0102030405060708), A.mov(R1, straddle),
        A.store(R1, 0, R0), A.load(R2, R1, 0), A.loadb(R3, R1, 5),
        A.storeb(R1, 6, R2),
        # The stack straddles the page boundary too.
        A.mov(SP, straddle + 8), A.push(R0), A.pop(R4),
        A.call("fn"), A.halt(),
        Label("fn"), A.ret(),
    ]
    assert both_ways(items) == ("ok", None)


def test_byte_accesses_at_page_edges():
    """LOADB/STOREB at the first and last byte of mapped pages, on a
    read-only page and on a code page, with a STOREB value wider than a
    byte (only its low byte lands)."""
    items = [A.mov(R0, 0x1122334455667788), A.mov(R4, 0x1FF)]
    for addr in (DATA_BASE, DATA_BASE + 0xFFF, DATA_BASE + 0x1000,
                 DATA_BASE + 0x1FFF):
        items += [A.mov(R1, addr), A.storeb(R1, 0, R0), A.loadb(R2, R1, 0),
                  A.storeb(R1, 0, R4), A.loadb(R3, R1, 0),
                  A.add(R5, R2), A.add(R5, R3)]
    items += [
        A.mov(R1, DATA_BASE + 0x2000), A.loadb(R2, R1, -1),
        A.storeb(R1, -0x2000, R2), A.loadb(R3, R1, -0x2000),
        A.mov(R1, RO_BASE), A.loadb(R2, R1, 0xFFF), A.add(R5, R2),
        A.mov(R1, CODE_BASE), A.loadb(R2, R1, 0), A.add(R5, R2),
        A.halt(),
    ]
    assert both_ways(items) == ("ok", None)
    new, ref, _ = make_pair(items)
    lockstep(new, ref)
    # 0x1FF stored as a byte: only the low byte lands.
    assert new.cpu.machine.memory.read_u8(DATA_BASE + 0x1FFF) == 0xFF


# -- call-outs ------------------------------------------------------------------


@pytest.mark.parametrize("kinds", [
    ENCODER_KINDS,
    {CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL},
    {CoFIKind.FAR_TRANSFER},
    {CoFIKind.RET, CoFIKind.COND_BRANCH},
    set(),
])
@pytest.mark.parametrize("seed", [4, 8, 15])
def test_filtered_delivery_matches_unfiltered(seed, kinds):
    """A listener subscribed to some kinds sees exactly the oracle's
    (unfiltered) events of those kinds, with the same machine state at
    each call-out; the machine itself runs identically."""
    (new_kernel, new_proc), (ref_kernel, ref_proc) = kernel_pair(seed)
    new = Side(new_proc.executor, record=False)
    new_proc.executor.add_listener(new._record, kinds)
    ref = Side(ref_proc.executor, record=False)
    ref_proc.executor.add_listener(ref._record, kinds)
    rng = random.Random(seed)
    while new_proc.alive:
        budget = rng.choice((1, 2, 7, 31, 500))
        outcome = new_kernel.step(new_proc, budget)
        assert outcome == ref_kernel.step(ref_proc, budget)
        assert new.state() == ref.state()
    wanted = [i for i, event in enumerate(ref.events) if event.kind in kinds]
    assert new.events == [ref.events[i] for i in wanted]
    assert new.seen == [ref.seen[i] for i in wanted]
    assert new_proc.exit_code == ref_proc.exit_code


def test_subscriptions_made_and_dropped_inside_call_outs():
    """The execve shape: a syscall handler subscribes a listener, which
    gets that very syscall's far transfer; a listener that unsubscribes
    itself gets nothing after."""
    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            if machine.regs[R0] == 1:
                side.cpu.add_listener(side.late, {CoFIKind.FAR_TRANSFER,
                                                  CoFIKind.COND_BRANCH})
        return on_syscall

    def listener(side):
        def once(event):
            side.cpu.remove_listener(once)
        return once

    items = [A.mov(R0, 0), A.syscall(), A.mov(R0, 1), A.syscall(),
             Label("loop"), A.addi(R2, 1), A.cmpi(R2, 9),
             A.jcc(Cond.LT, "loop"), A.mov(R0, 2), A.syscall(), A.halt()]
    for run in (lockstep, lambda new, ref: sliced(new, ref, [2, 5, 1000])):
        sides = []
        for cls in (Executor, ReferenceExecutor):
            machine, _ = build_machine(items)
            side = Side(cls(machine))
            side.got = []
            side.late = side.got.append
            side.cpu.syscall_handler = handler(side)
            side.cpu.add_listener(listener(side))
            sides.append(side)
        new, ref = sides
        run(new, ref)
        assert [e.kind for e in new.got] == [e.kind for e in ref.got
                                             if e.kind in (
                                                 CoFIKind.FAR_TRANSFER,
                                                 CoFIKind.COND_BRANCH)]
        assert new.got[0].kind is CoFIKind.FAR_TRANSFER
        assert new.got[0] == ref.got[0]
        assert len(new.cpu.listeners) == 2


def test_listener_asserting_stop_mid_run():
    def listener(side):
        def on_event(event):
            if len(side.events) % 3 == 0:
                side.cpu.stop_requested = True
        return on_event

    items = [A.mov(R0, 0), Label("loop"), A.addi(R0, 1), A.cmpi(R0, 20),
             A.jcc(Cond.LT, "loop"), A.halt()]
    new, ref, _ = make_pair(items, listener=listener)
    outcomes = sliced(new, ref, [1000] * 12)
    reasons = [outcome[1] for outcome in outcomes]
    assert reasons.count(HaltReason.INTERRUPTED) == 6
    assert reasons[-1] is HaltReason.HALTED
    new, ref, _ = make_pair(items, listener=listener)
    lockstep(new, ref)


def test_listener_halting_the_machine():
    def listener(side):
        def on_event(event):
            if len(side.events) == 4:
                side.cpu.machine.halted = True
        return on_event

    items = [Label("spin"), A.addi(R0, 1), A.jmp("spin")]
    new, ref, _ = make_pair(items, listener=listener)
    assert sliced(new, ref, [1000])[0] == ("ok", HaltReason.HALTED)


def test_listener_replacing_regs_and_memory():
    def listener(side):
        def on_event(event):
            machine = side.cpu.machine
            machine.regs = list(machine.regs)
            machine.memory = machine.memory.clone()
            side.cpu.cycles += 0.5
        return on_event

    items = [A.mov(R1, DATA_BASE + 16), Label("loop"), A.load(R0, R1, 0),
             A.addi(R0, 1), A.store(R1, 0, R0), A.cmpi(R0, 5),
             A.jcc(Cond.LT, "loop"), A.halt()]
    assert both_ways(items, listener=listener) == ("ok", None)
    new, ref, _ = make_pair(items, listener=listener)
    sliced(new, ref, [1000])
    for side in (new, ref):
        assert side.cpu.machine.memory.read_u64(DATA_BASE + 16) == 5


def test_syscall_handler_replacing_regs_and_memory():
    """The execve/sigreturn shape: new register list, new memory, a
    redirected ip, changed flags, fractional cycles."""
    def handler(side):
        def on_syscall(machine):
            side.note("syscall")
            cpu = side.cpu
            cpu.cycles += 2.75
            cpu.insn_count += 1000
            regs = list(machine.regs)
            regs[R4] = machine.regs[R0] * 3
            machine.regs = regs
            machine.memory = machine.memory.clone()
            machine.zf, machine.sf = machine.sf, not machine.zf
            if machine.regs[R0] == 2:
                machine.ip = machine.regs[R5]
        return on_syscall

    items = [
        A.lea(R5, "redirected"), A.mov(R1, DATA_BASE + 8),
        A.mov(R0, 1), A.cmpi(R0, 1), A.syscall(),
        A.store(R1, 0, R4), A.load(R2, R1, 0), A.push(R2),
        A.mov(R0, 2), A.syscall(), A.mov(R3, 99), A.halt(),
        Label("redirected"), A.pop(R3), A.jcc(Cond.EQ, "end"),
        A.mov(R0, 3), A.syscall(), Label("end"), A.halt(),
    ]
    for record in (True, False):
        new, ref, _ = make_pair(items, handler=handler, record=record)
        assert lockstep(new, ref) == ("ok", None)
        assert new.cpu.machine.regs[R3] == 3
        for side in (new, ref):
            assert side.cpu.machine.memory.read_u64(DATA_BASE + 8) == 3
        for slices in ([1000], [2, 3, 1000]):
            new, ref, _ = make_pair(items, handler=handler, record=record)
            sliced(new, ref, slices)
            for side in (new, ref):
                assert side.cpu.machine.memory.read_u64(DATA_BASE + 8) == 3


def test_syscall_handler_rewriting_code_flushes_icache():
    """An mprotect-style handler that patches code and flushes."""
    def handler(side):
        def on_syscall(machine):
            code, _ = asm([A.mov(R1, 42)])
            machine.memory.write_raw(machine.regs[R5], code)
            side.cpu.flush_icache()
        return on_syscall

    items = [
        A.lea(R5, "patch"), Label("loop"), Label("patch"), A.mov(R1, 7),
        A.addi(R2, 1), A.cmpi(R2, 2), A.jcc(Cond.EQ, "end"),
        A.syscall(), A.jmp("loop"), Label("end"), A.halt(),
    ]
    assert both_ways(items, handler=handler) == ("ok", None)
    new, ref, _ = make_pair(items, handler=handler)
    lockstep(new, ref)
    assert new.cpu.machine.regs[R1] == 42


def test_store_rewriting_code_on_a_writable_page_takes_effect():
    """Code on a writable+executable page is coherent with stores, as on
    x86: a STOREB that patches ``f``'s immediate between two calls makes
    the second call run the new instruction."""
    one, _ = asm([A.mov(R0, 1)])
    two, _ = asm([A.mov(R0, 2)])
    (offset,) = [i for i in range(len(one)) if one[i] != two[i]]
    items = [
        A.lea(R1, "f"), A.addi(R1, offset), A.mov(R2, two[offset]),
        A.call("f"), A.movr(R3, R0), A.storeb(R1, 0, R2), A.call("f"),
        A.halt(),
        Label("f"), A.mov(R0, 1), A.ret(),
    ]
    rwx = PROT_READ | PROT_WRITE | PROT_EXEC
    assert both_ways(items, code_prot=rwx) == ("ok", None)
    for run in (lockstep, lambda new, ref: sliced(new, ref, [1000])):
        new, ref, _ = make_pair(items, code_prot=rwx)
        run(new, ref)
        for side in (new, ref):
            regs = side.cpu.machine.regs
            assert (regs[R3], regs[R0]) == (1, 2)


# -- a protected server -----------------------------------------------------------


def test_protected_server_is_bit_identical(monkeypatch):
    from repro.api import run_workload

    runs = []
    for cls in (Executor, ReferenceExecutor, Executor):
        monkeypatch.setattr(kernel_module, "Executor", cls)
        run = run_workload("nginx", sessions=2)
        assert type(run.proc.executor) is cls
        runs.append((
            run.app_cycles, run.proc.executor.insn_count,
            run.stats.total_cycles, run.stats.checks,
            len(run.monitor.detections),
        ))
    assert runs[0] == runs[1] == runs[2]
