"""Differential test: the packed encoder against the list-buffered oracle.

Every case drives :class:`repro.ipt.encoder.IPTEncoder` writing into a
:class:`repro.ipt.topa.ToPA` and :class:`tests.encoder_reference.
ReferenceEncoder` writing into the per-byte
:class:`tests.encoder_reference.ReferenceToPA` over the same CoFI
stream, and asserts byte-identical ToPA contents (every region buffer,
the write cursor, the wrap and stop flags), equal
``total_bytes_written`` and ``packets_emitted``, and exactly equal
``encoder.cycles`` (``==`` on floats).  Each PMI also records what the
handler saw of the ToPA and the encoder, and those records must match.

Live cases run programs on the production interpreter: the packed
encoder subscribed to :data:`ENCODER_KINDS`, the oracle to every kind,
so filtered delivery is checked against unfiltered delivery too.  Being
the only subscriber of its kinds, the packed encoder gets its events in
deferred runs (``IPTEncoder.on_run``) while the oracle, which takes no
runs, is called per event; the deferred-run cases end a run at each
place the loop must hand one over (a fault, ``exit()``, another
listener, a syscall handler that changes CR3, ``ctl`` or the
subscriptions, a region close to filling), and pin the room rule: no
region fills while ``on_run`` writes.
"""

import random
import weakref

import pytest

import repro.cpu.blocks as blocks
import repro.monitor.flowguard as flowguard_module
from repro.cpu import CPUFault, Executor
from repro.cpu.blocks import BlockStore
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt.encoder import ENCODER_KINDS, MAX_EVENT_BYTES, IPTEncoder
from repro.ipt.msr import RTIT_CTL, IPTConfig
from repro.ipt.topa import ToPA, ToPARegion
from repro.isa import A, Cond, Label
from repro.isa.registers import R2, R6
from repro.lang import (
    Assign,
    BinOp,
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
from repro.workloads import build_libsim
from repro.workloads.programgen import generate_program
from tests.encoder_reference import ReferenceEncoder, ReferenceToPA
from tests.test_cpu_differential import CODE_BASE, RO_BASE, build_machine

LIBS = {"libsim.so": build_libsim()}
ON = RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER


class Side:
    """One encoder, its ToPA, and what its PMI handler saw."""

    def __init__(self, encoder_cls, topa_cls, regions, config, cr3,
                 on_pmi=None) -> None:
        self.pmis = []
        #: Set while ``on_run`` writes: no PMI may land then.
        self.in_run = False
        self.topa = topa_cls(
            [ToPARegion(r.size, r.interrupt, r.stop) for r in regions],
            pmi_callback=self._pmi,
        )
        self.encoder = encoder_cls(config, output=self.topa,
                                   current_cr3=cr3)
        self.on_pmi = on_pmi

    def _pmi(self) -> None:
        assert not self.in_run, "a region filled inside on_run"
        topa, encoder = self.topa, self.encoder
        self.pmis.append((
            topa._region, topa._offset, topa.total_bytes_written,
            encoder.cycles, encoder.packets_emitted,
        ))
        if self.on_pmi is not None:
            self.on_pmi(self)

    def state(self):
        topa, encoder = self.topa, self.encoder
        return (
            [bytes(b) for b in topa._buffers], topa._region, topa._offset,
            topa.wrapped, topa._stopped, topa.total_bytes_written,
            topa.snapshot(), encoder.cycles, encoder.packets_emitted,
            self.pmis,
        )


def make_sides(regions, ctl=ON, cr3_match=0x1000, psb_period=256,
               cr3=lambda: 0x1000, on_pmi=None):
    sides = []
    for encoder_cls, topa_cls in ((IPTEncoder, ToPA),
                                  (ReferenceEncoder, ReferenceToPA)):
        config = IPTConfig(ctl=ctl, cr3_match=cr3_match,
                           psb_period=psb_period)
        sides.append(Side(encoder_cls, topa_cls, regions, config, cr3,
                          on_pmi))
    return sides


def assert_same(new: Side, ref: Side) -> None:
    assert new.state() == ref.state()
    assert type(new.encoder.cycles) is float


def guard_runs(side: Side) -> None:
    """Wrap the side's ``on_run`` (before it subscribes: the executor
    looks the method up then) so it fails if a run is empty or longer
    than the room, or if a region fills or the ToPA stops while it
    writes; ``side.runs`` keeps each run's length."""
    encoder, topa = side.encoder, side.topa
    on_run = encoder.on_run
    side.runs = []

    def guarded(events):
        assert 0 < len(events) <= encoder.run_room()
        to_fill = topa.bytes_to_fill()
        written = topa.total_bytes_written
        stopped = topa._stopped
        side.in_run = True
        try:
            on_run(events)
        finally:
            side.in_run = False
        assert topa.total_bytes_written - written < to_fill
        assert topa._stopped == stopped
        side.runs.append(len(events))

    encoder.on_run = guarded


def random_events(rng: random.Random, count: int):
    """A CoFI stream mixing every kind, with targets near and far so
    every IP-compression width occurs."""
    bases = (0x400000, 0x401000, 0x7F0000000000, 0x7FFF00001000,
             0xFFFF800000000000)
    kinds = (
        [CoFIKind.COND_BRANCH] * 10
        + [CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL] * 2
        + [CoFIKind.RET, CoFIKind.INDIRECT_JMP, CoFIKind.INDIRECT_CALL] * 2
        + [CoFIKind.FAR_TRANSFER]
    )
    src = bases[0]
    events = []
    for _ in range(count):
        kind = rng.choice(kinds)
        dst = rng.choice(bases) + rng.randrange(0x10000)
        if rng.random() < 0.3:
            dst = src + rng.randrange(1, 64)
        events.append(BranchEvent(kind, src, dst, rng.random() < 0.5))
        src = dst
    return events


# -- synthetic streams -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("psb_period", [1, 7, 16, 17, 64, 256])
def test_random_streams(seed, psb_period):
    """PSB periods this short land PSB groups while TNT bits are
    pending, in every position of a TNT packet."""
    rng = random.Random(seed * 1000 + psb_period)
    new, ref = make_sides([ToPARegion(1 << 16)], psb_period=psb_period)
    for event in random_events(rng, 1500):
        for side in (new, ref):
            side.encoder.on_branch(event)
        if rng.random() < 0.02:
            for side in (new, ref):
                side.encoder.flush()
    for side in (new, ref):
        side.encoder.flush()
    assert_same(new, ref)


@pytest.mark.parametrize("bits", range(1, 14))
def test_psb_boundary_mid_tnt(bits):
    """A TIP opens the stream; ``bits`` conditional outcomes follow, so
    the PSB due after the TIP's bytes lands at every TNT fill level."""
    events = [BranchEvent(CoFIKind.RET, 0x400000, 0x400100)]
    events += [
        BranchEvent(CoFIKind.COND_BRANCH, 0x400100 + i, 0x400200 + i,
                    bool(i % 3))
        for i in range(bits)
    ]
    events += [BranchEvent(CoFIKind.INDIRECT_CALL, 0x400300, 0x7F0000001234)]
    new, ref = make_sides([ToPARegion(4096)], psb_period=2)
    for event in events * 4:
        for side in (new, ref):
            side.encoder.on_branch(event)
    assert_same(new, ref)


def test_cr3_filter_toggles():
    rng = random.Random(7)
    cell = [0x1000]
    new, ref = make_sides([ToPARegion(1 << 16)],
                          ctl=ON | RTIT_CTL.CR3_FILTER, psb_period=64,
                          cr3=lambda: cell[0])
    for index, event in enumerate(random_events(rng, 3000)):
        if index % 97 == 0:
            cell[0] = rng.choice((0x1000, 0x2000, None))
        if index % 401 == 0:
            ctl = ON | (RTIT_CTL.CR3_FILTER if rng.random() < 0.7 else 0)
            for side in (new, ref):
                side.encoder.config.write_ctl(ctl)
        if index == 1700:  # the execve shape: a fresh CR3 to match
            for side in (new, ref):
                side.encoder.config.cr3_match = 0x2000
        for side in (new, ref):
            side.encoder.on_branch(event)
    assert_same(new, ref)


def test_trace_enable_toggles():
    rng = random.Random(11)
    new, ref = make_sides([ToPARegion(1 << 16)], psb_period=48)
    choices = (ON, ON & ~RTIT_CTL.TRACE_EN, ON & ~RTIT_CTL.BRANCH_EN, 0, ON)
    for index, event in enumerate(random_events(rng, 3000)):
        if index % 53 == 0:
            ctl = rng.choice(choices)
            for side in (new, ref):
                side.encoder.config.write_ctl(ctl)
        for side in (new, ref):
            side.encoder.on_branch(event)
    assert_same(new, ref)


@pytest.mark.parametrize("sizes", [(16, 16), (5, 7, 3), (1, 2), (33, 31)])
def test_wrapping_regions_with_pmi(sizes):
    regions = [ToPARegion(size, interrupt=(i % 2 == 1))
               for i, size in enumerate(sizes)]
    rng = random.Random(len(sizes))
    new, ref = make_sides(regions, psb_period=40,
                          on_pmi=lambda side: side.encoder.flush())
    for event in random_events(rng, 2000):
        for side in (new, ref):
            side.encoder.on_branch(event)
    assert new.pmis
    assert_same(new, ref)


@pytest.mark.parametrize("sizes", [(64,), (32, 40), (3, 9)])
def test_stop_regions(sizes):
    regions = [ToPARegion(size, interrupt=True) for size in sizes[:-1]]
    regions.append(ToPARegion(sizes[-1], interrupt=True, stop=True))
    new, ref = make_sides(regions, psb_period=20)
    for event in random_events(random.Random(3), 500):
        for side in (new, ref):
            side.encoder.on_branch(event)
    assert new.topa._stopped
    assert_same(new, ref)


@pytest.mark.parametrize("seed", range(8))
def test_topa_chunks_match_per_byte_writes(seed):
    """Raw writes of every size, some spanning several regions: the
    slice-per-region write against the per-byte one, PMI by PMI."""
    rng = random.Random(seed)
    regions = [ToPARegion(rng.randint(1, 40), interrupt=rng.random() < 0.6)
               for _ in range(rng.randint(1, 4))]
    if seed % 3 == 0:
        regions[-1] = ToPARegion(regions[-1].size, interrupt=True, stop=True)

    def fill(cls):
        seen = []
        topa = cls(
            [ToPARegion(r.size, r.interrupt, r.stop) for r in regions],
            pmi_callback=lambda: seen.append(
                (topa._region, topa._offset, topa.total_bytes_written)
            ),
        )
        topa.seen = seen
        chunk_rng = random.Random(seed)
        for _ in range(200):
            size = chunk_rng.choice((1, 2, 3, 7, 20, 90))
            topa.write(bytes(chunk_rng.randrange(256) for _ in range(size)))
        return topa

    new, ref = fill(ToPA), fill(ReferenceToPA)
    assert new.seen == ref.seen
    assert [bytes(b) for b in new._buffers] == [bytes(b) for b in ref._buffers]
    assert (new._region, new._offset, new.wrapped, new._stopped,
            new.total_bytes_written, new.snapshot()) == (
        ref._region, ref._offset, ref.wrapped, ref._stopped,
        ref.total_bytes_written, ref.snapshot())


# -- deferred runs, synthetic ---------------------------------------------------

#: Every region shape the suite uses, each ending in a PMI region: most
#: leave little room, so runs end at the room and events near a fill go
#: through ``on_branch``.
REGION_SHAPES = {
    "one-large": [ToPARegion(1 << 16, interrupt=True)],
    "4k": [ToPARegion(4096, interrupt=True)],
    "16-16": [ToPARegion(16), ToPARegion(16, interrupt=True)],
    "5-7-3": [ToPARegion(5), ToPARegion(7, interrupt=True), ToPARegion(3)],
    "1-2": [ToPARegion(1), ToPARegion(2, interrupt=True)],
    "33-31": [ToPARegion(33), ToPARegion(31, interrupt=True)],
    "13-11": [ToPARegion(13), ToPARegion(11, interrupt=True)],
    "stop-64": [ToPARegion(64, interrupt=True, stop=True)],
    "stop-32-40": [ToPARegion(32, interrupt=True),
                   ToPARegion(40, interrupt=True, stop=True)],
    "stop-3-9": [ToPARegion(3, interrupt=True),
                 ToPARegion(9, interrupt=True, stop=True)],
    "131-89": [ToPARegion(131), ToPARegion(89, interrupt=True)],
    "stop-200-97": [ToPARegion(200, interrupt=True),
                    ToPARegion(97, interrupt=True, stop=True)],
}


def feed_in_runs(side: Side, events, rng: random.Random) -> None:
    """Feed ``events`` to a guarded production encoder as the dispatch
    loop does: append to a run while the room allows, hand it over when
    it reaches the room and read the room again, call ``on_branch`` per
    event while there is none; at random a call-out (here an
    endpoint-style ``flush()``) ends the run early."""
    encoder = side.encoder
    run = []

    def hand_over():
        if run:
            encoder.on_run(list(run))
            run.clear()

    left = encoder.run_room()
    for event in events:
        if left > 0:
            run.append(event)
            left -= 1
            if not left:
                hand_over()
                left = encoder.run_room()
        else:
            encoder.on_branch(event)
            left = encoder.run_room()
        if rng.random() < 0.02:
            hand_over()
            encoder.flush()
            left = encoder.run_room()
    hand_over()
    encoder.flush()


@pytest.mark.parametrize("psb_period", [1, 17, 256])
@pytest.mark.parametrize("shape", sorted(REGION_SHAPES))
@pytest.mark.parametrize("seed", range(3))
def test_runs_never_fill_a_region(seed, shape, psb_period):
    """The room rule, over random streams and every region shape: a
    PMI inside ``on_run``, or a run that reaches a fill, fails the
    guard; the ToPA and the counters match the oracle fed per event
    (flushing at the same points, and from every PMI)."""
    regions = REGION_SHAPES[shape]
    new, ref = make_sides(regions, psb_period=psb_period,
                          on_pmi=lambda side: side.encoder.flush())
    guard_runs(new)
    events = random_events(random.Random(seed * 7919 + psb_period), 1500)
    feed_in_runs(new, events, random.Random(seed))
    cuts = random.Random(seed)
    for event in events:
        ref.encoder.on_branch(event)
        if cuts.random() < 0.02:
            ref.encoder.flush()
    ref.encoder.flush()
    assert_same(new, ref)
    if shape in ("one-large", "4k"):
        assert max(new.runs) > 1


def test_largest_event_fits_the_bound():
    """The largest event that can occur — a far transfer between 8-byte
    IPs, with TNT bits pending and a PSB due — writes 36 bytes, within
    the bound the room divides by.  A PSB falls due with bits pending
    only once the count since the last PSB reaches the period without a
    TNT flush: here a period of 0 (a handler may also lower it)."""
    assert MAX_EVENT_BYTES == 43
    src, dst = 0xFFFF800000001000, 0x400000
    first = BranchEvent(CoFIKind.COND_BRANCH, 0x400100, 0x400200, True)
    far = BranchEvent(CoFIKind.FAR_TRANSFER, src, dst, True)
    written = []
    for deliver in ("on_branch", "on_run"):
        new, ref = make_sides([ToPARegion(4096)], psb_period=0)
        for side in (new, ref):
            side.encoder.on_branch(first)
        assert new.encoder._tnt != 1
        before = new.topa.total_bytes_written
        if deliver == "on_run":
            assert new.encoder.run_room() >= 1
            new.encoder.on_run([far])
        else:
            new.encoder.on_branch(far)
        ref.encoder.on_branch(far)
        written.append(new.topa.total_bytes_written - before)
        assert_same(new, ref)
    assert written == [36, 36]
    assert max(written) <= MAX_EVENT_BYTES


# -- live runs -------------------------------------------------------------------


def spawn(kernel_setup, program):
    kernel = Kernel()
    kernel_setup(kernel)
    return kernel, kernel.spawn(program)


def live_pair(kernel_setup, program, regions, psb_period=256,
              on_pmi=None, flush_every=None, seed=0, hook=None):
    """Run ``program`` twice, once per encoder, stepping in random
    quanta; with ``flush_every`` an endpoint-style ``flush()`` lands
    between quanta at random.  The packed encoder's runs are guarded
    (:func:`guard_runs`); ``hook(side)`` runs on each side once it has
    subscribed."""
    results = []
    for encoder_cls, topa_cls, kinds in (
        (IPTEncoder, ToPA, ENCODER_KINDS),
        (ReferenceEncoder, ReferenceToPA, None),
    ):
        kernel, proc = spawn(kernel_setup, program)
        config = IPTConfig.flowguard_defaults(proc.cr3)
        config.psb_period = psb_period
        side = Side(encoder_cls, topa_cls, regions, config,
                    lambda p=proc: p.cr3, on_pmi)
        side.proc = proc
        side.kinds = kinds
        if encoder_cls is IPTEncoder:
            guard_runs(side)
        proc.executor.add_listener(side.encoder.on_branch, kinds)
        if hook is not None:
            hook(side)
        rng = random.Random(seed)
        while proc.alive:
            kernel.step(proc, rng.choice((3, 17, 250, 5000)))
            if flush_every and rng.random() < flush_every:
                side.encoder.flush()
        side.encoder.flush()
        results.append((side, proc.executor.insn_count, proc.exit_code))
    (new, new_insns, new_exit), (ref, ref_insns, ref_exit) = results
    assert (new_insns, new_exit) == (ref_insns, ref_exit)
    assert_same(new, ref)
    return new, ref


def register_generated(seed):
    def setup(kernel):
        kernel.register_program(f"gen{seed}", generate_program(seed), LIBS)
    return setup


#: generated programs that retire at least a thousand instructions.
BUSY_SEEDS = (4, 8, 12, 15, 26, 34)


@pytest.mark.parametrize("seed", BUSY_SEEDS)
def test_generated_programs(seed):
    new, _ = live_pair(register_generated(seed), f"gen{seed}",
                       [ToPARegion(1 << 20)], psb_period=64 + seed)
    assert new.topa.total_bytes_written > 0


def stop_and_flush(side):
    """The endpoint-check shape of a PMI: flush the pending TNT bits and
    stop the loop at the next instruction boundary."""
    side.encoder.flush()
    side.proc.executor.stop_requested = True


@pytest.mark.parametrize("seed", BUSY_SEEDS)
def test_pmi_flushes_and_stops_between_tnt_bits(seed):
    regions = [ToPARegion(13), ToPARegion(11, interrupt=True)]
    new, _ = live_pair(register_generated(seed), f"gen{seed}", regions,
                       psb_period=50, on_pmi=stop_and_flush,
                       flush_every=0.3, seed=seed)
    assert len(new.pmis) > 2


def exec_setup(kernel):
    """``prog`` loops, then execs ``other``, which loops too."""
    def looping(name, body_tail):
        prog = Program(name)
        prog.add_string("path", "other")
        prog.add_func(Func("main", [], [
            Let("i", Const(0)),
            While(Rel("<", Var("i"), Const(40)), [
                If(Rel("==", BinOp("&", Var("i"), Const(3)), Const(1)),
                   [Assign("i", BinOp("+", Var("i"), Const(2)))]),
                Assign("i", BinOp("+", Var("i"), Const(1))),
            ]),
        ] + body_tail))
        prog.set_entry("main")
        return prog.build()

    kernel.register_program("other", looping("other", [Return(Const(5))]))
    kernel.register_program("prog", looping("prog", [
        SyscallExpr(int(Sys.EXECVE), [Global("path")]),
        Return(Const(1)),
    ]))


def test_execve_cr3_change():
    """The encoder reads CR3 per event: after execve the process runs
    under a fresh CR3 and the filter drops everything."""
    new, _ = live_pair(exec_setup, "prog", [ToPARegion(1 << 16)])
    assert new.proc.exit_code == 5
    assert new.proc.cr3 != new.encoder.config.cr3_match
    assert new.topa.total_bytes_written > 0


def test_nginx_server(monkeypatch):
    """The whole monitor: PMIs, endpoint-check flushes and drains on a
    protected nginx, once per encoder."""
    from repro.api import run_workload

    runs = []
    for encoder_cls, topa_cls, kinds in (
        (IPTEncoder, ToPA, ENCODER_KINDS),
        (ReferenceEncoder, ReferenceToPA, None),
    ):
        monkeypatch.setattr(flowguard_module, "IPTEncoder", encoder_cls)
        monkeypatch.setattr(flowguard_module, "ToPA", topa_cls)
        monkeypatch.setattr(flowguard_module, "ENCODER_KINDS", kinds)
        run = run_workload("nginx", sessions=2)
        pp = run.monitor.protected_for(run.proc)
        assert type(pp.encoder) is encoder_cls
        assert type(pp.topa) is topa_cls
        topa, encoder = pp.topa, pp.encoder
        runs.append((
            [bytes(b) for b in topa._buffers], topa._region, topa._offset,
            topa.wrapped, topa.total_bytes_written, encoder.cycles,
            encoder.packets_emitted, run.app_cycles, run.stats.checks,
            run.stats.pmi_count, run.stats.total_cycles,
        ))
    assert runs[0] == runs[1]
    assert runs[0][4] > 0


# -- deferred runs, live ---------------------------------------------------------


@pytest.fixture
def hot(monkeypatch):
    """Every leader compiles at its first visit, so runs are deferred
    from block ends as well as from single-stepped instructions."""
    monkeypatch.setattr(blocks, "HOT_ENTRIES", 1)


def syscall_loop(name, rounds, tail):
    """A loop with a conditional and a GETPID syscall every round,
    then ``tail``."""
    prog = Program(name)
    prog.add_string("path", "other")
    prog.add_func(Func("main", [], [
        Let("i", Const(0)),
        While(Rel("<", Var("i"), Const(rounds)), [
            If(Rel("==", BinOp("&", Var("i"), Const(3)), Const(1)),
               [Assign("i", BinOp("+", Var("i"), Const(2)))]),
            SyscallExpr(int(Sys.GETPID), []),
            Assign("i", BinOp("+", Var("i"), Const(1))),
        ]),
    ] + tail))
    prog.set_entry("main")
    return prog.build()


def syscall_setup(kernel):
    """``prog`` loops with syscalls, then execs ``other``, which loops
    with syscalls too."""
    kernel.register_program("other", syscall_loop(
        "other", 60, [Return(Const(5))]))
    kernel.register_program("prog", syscall_loop("prog", 60, [
        SyscallExpr(int(Sys.EXECVE), [Global("path")]),
        Return(Const(1)),
    ]))


def on_syscalls(action):
    """A ``live_pair`` hook: ``action(side, count)`` runs inside the
    syscall handler, before the ``count``-th syscall is handled."""
    def hook(side):
        executor = side.proc.executor
        handler = executor.syscall_handler
        count = [0]

        def wrapped(machine):
            count[0] += 1
            action(side, count[0])
            handler(machine)

        executor.syscall_handler = wrapped
    return hook


def test_exit_while_a_run_is_deferred(hot):
    """``exit()``'s far transfer is deferred, and the loop must still
    stop at it: code after the syscall never runs."""
    def setup(kernel):
        kernel.register_program("quits", syscall_loop("quits", 40, [
            SyscallExpr(int(Sys.EXIT), [Const(7)]),
            Return(Const(1)),
        ]))

    for seed in range(4):
        new, _ = live_pair(setup, "quits", [ToPARegion(1 << 16)], seed=seed)
        assert new.proc.exit_code == 7
        assert new.runs


FAULTS = {
    "bad-fetch": [A.mov(R2, 0x900000), A.jmpr(R2)],
    "read-only-store": [A.mov(R2, RO_BASE), A.store(R2, 0, R6)],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_while_a_run_is_deferred(hot, fault):
    """A CPUFault with a run pending: when it propagates, the ToPA
    already holds the run's packets."""
    items = [
        A.mov(R6, 0), Label("top"), A.call("fn"), A.addi(R6, 1),
        A.cmpi(R6, 40), A.jcc(Cond.LT, "top"),
    ] + FAULTS[fault] + [A.halt(), Label("fn"), A.ret()]
    new, ref = make_sides([ToPARegion(1 << 16)])
    guard_runs(new)
    outcomes = []
    for side, kinds in ((new, ENCODER_KINDS), (ref, None)):
        machine, _ = build_machine(items)
        machine.memory.attach_blocks(CODE_BASE, 0x1000, BlockStore())
        cpu = Executor(machine)
        cpu.add_listener(side.encoder.on_branch, kinds)
        with pytest.raises(CPUFault) as info:
            cpu.run(100_000)
        outcomes.append((str(info.value), cpu.insn_count, cpu.cycles))
    assert outcomes[0] == outcomes[1]
    assert new.runs
    assert_same(new, ref)
    for side in (new, ref):
        side.encoder.flush()
    assert_same(new, ref)


@pytest.mark.parametrize("kind", [CoFIKind.COND_BRANCH, CoFIKind.DIRECT_JMP])
def test_second_listener_comes_and_goes(hot, kind):
    """A syscall handler subscribes a second listener of ``kind`` and a
    later one drops it.  Sharing COND_BRANCH switches deferral off and
    back on mid-run; a DIRECT_JMP listener leaves it on, so the run is
    handed over before each of its call-outs.  What the listener saw
    of the encoder and its ToPA must match."""
    def action(side, count):
        executor = side.proc.executor
        if count == 3:
            side.seen = []

            def watch(event, side=side):
                side.seen.append((
                    event, side.topa.total_bytes_written,
                    side.encoder.cycles, side.encoder.packets_emitted,
                ))

            side.watch = watch
            executor.add_listener(watch, [kind])
        elif count == 30:
            executor.remove_listener(side.watch)
            side.runs_before_drop = len(getattr(side, "runs", ()))

    new, ref = live_pair(syscall_setup, "prog", [ToPARegion(1 << 16)],
                         hook=on_syscalls(action))
    assert new.seen and new.seen == ref.seen
    assert len(new.runs) > new.runs_before_drop > 0


def test_handler_removes_the_encoder(hot):
    """A handler unsubscribes the encoder and a later one subscribes it
    again, each with a run pending."""
    def action(side, count):
        executor = side.proc.executor
        if count == 5:
            executor.remove_listener(side.encoder.on_branch)
        elif count == 25:
            executor.add_listener(side.encoder.on_branch, side.kinds)

    new, _ = live_pair(syscall_setup, "prog", [ToPARegion(1 << 16)],
                       hook=on_syscalls(action))
    assert new.runs


def test_executor_lets_go_of_a_removed_encoder():
    """Unsubscribing drops every reference the executor held to the
    encoder, so nothing keeps it (or its ToPA) alive."""
    machine, _ = build_machine([A.halt()])
    cpu = Executor(machine)
    encoder = IPTEncoder(IPTConfig(ctl=ON), output=ToPA([ToPARegion(4096)]))
    gone = weakref.ref(encoder)
    cpu.add_listener(encoder.on_branch, ENCODER_KINDS)
    cpu.run(10)
    cpu.remove_listener(encoder.on_branch)
    del encoder
    assert gone() is None


def test_cr3_and_ctl_change_inside_a_handler(hot):
    """Every fourth syscall turns tracing off until the next one, and
    execve moves the process to a fresh CR3: each change lands while a
    run is pending, which the loop hands over before the handler."""
    def action(side, count):
        config = side.encoder.config
        if count % 4 == 0:
            side.ctl = config.ctl
            config.write_ctl(config.ctl & ~RTIT_CTL.TRACE_EN)
        elif count % 4 == 1 and count > 1:
            config.write_ctl(side.ctl)

    new, _ = live_pair(syscall_setup, "prog", [ToPARegion(1 << 16)],
                       hook=on_syscalls(action))
    assert new.proc.exit_code == 5
    assert new.proc.cr3 != new.encoder.config.cr3_match
    assert new.runs


@pytest.mark.parametrize("shape", ["13-11", "131-89", "stop-200-97"])
@pytest.mark.parametrize("seed", BUSY_SEEDS[:3])
def test_deferred_runs_near_a_fill(hot, seed, shape):
    """Regions too small for a run (13/11 bytes), a little larger, and
    a stop region: most events sit near a fill, so the loop switches
    between runs and per-event delivery all the time, and every PMI
    flushes and stops the loop."""
    new, _ = live_pair(register_generated(seed), f"gen{seed}",
                       REGION_SHAPES[shape], psb_period=50,
                       on_pmi=stop_and_flush, flush_every=0.3, seed=seed)
    assert new.pmis
    assert bool(new.runs) == (shape != "13-11")
