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
so filtered delivery is checked against unfiltered delivery too.
"""

import random

import pytest

import repro.monitor.flowguard as flowguard_module
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt.encoder import ENCODER_KINDS, IPTEncoder
from repro.ipt.msr import RTIT_CTL, IPTConfig
from repro.ipt.topa import ToPA, ToPARegion
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

LIBS = {"libsim.so": build_libsim()}
ON = RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER


class Side:
    """One encoder, its ToPA, and what its PMI handler saw."""

    def __init__(self, encoder_cls, topa_cls, regions, config, cr3,
                 on_pmi=None) -> None:
        self.pmis = []
        self.topa = topa_cls(
            [ToPARegion(r.size, r.interrupt, r.stop) for r in regions],
            pmi_callback=self._pmi,
        )
        self.encoder = encoder_cls(config, output=self.topa,
                                   current_cr3=cr3)
        self.on_pmi = on_pmi

    def _pmi(self) -> None:
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
            topa.wrapped, topa.stopped, topa.total_bytes_written,
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
                side.encoder.config.write_cr3_match(0x2000)
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
    assert new.topa.stopped
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
    assert (new._region, new._offset, new.wrapped, new.stopped,
            new.total_bytes_written, new.snapshot()) == (
        ref._region, ref._offset, ref.wrapped, ref.stopped,
        ref.total_bytes_written, ref.snapshot())


# -- live runs -------------------------------------------------------------------


def spawn(kernel_setup, program):
    kernel = Kernel()
    kernel_setup(kernel)
    return kernel, kernel.spawn(program)


def live_pair(kernel_setup, program, regions, psb_period=256,
              on_pmi=None, flush_every=None, seed=0):
    """Run ``program`` twice, once per encoder, stepping in random
    quanta; with ``flush_every`` an endpoint-style ``flush()`` lands
    between quanta at random."""
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
        proc.executor.add_listener(side.encoder.on_branch, kinds)
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
