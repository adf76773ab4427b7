"""Differential test: the slow path's policy pass against the oracle.

:meth:`repro.monitor.slowpath.SlowPathEngine.check` judges only calls,
returns and indirect jumps, with the shadow stack inlined.  Every case
here runs one input through it and through the per-edge loop of
:class:`tests.slowpath_reference.ReferenceSlowPathEngine`, and asserts
the two :class:`~repro.monitor.slowpath.SlowPathResult`s are equal
field for field (``ok``, ``reason``, ``violation_addr``, exact-float
``cycles`` and ``shadow_cycles``, ``insns_decoded``,
``confirmed_pairs``).  Inputs:

- every slow-path window of an undertrained nginx (Fig. 5d's protocol),
  judged against the real O-CFG and against a thinned one;
- ``workloads.programgen`` programs, decoded from every PSB;
- the attack library (ROP, SROP, ret2lib and the syscall-free pivot
  loop): every window the fast path checks;
- hand-built edge lists for each failure branch.
"""

import random
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro import costs
from repro.analysis import build_ocfg
from repro.binary import Loader
from repro.cpu import BranchEvent, CoFIKind, Executor, Machine, Memory
from repro.cpu import PROT_READ, PROT_WRITE
from repro.ipt import IPTConfig, IPTEncoder, ToPA, ToPARegion
from repro.ipt.columnar import columnar_scan
from repro.ipt.full_decoder import FullDecodeResult, TraceMismatch
from repro.ipt.msr import RTIT_CTL
from repro.ipt.packets import pack_tnt_sig
from repro.isa.registers import SP
from repro.monitor.fastpath import FastPathChecker
from repro.monitor.policy import FlowGuardPolicy
from repro.monitor.slowpath import (
    _DIRECT_CALL_LEN,
    _INDIRECT_CALL_LEN,
    SlowPathEngine,
    SlowPathResult,
)
from repro.workloads import build_libsim
from repro.workloads.programgen import generate_program
from tests.slowpath_reference import ReferenceSlowPathEngine

LIBS = {"libsim.so": build_libsim()}
RESULT_FIELDS = [f.name for f in fields(SlowPathResult)]


def outcome(result):
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def branch(result):
    """Which policy branch decided a result."""
    if result.ok:
        return "ok"
    for prefix, name in (
        ("decoder desync", "desync"),
        ("forward-edge", "forward"),
        ("backward-edge", "depth0-ret"),
        ("ret at", "shadow"),
    ):
        if result.reason.startswith(prefix):
            return name
    raise AssertionError(result.reason)


def assert_same(engine, reference, source, ips=(), sigs=()):
    """Production == oracle on one window; returns the decided branch."""
    got = engine.check(source, ips, sigs)
    want = reference.check(source, ips, sigs)
    assert outcome(got) == outcome(want)
    return branch(want)


def thinned(ocfg, seed):
    """An O-CFG view with about a third of every indirect target set
    dropped, so real windows reach the violation branches."""
    rng = random.Random(seed)
    targets = {}
    for site, allowed in ocfg.indirect_targets.items():
        targets[site] = {t for t in allowed if rng.random() > 0.35}
    return SimpleNamespace(indirect_targets=targets)


# -- benign windows: undertrained nginx --------------------------------------


@pytest.fixture(scope="module")
def undertrained_nginx():
    from repro.experiments.common import (
        libraries,
        seed_server_fs,
        training_corpus,
    )
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import SERVER_BUILDERS, build_vdso

    return FlowGuardPipeline.offline(
        "nginx", SERVER_BUILDERS["nginx"](), libraries(),
        vdso=build_vdso(), corpus=training_corpus("nginx")[:2],
        mode="socket", kernel_setup=seed_server_fs,
    )


def test_undertrained_nginx_windows(monkeypatch, undertrained_nginx):
    """Every slow-path call of an undertrained nginx, through the
    monitor's own engine, equals the oracle's on the same window; each
    window is also judged against a thinned O-CFG."""
    from repro.experiments.common import seed_server_fs
    from repro.loadgen import mix_requests
    from repro.osmodel import Kernel, ProcessState

    seen = []
    production = SlowPathEngine.check

    def checked(self, source, ips=(), sigs=()):
        want = ReferenceSlowPathEngine(self.memory, self.ocfg).check(
            source, ips, sigs
        )
        got = production(self, source, ips, sigs)
        assert outcome(got) == outcome(want)
        seen.append(branch(want))
        # The same window against a thinned O-CFG (``check`` itself is
        # patched, so the production method is called directly).
        view = thinned(self.ocfg, len(seen))
        got_thin = production(
            SlowPathEngine(self.memory, view), source, ips, sigs
        )
        want_thin = ReferenceSlowPathEngine(self.memory, view).check(
            source, ips, sigs
        )
        assert outcome(got_thin) == outcome(want_thin)
        seen.append(branch(want_thin))
        return got

    monkeypatch.setattr(SlowPathEngine, "check", checked)
    kernel = Kernel()
    seed_server_fs(kernel)
    monitor, proc = undertrained_nginx.deploy(
        kernel, policy=FlowGuardPolicy(cache_slow_path_negatives=False)
    )
    for request in mix_requests("nginx", 12, seed=1, mix="varied"):
        proc.push_connection(request)
    kernel.run(proc)
    assert proc.state is ProcessState.EXITED
    assert monitor.detections == []
    assert len(seen) >= 20, seen
    assert seen[::2] == ["ok"] * (len(seen) // 2)
    assert {"forward", "depth0-ret"} <= set(seen[1::2]), set(seen)


# -- generated programs ------------------------------------------------------


def traced_program(seed):
    """(image, trace bytes) of a generated program run bare-metal."""
    image = Loader(LIBS).load(generate_program(seed))
    image.memory.map_region(0x7FFD0000, 0x30000, PROT_READ | PROT_WRITE)
    machine = Machine(image.memory)
    machine.ip = image.entry_address
    machine.set_reg(SP, 0x7FFFFF00)
    config = IPTConfig()
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 22)]))
    cpu = Executor(machine)
    cpu.add_listener(encoder.on_branch)
    cpu.run(3_000_000)
    encoder.flush()
    assert machine.halted
    return image, encoder.output.snapshot()


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs(seed):
    """Every truncation of the trace against the real O-CFG, and the
    whole trace against views with one indirect site's set emptied —
    each such site is then a forward-edge or depth-0 return failure
    unless the shadow stack matched the return first."""
    image, data = traced_program(seed)
    ocfg = build_ocfg(image)
    engine = SlowPathEngine(image.memory, ocfg)
    reference = ReferenceSlowPathEngine(image.memory, ocfg)
    branches = set()
    for cut in range(len(data) + 1):
        seg = columnar_scan(data[:cut])
        source = [(seg, 0)]
        branches.add(assert_same(
            engine, reference, source, seg.ip_column(), seg.sig_column()
        ))
    assert branches == {"ok"}
    source = [(columnar_scan(data), 0)]
    sites = {
        e.src for e in engine._decoder.decode(source).edges
        if e.kind is not CoFIKind.COND_BRANCH
    } & set(ocfg.indirect_targets)
    assert sites
    for site in sorted(sites):
        view = SimpleNamespace(
            indirect_targets={**ocfg.indirect_targets, site: set()}
        )
        branches.add(assert_same(
            SlowPathEngine(image.memory, view),
            ReferenceSlowPathEngine(image.memory, view), source,
        ))
    assert branches - {"ok"}, "no emptied site failed the policy"


# -- the attack library ------------------------------------------------------


@pytest.fixture(scope="module")
def attack_setup():
    from repro.attacks import run_recon
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import build_nginx, build_vdso, nginx_request

    recon = run_recon(build_nginx(), LIBS, vdso=build_vdso())
    pipeline = FlowGuardPipeline.offline(
        "nginx", build_nginx(), LIBS, vdso=build_vdso(),
        corpus=[nginx_request("/index.html"),
                nginx_request("/p", "POST", b"ok")],
        mode="socket",
    )
    return recon, pipeline


def attack_request(name, recon):
    from repro.attacks import (
        build_retlib_request,
        build_rop_request,
        build_srop_request,
    )
    from tests.test_endpoint_pruning import pivot_loop_request

    return {
        "rop": build_rop_request,
        "srop": build_srop_request,
        "ret2lib": build_retlib_request,
        "pivot": pivot_loop_request,
    }[name](recon)


@pytest.mark.parametrize("name", ["rop", "srop", "ret2lib", "pivot"])
def test_attack_library(monkeypatch, attack_setup, name):
    """Every window the fast path checks during an attack (whatever its
    fast verdict) is judged by both engines, and the attack still dies."""
    from repro.osmodel import Kernel, ProcessState

    recon, pipeline = attack_setup
    engines = {}
    branches = []
    fast_check = FastPathChecker.check

    def judged(checker, data):
        result = fast_check(checker, data)
        memory = checker.image.memory
        if memory not in engines:
            engines[memory] = (
                SlowPathEngine(memory, pipeline.ocfg),
                ReferenceSlowPathEngine(memory, pipeline.ocfg),
            )
        branches.append(assert_same(
            *engines[memory], result.slow_path_source(),
            result.window_ips, result.window_sigs,
        ))
        return result

    monkeypatch.setattr(FastPathChecker, "check", judged)
    kernel = Kernel()
    kernel.fs.create("/index.html", b"x")
    monitor, proc = pipeline.deploy(
        kernel, policy=FlowGuardPolicy(check_on_pmi=name == "pivot")
    )
    proc.push_connection(attack_request(name, recon))
    kernel.run(proc, max_steps=5_000_000)
    assert monitor.detections, name
    assert proc.state is ProcessState.KILLED
    assert "ok" in branches
    assert set(branches) - {"ok"}, f"{name}: no window failed the policy"


# -- hand-built edge lists ---------------------------------------------------


class StubDecoder:
    """Hands the engine a fixed decode (or desync) instead of walking."""

    def __init__(self, edges, insn_count=0, error=None):
        self.edges = edges
        self.insn_count = insn_count
        self.error = error

    def decode(self, source):
        if self.error is not None:
            raise TraceMismatch(self.error)
        return FullDecodeResult(
            list(self.edges), self.insn_count,
            self.insn_count * costs.FULL_DECODE_CYCLES_PER_INSN,
        )


SITE = 0x1000  # indirect call/jump site with an allowed set
RET_SITE = 0x2000  # return with a call/return-matched set
ALLOWED = {0x5000, 0x6000}
RET_ALLOWED = {0x7000}


def ocfg_view():
    return SimpleNamespace(indirect_targets={
        SITE: set(ALLOWED), RET_SITE: set(RET_ALLOWED),
        0x1100: set(),
    })


def dcall(src, dst):
    return BranchEvent(CoFIKind.DIRECT_CALL, src, dst)


def icall(src, dst):
    return BranchEvent(CoFIKind.INDIRECT_CALL, src, dst)


def ijmp(src, dst):
    return BranchEvent(CoFIKind.INDIRECT_JMP, src, dst)


def ret(src, dst):
    return BranchEvent(CoFIKind.RET, src, dst)


NOISE = [
    BranchEvent(CoFIKind.COND_BRANCH, 0x300, 0x304, False),
    BranchEvent(CoFIKind.COND_BRANCH, 0x304, 0x400),
    BranchEvent(CoFIKind.DIRECT_JMP, 0x400, 0x500),
    BranchEvent(CoFIKind.FAR_TRANSFER, 0x500, 0x508),
]

HAND_BUILT = {
    "clean": (NOISE + [
        dcall(0x100, 0x200), icall(SITE, 0x5000),
        ret(0x5010, SITE + _INDIRECT_CALL_LEN),
        ret(0x210, 0x100 + _DIRECT_CALL_LEN), ijmp(SITE, 0x6000),
    ] + NOISE, "ok"),
    "unknown-returns": ([
        ret(0x9000, 0x9100), ret(RET_SITE, 0x7000), ret(0x1100, 0x1234),
    ] + NOISE + [ret(0x9000, 0x9200)], "ok"),
    "forward-call-outside-set": (NOISE + [
        dcall(0x100, 0x200), icall(SITE, 0xBAD0),
    ], "forward"),
    "forward-jmp-no-set": ([icall(SITE, 0x6000), ijmp(0x3333, 0x5000)],
                           "forward"),
    "forward-empty-set": ([ijmp(0x1100, 0x5000)], "forward"),
    "depth0-ret-outside-set": ([
        dcall(0x100, 0x200), ret(0x210, 0x105), ret(RET_SITE, 0xBAD0),
    ] + NOISE, "depth0-ret"),
    "shadow-mismatch": (NOISE + [
        dcall(0x100, 0x200), icall(SITE, 0x5000),
        ret(0x5010, SITE + _INDIRECT_CALL_LEN), ret(0x210, 0xBAD0),
    ], "shadow"),
    "shadow-mismatch-in-matched-set": ([
        dcall(0x100, 0x200), ret(RET_SITE, 0x7000),
    ], "shadow"),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
@pytest.mark.parametrize("insns", [0, 17])
def test_hand_built_edges(case, insns):
    edges, want_branch = HAND_BUILT[case]
    engine = SlowPathEngine(Memory(), ocfg_view())
    reference = ReferenceSlowPathEngine(Memory(), ocfg_view())
    engine._decoder = reference._decoder = StubDecoder(edges, insns)
    ips = [0x10, 0x20, 0x30]
    sigs = [1, pack_tnt_sig((True, False)), pack_tnt_sig(())]
    assert assert_same(
        engine, reference, [], ips, sigs
    ) == want_branch


def test_hand_built_desync():
    engine = SlowPathEngine(Memory(), ocfg_view())
    reference = ReferenceSlowPathEngine(Memory(), ocfg_view())
    engine._decoder = reference._decoder = StubDecoder(
        [], error="expected TIP, found TNT at offset 9"
    )
    assert assert_same(
        engine, reference, [], [0x10, 0x20], [1, 1]
    ) == "desync"
