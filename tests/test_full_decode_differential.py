"""Differential test: the chained-run full decoder against the oracle.

Every case decodes one input with the production
:class:`~repro.ipt.full_decoder.FullDecoder` (which walks the scan's
columns) and with the per-instruction
:class:`tests.full_decoder_reference.ReferenceFullDecoder` through both
of its own packet sources (a byte cursor over the segments' raw bytes,
and the packet-list cursor over ``tests/packet_reference.py``'s packet
objects), and asserts the two agree on the edge list (kind, src, dst, taken, order), ``insn_count``,
``cycles``, ``end_ip``, ``exhausted``, the ``TraceMismatch`` message,
and the ``ipt.full_decode.*`` counters.  Production decoders are compared both
fresh and warm (their chained runs filled by earlier decodes), since a
remembered run must not change any outcome.
"""

import pytest

from repro import telemetry
from repro.binary import Loader
from repro.cpu import Executor, Machine, Memory
from repro.cpu import PROT_EXEC, PROT_READ, PROT_WRITE
from repro.cpu.blocks import BlockStore
from repro.cpu.memory import PAGE_SHIFT
from repro.ipt import (
    FullDecoder,
    IPTConfig,
    IPTEncoder,
    ToPA,
    ToPARegion,
    TraceMismatch,
)
from repro.ipt.columnar import columnar_scan, psb_offsets
from repro.ipt.full_decoder import MAX_BLOCK_RUN
from repro.ipt.msr import RTIT_CTL
from repro.ipt.packets import (
    FUP_HEADER,
    PSB_PATTERN,
    PSBEND_BYTE,
    encode_ip_packet,
)
from repro.isa import A, Cond, Label, asm
from repro.isa.encoding import instruction_length
from repro.isa.instructions import Insn, Op
from repro.isa.registers import R0, R1, R2, SP
from repro.workloads import build_libsim
from repro.workloads.programgen import generate_program
from tests.full_decoder_reference import (
    ReferenceFullDecoder,
    byte_cursor,
    packet_cursor,
)

LIBS = {"libsim.so": build_libsim()}
CODE_BASE = 0x400000
STACK_TOP = 0x80000
COUNTERS = ("calls", "insns", "edges")


def _encoder(psb_period=4096):
    config = IPTConfig(psb_period=psb_period)
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    return IPTEncoder(config, output=ToPA([ToPARegion(1 << 22)]))


def _run(machine, encoder, max_steps=1_000_000):
    cpu = Executor(machine)
    cpu.add_listener(encoder.on_branch)
    cpu.run(max_steps)
    encoder.flush()
    assert machine.halted
    return encoder.output.snapshot()


def traced_snippet(items, psb_period=4096):
    """(memory, trace bytes) of an assembled snippet."""
    code, _ = asm(items, base=CODE_BASE)
    memory = Memory()
    memory.map_region(CODE_BASE, len(code), PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE, code)
    memory.map_region(STACK_TOP - 0x4000, 0x4000, PROT_READ | PROT_WRITE)
    machine = Machine(memory)
    machine.ip = CODE_BASE
    machine.set_reg(SP, STACK_TOP - 8)
    return memory, _run(machine, _encoder(psb_period))


def traced_program(seed):
    """(memory, trace bytes) of a generated program run bare-metal."""
    image = Loader(LIBS).load(generate_program(seed))
    image.memory.map_region(0x7FFD0000, 0x30000, PROT_READ | PROT_WRITE)
    machine = Machine(image.memory)
    machine.ip = image.entry_address
    machine.set_reg(SP, 0x7FFFFF00)
    return image.memory, _run(machine, _encoder(), max_steps=3_000_000)


#: the reference decoder's two packet sources.
CURSORS = {"packets": packet_cursor, "bytes": byte_cursor}


def parts(data):
    """The full decoder's input for one whole trace."""
    return [(columnar_scan(data), 0)]


def anchored(ip):
    """A PSB+ group whose FUP anchors a walk at ``ip``: with no packet
    after it, the walk runs until an instruction needs one."""
    fup, _ = encode_ip_packet(FUP_HEADER, ip, 0)
    return PSB_PATTERN + fup + bytes([PSBEND_BYTE])


def fields(result):
    """The comparable content of a ``FullDecodeResult``."""
    return (
        [(e.kind, e.src, e.dst, e.taken) for e in result.edges],
        result.insn_count,
        result.cycles,
        result.end_ip,
        result.exhausted,
    )


def result_of(decoder, source):
    """A decode's fields, or its ``TraceMismatch`` message."""
    try:
        return fields(decoder.decode(source))
    except TraceMismatch as exc:
        return ("mismatch", str(exc))


def outcome(decoder, source):
    """:func:`result_of` plus the ``ipt.full_decode.*`` counters."""
    with telemetry.capture() as tel:
        result = result_of(decoder, source)
        counters = tuple(
            tel.metrics.counter(f"ipt.full_decode.{name}").total()
            for name in COUNTERS
        )
    return result, counters


def assert_same(memory, data, max_insns=5_000_000, warm=None):
    """Production (fresh, and ``warm`` if given) == oracle, through
    both of the oracle's cursors.  Returns the oracle outcomes."""
    got = {}
    for name, cursor in CURSORS.items():
        oracle = ReferenceFullDecoder(memory, max_insns=max_insns,
                                      cursor=cursor)
        want = outcome(oracle, parts(data))
        fresh = FullDecoder(memory, max_insns=max_insns)
        assert outcome(fresh, parts(data)) == want, name
        if warm is not None:
            warm.max_insns = max_insns
            assert outcome(warm, parts(data)) == want, (
                name, "warm"
            )
        got[name] = want
    return got


LOOP = [
    A.mov(R0, 0),
    Label("loop"),
    A.addi(R0, 1),
    A.mov(R1, 7),
    A.mov(R2, 9),
    A.cmpi(R0, 12),
    A.jcc(Cond.LT, "loop"),
    A.halt(),
]

CALLS = [
    A.mov(R1, 3),
    A.call("work"),
    A.lea(R2, "tail"),
    A.jmpr(R2),
    Label("tail"),
    A.mov(R0, 1),
    A.syscall(),
    A.halt(),
    Label("work"),
    A.cmpi(R1, 0),
    A.jcc(Cond.EQ, "done"),
    A.subi(R1, 1),
    A.mov(R2, 5),
    A.jmp("work"),
    Label("done"),
    A.ret(),
]

# Direct JMPs and CALLs between the packet consumers: chained runs pass
# through them (a CALL into a callee that JMPs on), and the RETs and the
# JCC stop them.
CHAINS = [
    A.mov(R1, 2),
    Label("top"),
    A.jmp("a"),
    Label("b"),
    A.call("leaf"),
    A.jmp("c"),
    Label("a"),
    A.mov(R2, 1),
    A.jmp("b"),
    Label("c"),
    A.subi(R1, 1),
    A.cmpi(R1, 0),
    A.jcc(Cond.NE, "top"),
    A.call("leaf"),
    A.halt(),
    Label("leaf"),
    A.jmp("leaf2"),
    Label("leaf2"),
    A.mov(R0, 3),
    A.ret(),
]

SNIPPETS = {"loop": LOOP, "calls": CALLS, "chains": CHAINS}


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs(seed):
    memory, data = traced_program(seed)
    got = assert_same(memory, data, warm=FullDecoder(memory))
    edges, insn_count = got["packets"][0][:2]
    assert edges and insn_count > len(edges)


@pytest.mark.parametrize("seed", range(4))
def test_budget_sweep_generated(seed):
    """Every budget from 0 past the full walk: cuts land mid-run, at a
    terminator and at block ends, on fresh and warm decoders."""
    memory, data = traced_program(seed)
    full = FullDecoder(memory).decode(parts(data))
    warm = FullDecoder(memory)
    for budget in range(full.insn_count + 2):
        assert_same(memory, data, max_insns=budget, warm=warm)


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_budget_sweep_snippets(name):
    memory, data = traced_snippet(SNIPPETS[name])
    full = FullDecoder(memory).decode(parts(data))
    warm = FullDecoder(memory)
    for budget in range(full.insn_count + 2):
        assert_same(memory, data, max_insns=budget, warm=warm)


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_every_truncation_cut(name):
    memory, data = traced_snippet(SNIPPETS[name], psb_period=64)
    warm = FullDecoder(memory)
    outcomes = set()
    for cut in range(len(data) + 1):
        got = assert_same(memory, data[:cut], warm=warm)
        outcomes.add(repr(got["packets"]))
    assert len(outcomes) > 3


@pytest.mark.parametrize("seed", range(2))
def test_truncation_cuts_generated(seed):
    memory, data = traced_program(seed)
    warm = FullDecoder(memory)
    for cut in range(len(data) + 1):
        assert_same(memory, data[:cut], warm=warm)


def test_start_ip_anchors():
    """Anchoring at every instruction (a PSB+ FUP in front of the
    trace): desyncs, whose messages must match too, and clean walks."""
    kinds = set()
    for items in SNIPPETS.values():
        memory, data = traced_snippet(items)
        code, _ = asm(items, base=CODE_BASE)
        warm = FullDecoder(memory)
        ip, end = CODE_BASE, CODE_BASE + len(code)
        while ip < end:
            got = assert_same(memory, anchored(ip) + data, warm=warm)
            kinds.add(got["packets"][0][0] == "mismatch")
            ip = FullDecoder(memory)._entry(ip)[0][2]
    assert kinds == {True, False}


@pytest.mark.parametrize("bad", [b"\xee", b"\x10"], ids=["opcode", "length"])
def test_fault_mid_run(bad):
    """A fault raises only if the walk reaches it within the budget;
    ``\\x10`` (MOV_RI) at the page's last byte runs off the mapping."""
    movs = 5
    code, _ = asm([A.mov(R0, i) for i in range(movs)], base=CODE_BASE)
    memory = Memory()
    base = CODE_BASE + 0x1000 - len(code) - len(bad)
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(base, code + bad)
    warm = FullDecoder(memory)
    for budget in range(movs + 3):
        got = assert_same(memory, anchored(base), max_insns=budget,
                          warm=warm)
        result = got["packets"][0]
        if budget > movs:
            assert result[0] == "mismatch"
            assert "cannot disassemble" in result[1]
        else:
            assert result[1] == budget and result[4] is False


def test_fault_after_remembered_blocks():
    """A faulting run is re-walked on every visit (nothing about it is
    remembered), so mapping the missing page later is seen at once."""
    memory = Memory()
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    code, _ = asm([A.mov(R0, 1)] * 3, base=CODE_BASE)
    tail = CODE_BASE + 0x1000 - len(code)
    memory.write_raw(tail, code)
    decoder = FullDecoder(memory, max_insns=100)
    with pytest.raises(TraceMismatch, match="cannot disassemble"):
        decoder.decode(parts(anchored(tail)))
    memory.map_region(CODE_BASE + 0x1000, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE + 0x1000, asm([A.halt()])[0])
    assert_same(memory, anchored(tail), max_insns=100, warm=decoder)
    result = decoder.decode(parts(anchored(tail)))
    assert result.insn_count == 4


def test_long_runs_chain_blocks():
    """Runs longer than one block chain across block ends: sweep the
    budget over several chained blocks ending in a HALT."""
    length = 2 * MAX_BLOCK_RUN + 7
    memory = Memory()
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE + length, asm([A.halt()])[0])
    warm = FullDecoder(memory)
    for budget in range(length + 3):
        got = assert_same(memory, anchored(CODE_BASE),
                          max_insns=budget, warm=warm)
    edges, insn_count, _, end_ip, exhausted = got["packets"][0]
    assert (edges, insn_count, end_ip, exhausted) == (
        [], length + 1, CODE_BASE + length, True
    )


def test_nop_sled_stops_at_budget():
    """A 1 MiB NOP sled under a 1,000-instruction budget: same outcome
    as the oracle, and block building stays within a block of it."""
    memory = Memory()
    memory.map_region(CODE_BASE, 1 << 20, PROT_READ | PROT_EXEC)
    decoder = FullDecoder(memory, max_insns=1000)
    fetched = []
    entry = decoder._entry

    def counting_entry(ip):
        fetched.append(ip)
        return entry(ip)

    decoder._entry = counting_entry
    got = assert_same(memory, anchored(CODE_BASE), max_insns=1000,
                      warm=decoder)
    edges, insn_count, _, end_ip, exhausted = got["packets"][0]
    assert (edges, insn_count, end_ip, exhausted) == (
        [], 1000, CODE_BASE + 1000, False
    )
    assert len(set(fetched)) <= 1000 + MAX_BLOCK_RUN


def test_monitor_slow_path_windows(monkeypatch):
    """Every slow-path window of an undertrained nginx (Fig. 5d's
    protocol: no negative caching) decodes identically under the
    oracle, through the monitor's own decoder and columnar input."""
    from repro.experiments.common import (
        libraries,
        seed_server_fs,
        training_corpus,
    )
    from repro.loadgen import mix_requests
    from repro.monitor.policy import FlowGuardPolicy
    from repro.osmodel import Kernel, ProcessState
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import SERVER_BUILDERS, build_vdso

    pipeline = FlowGuardPipeline.offline(
        "nginx", SERVER_BUILDERS["nginx"](), libraries(),
        vdso=build_vdso(), corpus=training_corpus("nginx")[:2],
        mode="socket", kernel_setup=seed_server_fs,
    )
    compared = []
    production = FullDecoder.decode

    def checked(self, source):
        oracle = ReferenceFullDecoder(self.memory, max_insns=self.max_insns)
        want = result_of(oracle, source)
        # The same segments through the packet-list cursor.
        oracle = ReferenceFullDecoder(self.memory, max_insns=self.max_insns,
                                      cursor=packet_cursor)
        assert result_of(oracle, source) == want
        compared.append(type(source).__name__)
        try:
            result = production(self, source)
        except TraceMismatch as exc:
            assert ("mismatch", str(exc)) == want
            raise
        assert fields(result) == want
        return result

    monkeypatch.setattr(FullDecoder, "decode", checked)
    kernel = Kernel()
    seed_server_fs(kernel)
    monitor, proc = pipeline.deploy(
        kernel, policy=FlowGuardPolicy(cache_slow_path_negatives=False)
    )
    for request in mix_requests("nginx", 20, seed=1, mix="varied"):
        proc.push_connection(request)
    kernel.run(proc)
    assert proc.state is ProcessState.EXITED
    assert monitor.detections == []
    assert len(compared) >= 10, compared
    assert set(compared) == {"list"}


def mapped_code(items, size=0x1000):
    """A memory with ``items`` assembled at ``CODE_BASE``."""
    code, symbols = asm(items, base=CODE_BASE)
    memory = Memory()
    memory.map_region(CODE_BASE, size, PROT_READ | PROT_EXEC)
    memory.write_raw(CODE_BASE, code)
    return memory, symbols


@pytest.mark.parametrize("items", [
    [Label("x"), A.jmp("x")],
    [A.mov(R0, 1), Label("x"), A.mov(R1, 2), A.jmp("x")],
    [Label("x"), A.jmp("y"), Label("y"), A.call("x")],
], ids=["jmp-self", "run-then-jmp-self", "jmp-call-cycle"])
def test_jump_cycle_under_budgets(items):
    """A ``jmp .`` cycle consumes no packet: the walk only ends on the
    budget, and building its chained run must stop on its own."""
    memory, _ = mapped_code(items)
    chain = FullDecoder(memory)._chain(CODE_BASE)
    assert chain[0] == MAX_BLOCK_RUN and chain[3] is None
    warm = FullDecoder(memory)
    for budget in range(3 * MAX_BLOCK_RUN + 5):
        got = assert_same(memory, anchored(CODE_BASE),
                          max_insns=budget, warm=warm)
        edges, insn_count, _, _, exhausted = got["packets"][0]
        assert insn_count == budget and exhausted is False
        assert edges or budget <= 2


def test_chain_budget_at_every_offset():
    """A JMP/CALL chain with no packet consumer until the HALT: every
    budget cuts it at a different offset, before and after each edge."""
    memory, _ = mapped_code([
        A.mov(R0, 1),
        A.jmp("a"),
        A.halt(),
        Label("a"),
        A.mov(R1, 2),
        A.mov(R2, 3),
        A.call("f"),
        A.halt(),
        Label("f"),
        A.jmp("g"),
        Label("g"),
        A.call("h"),
        Label("h"),
        A.mov(R0, 4),
        A.halt(),
    ])
    full = FullDecoder(memory).decode(parts(anchored(CODE_BASE)))
    assert [e.kind.value for e in full.edges] == [
        "direct_jmp", "direct_call", "direct_jmp", "direct_call",
    ]
    warm = FullDecoder(memory)
    for budget in range(full.insn_count + 2):
        got = assert_same(memory, anchored(CODE_BASE),
                          max_insns=budget, warm=warm)
    assert got["packets"][0] == fields(full)


@pytest.mark.parametrize("via", ["jmp", "call"])
def test_chain_into_unmapped_code_mapped_later(via):
    """A chained run that reaches an unmapped page is not remembered:
    once the page is mapped (no code-epoch move: the page is new) the
    same decoder walks on into it."""
    memory = Memory()
    memory.map_region(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    far = CODE_BASE + 0x1000
    head = [A.mov(R0, 1), A.jmp("near"), Label("near")]
    op = Op.JMP if via == "jmp" else Op.CALL
    at = CODE_BASE + len(asm(head, base=CODE_BASE)[0])
    code, _ = asm(
        head + [Insn(op, rel=far - at - instruction_length(op))],
        base=CODE_BASE,
    )
    memory.write_raw(CODE_BASE, code)
    decoder = FullDecoder(memory, max_insns=100)
    epoch = memory.code_epoch
    for budget in range(6):
        assert_same(memory, anchored(CODE_BASE), max_insns=budget,
                    warm=decoder)
    with pytest.raises(TraceMismatch, match="cannot disassemble"):
        decoder.decode(parts(anchored(CODE_BASE)))
    memory.map_region(far, 0x1000, PROT_READ | PROT_EXEC)
    tail, symbols = asm([A.mov(R1, 1), Label("end"), A.halt()], base=far)
    memory.write_raw(far, tail)
    assert memory.code_epoch == epoch
    got = assert_same(memory, anchored(CODE_BASE), max_insns=100,
                      warm=decoder)
    edges, insn_count, _, end_ip, exhausted = got["packets"][0]
    assert (len(edges), insn_count, end_ip, exhausted) == (
        2, 5, symbols["end"], True
    )


def test_code_epoch_change_between_decodes():
    """Code re-mapped between two decodes: the warm decoder drops its
    chained runs and follows the new direct targets."""
    items = [
        A.jmp("a"),
        Label("a"),
        A.call("f"),
        A.halt(),
        Label("f"),
        A.mov(R0, 1),
        A.halt(),
    ]
    memory, symbols = mapped_code(items)
    warm = FullDecoder(memory)
    before = assert_same(memory, anchored(CODE_BASE), warm=warm)
    # Re-assemble with the JMP skipping the CALL, then re-protect the
    # page (mprotect model: the code epoch moves).
    code, _ = asm([
        A.jmp("b"),
        Label("a"),
        A.call("f"),
        Label("b"),
        A.halt(),
        Label("f"),
        A.mov(R0, 1),
        A.halt(),
    ], base=CODE_BASE)
    memory.write_raw(CODE_BASE, code)
    epoch = memory.code_epoch
    memory.protect(CODE_BASE, 0x1000, PROT_READ | PROT_EXEC)
    assert memory.code_epoch > epoch
    after = assert_same(memory, anchored(CODE_BASE), warm=warm)
    assert after != before
    assert [kind.value for kind, *_ in after["packets"][0][0]] == [
        "direct_jmp"
    ]


def test_jcc_bits_cross_tnt_packets_and_psbs():
    """A 60-iteration loop under a short PSB period: its JCC bits span
    many TNT packets with PSB+ groups between them, popped inline from
    the cursor's pending bits and refilled at each packet boundary."""
    items = [
        A.mov(R0, 0),
        Label("loop"),
        A.addi(R0, 1),
        A.jmp("test"),
        Label("test"),
        A.cmpi(R0, 60),
        A.jcc(Cond.LT, "loop"),
        A.halt(),
    ]
    memory, data = traced_snippet(items, psb_period=4)
    assert len(psb_offsets(data)) > 3
    got = assert_same(memory, data, warm=FullDecoder(memory))
    edges = got["packets"][0][0]
    assert sum(kind.value == "cond_branch" for kind, *_ in edges) == 60
    full = FullDecoder(memory).decode(parts(data))
    warm = FullDecoder(memory)
    for budget in range(full.insn_count + 2):
        assert_same(memory, data, max_insns=budget, warm=warm)
    for cut in range(len(data) + 1):
        assert_same(memory, data[:cut], warm=warm)


def _patch_items(target, offset=0, byte=0):
    """A JMP at ``site`` to ``target``, reached by a taken JCC (so a
    chained run starts there); with R0 == 1 the code first stores
    ``byte`` at ``site + offset``."""
    return [
        A.lea(R1, "site"),
        A.addi(R1, offset),
        A.mov(R2, byte),
        A.cmpi(R0, 1),
        A.jcc(Cond.NE, "site"),
        A.storeb(R1, 0, R2),
        A.jcc(Cond.EQ, "site"),
        A.halt(),
        Label("site"),
        A.jmp(target),
        Label("b"),
        A.mov(R0, 2),
        A.halt(),
        Label("a"),
        A.mov(R0, 3),
        A.halt(),
    ]


def test_code_patched_on_a_writable_page():
    """Code on an RWX page, patched by a guest store between two decodes
    by one decoder.  A store moves no code epoch, so nothing decoded
    from a writable page may be remembered: the second decode must walk
    the patched JMP, as the CPU ran it.  Two inputs: a page mapped RWX
    from the start, and a page filed under a module's store, mapped RX
    for the first run (so shared and remembered) and mprotected to RWX
    before the second (so neither)."""
    old, symbols = asm(_patch_items("a"), base=CODE_BASE)
    new, _ = asm(_patch_items("b"), base=CODE_BASE)
    (at,) = [i for i in range(len(old)) if old[i] != new[i]]
    code, symbols = asm(
        _patch_items("a", CODE_BASE + at - symbols["site"], new[at]),
        base=CODE_BASE,
    )
    rwx = PROT_READ | PROT_WRITE | PROT_EXEC
    for remapped in (False, True):
        memory = Memory()
        memory.map_region(CODE_BASE, 0x1000,
                          PROT_READ | PROT_EXEC if remapped else rwx)
        memory.write_raw(CODE_BASE, code)
        if remapped:
            memory.attach_blocks(CODE_BASE, 0x1000, BlockStore())
        memory.map_region(STACK_TOP - 0x4000, 0x4000,
                          PROT_READ | PROT_WRITE)
        epoch = memory.code_epoch
        decoder = FullDecoder(memory)
        ends = []
        for patch in (0, 1):
            if remapped and patch:
                memory.protect(CODE_BASE, 0x1000, rwx)
            machine = Machine(memory)
            machine.ip = CODE_BASE
            machine.set_reg(SP, STACK_TOP - 8)
            machine.set_reg(R0, patch)
            retired = []
            cpu = Executor(machine)
            encoder = _encoder()
            cpu.add_listener(encoder.on_branch)
            cpu.add_listener(retired.append)
            cpu.run(10_000)
            encoder.flush()
            assert machine.halted
            got = assert_same(memory, encoder.output.snapshot(),
                              warm=decoder)
            for name, (result, _) in got.items():
                assert result[0] == [tuple(event) for event in retired], \
                    (name, remapped)
            ends.append(retired[-1].dst)
            shared = remapped and not patch
            page = decoder._pages.get(CODE_BASE >> PAGE_SHIFT)
            assert (page is not None) == shared, (remapped, patch)
            assert bool(decoder._chains) == shared, (remapped, patch)
        assert (memory.code_epoch == epoch) != remapped
        assert ends == [symbols["a"], symbols["b"]], remapped
