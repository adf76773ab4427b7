"""Whole-stack properties over randomly generated programs.

Each property runs against a family of seeded random programs from
:mod:`repro.workloads.programgen`, exercising the full branch taxonomy
(loops, switches, direct/indirect calls, recursion, PLT crossings):

1. generated programs compile, link, run and exit cleanly,
2. execution is deterministic,
3. the IPT trace fully reconstructs the execution at the
   instruction-flow layer,
4. the §4.2 soundness theorem: every consecutive TIP pair is an
   ITC-CFG edge,
5. protecting a benign run never yields a detection (no false
   positives), and after self-training it stays on the fast path.
"""

import pytest

from repro.analysis import build_ocfg
from repro.binary import Loader
from repro.cpu import CoFIKind, Executor, Machine
from repro.cpu import PROT_READ, PROT_WRITE
from repro.ipt import FullDecoder, IPTConfig, IPTEncoder, ToPA, ToPARegion
from repro.ipt.columnar import columnar_scan
from repro.ipt.msr import RTIT_CTL
from repro.isa.registers import SP
from repro.itccfg import CreditLabeledITC, build_itccfg
from repro.osmodel import Kernel, ProcessState
from repro.workloads import build_libsim
from repro.workloads.programgen import generate_program
from tests.full_decoder_reference import ReferenceFullDecoder, packet_cursor

SEEDS = list(range(8))
LIBS = {"libsim.so": build_libsim()}


def traced_run(exe, max_steps=3_000_000):
    """Run a generated program bare-metal with IPT attached."""
    image = Loader(LIBS).load(exe)
    image.memory.map_region(0x7FFD0000, 0x30000, PROT_READ | PROT_WRITE)
    machine = Machine(image.memory)
    machine.ip = image.entry_address
    machine.set_reg(SP, 0x7FFFFF00)
    cpu = Executor(machine)
    config = IPTConfig()
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    encoder = IPTEncoder(config, output=ToPA([ToPARegion(1 << 22)]))
    events = []
    cpu.add_listener(events.append)
    cpu.add_listener(encoder.on_branch)
    cpu.run(max_steps)
    encoder.flush()
    assert cpu.machine.halted, "generated program must terminate"
    return image, cpu, encoder, events


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_run_clean(seed):
    exe = generate_program(seed)
    kernel = Kernel()
    kernel.register_program(f"gen{seed}", exe, LIBS)
    proc = kernel.spawn(f"gen{seed}")
    state = kernel.run(proc, max_steps=3_000_000)
    assert state is ProcessState.EXITED, proc.fault


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_execution_deterministic(seed):
    exits = set()
    for _ in range(2):
        exe = generate_program(seed)
        kernel = Kernel()
        kernel.register_program(f"gen{seed}", exe, LIBS)
        proc = kernel.spawn(f"gen{seed}")
        kernel.run(proc, max_steps=3_000_000)
        exits.add((proc.exit_code, proc.executor.insn_count))
    assert len(exits) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_full_decode_reconstructs_execution(seed):
    """Property 3: trace + binaries == exact flow (§2's premise)."""
    exe = generate_program(seed)
    image, cpu, encoder, events = traced_run(exe)
    data = encoder.output.snapshot()
    truth = [(e.kind, e.src, e.dst) for e in events]
    parts = [(columnar_scan(data), 0)]
    # The monitor's column walk, and the oracle decoder over the
    # packet-list cursor.
    for decoder in (
        FullDecoder(image.memory, max_insns=20_000_000),
        ReferenceFullDecoder(image.memory, max_insns=20_000_000,
                             cursor=packet_cursor),
    ):
        result = decoder.decode(parts)
        got = [(e.kind, e.src, e.dst) for e in result.edges]
        # Decoding anchors at the first packet-producing event (a PSB),
        # so the reconstruction is a suffix of ground truth.
        assert got == truth[len(truth) - len(got):]
        assert len(got) >= len(truth) - 4


@pytest.mark.parametrize("seed", SEEDS)
def test_itc_soundness_on_generated_programs(seed):
    """Property 4: the §4.2 theorem over random program shapes."""
    exe = generate_program(seed)
    image, cpu, encoder, events = traced_run(exe)
    itc = build_itccfg(build_ocfg(image))
    ips = columnar_scan(encoder.output.snapshot()).ip_column()
    assert ips, "generated programs must produce TIPs"
    for prev, cur in zip(ips, ips[1:]):
        assert itc.has_node(cur), hex(cur)
        assert itc.has_edge(prev, cur), (
            f"seed {seed}: missing ITC edge {prev:#x} -> {cur:#x}"
        )


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_protection_has_no_false_positives(seed):
    """Property 5: benign generated programs are never flagged."""
    from repro.pipeline import FlowGuardPipeline

    exe = generate_program(seed)
    pipeline = FlowGuardPipeline.offline(
        f"gen{seed}", exe, LIBS, corpus=[b""], mode="stdin",
    )
    kernel = Kernel()
    monitor, proc = pipeline.deploy(kernel)
    state = kernel.run(proc, max_steps=3_000_000)
    assert state is ProcessState.EXITED, proc.fault
    assert monitor.detections == []
    stats = monitor.stats_for(proc)
    # Self-trained on its own (deterministic) run: pure fast path.
    if stats.checks:
        assert stats.slow_path_rate == 0.0
