#!/usr/bin/env python3
"""Table 2 walkthrough: how IPT traces execution.

Runs a small instruction sequence mirroring the paper's Table 2 —
a taken conditional, an indirect jump, a direct call (no output!), a
not-taken conditional, a direct jump (no output), and a return — then
prints what the fast decode's scan sees (TIP targets with their TNT
context) and fully decodes the stream back into every transfer.

Run:  python examples/ipt_tracing.py
"""

from repro.cpu import Executor, Machine, Memory
from repro.cpu import PROT_EXEC, PROT_READ, PROT_WRITE
from repro.ipt import (
    FullDecoder,
    IPTConfig,
    IPTEncoder,
    ToPA,
    ToPARegion,
    columnar_scan,
)
from repro.ipt.msr import RTIT_CTL
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import R0, R2, SP

# The Table 2 flow: jg taken; jmpq *%rax; callq fun1; ...; je not-taken;
# jmpq (direct); leaveq; retq.
SNIPPET = [
    A.mov(R0, 1),
    A.cmpi(R0, 0),
    A.jcc(Cond.GT, "indirect"),      # 1. jg  -> taken        => TNT(1)
    Label("indirect"),
    A.lea(R2, "call_site"),
    A.jmpr(R2),                      # 2. jmpq *%rax           => TIP
    Label("call_site"),
    A.call("fun1"),                  # 3. callq fun1           => (none)
    A.halt(),                        # 4. mov ... (resume)
    Label("fun1"),
    A.cmpi(R0, 2),                   # 6. cmp
    A.jcc(Cond.EQ, "skip"),          # 7. je  -> not-taken     => TNT(0)
    A.jmp("ret_block"),              # 8. jmpq (direct)        => (none)
    Label("skip"),
    A.nop(),
    Label("ret_block"),
    A.ret(),                         # 9. retq                 => TIP
]


def main() -> None:
    code, symbols = asm(SNIPPET, base=0x8F0)
    memory = Memory()
    memory.map_region(0x8F0, len(code) + 16, PROT_READ | PROT_EXEC)
    memory.write_raw(0x8F0, code)
    memory.map_region(0x20000, 0x1000, PROT_READ | PROT_WRITE)
    machine = Machine(memory)
    machine.ip = 0x8F0
    machine.set_reg(SP, 0x20FF8)

    config = IPTConfig()
    config.write_ctl(RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN | RTIT_CTL.USER)
    encoder = IPTEncoder(config, output=ToPA([ToPARegion(4096)]))

    cpu = Executor(machine)
    events = []
    cpu.add_listener(events.append)
    cpu.add_listener(encoder.on_branch)
    cpu.run(1000)
    encoder.flush()

    print("executed control flow (ground truth):")
    for event in events:
        print(f"  {event}")

    data = encoder.output.snapshot()
    print(f"\nIPT emitted {len(data)} packet bytes for "
          f"{cpu.insn_count} instructions "
          f"({8 * len(data) / cpu.insn_count:.1f} bits/insn, "
          f"incl. the one-time PSB group)")
    scan = columnar_scan(data)
    print(f"\nfast decode (framing only): {scan.pkt_count} packets")
    for ip, sig in zip(scan.ip_column(), scan.sig_column()):
        bits = format(sig, "b")[1:]  # drop the signature's 1-prefix
        print(f"  TIP  ip={ip:#x}  TNT before: {bits or '-'}")

    print("\nfull decode (instruction-flow layer, needs the binary):")
    result = FullDecoder(memory).decode([(scan, 0)])
    for edge in result.edges:
        print(f"  {edge.kind.value:13s} {edge.src:#x} -> {edge.dst:#x}")
    print(f"  ({result.insn_count} instructions walked to reconstruct "
          f"{len(result.edges)} transfers — the §2 cost asymmetry)")


if __name__ == "__main__":
    main()
