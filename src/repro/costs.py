"""Calibrated cycle-cost model shared by the whole simulation.

The paper reports *relative* overheads measured in wall-clock time on a
Skylake machine.  The reproduction instead measures deterministic
simulated cycles: the CPU charges cycles per retired instruction and
every monitoring component (tracing hardware, decoders, checkers, kernel
entry/exit) charges cycles through the same account.  Overhead is then
``monitored_cycles / baseline_cycles - 1``.

The constants below are calibrated so that the *shape* of the paper's
results holds (orderings, ratios and crossovers — e.g. BTS tracing is
~50x, IPT tracing a few percent, full decoding is orders of magnitude
slower than tracing, slow-path checking is ~60x the fast path).  They are
plain module constants so that ablation experiments can scale them; see
EXPERIMENTS.md for the calibration notes.
"""

from __future__ import annotations

from repro.isa.instructions import Op

# ----------------------------------------------------------------------
# CPU: cycles charged per retired instruction, by opcode class.
# ----------------------------------------------------------------------

_DEFAULT_INSN_CYCLES = 1

_SPECIAL_INSN_CYCLES = {
    Op.LOAD: 2,
    Op.STORE: 2,
    Op.LOADB: 2,
    Op.STOREB: 2,
    Op.PUSH: 2,
    Op.POP: 2,
    Op.MUL: 3,
    Op.MULI: 3,
    Op.DIV: 12,
    Op.MOD: 12,
    Op.CALL: 2,
    Op.CALLR: 2,
    Op.RET: 2,
}

INSN_CYCLES = {
    op: _SPECIAL_INSN_CYCLES.get(op, _DEFAULT_INSN_CYCLES) for op in Op
}

# Kernel entry/exit (trap, switch, sysret) charged per syscall, on top of
# whatever the syscall handler itself charges.
SYSCALL_BASE_CYCLES = 150
# Kernel data-copy cost (copy_to_user / copy_from_user and device I/O)
# charged per byte moved by read/write/send/recv.
KERNEL_IO_CYCLES_PER_BYTE = 1.5

# ----------------------------------------------------------------------
# Tracing hardware.
# ----------------------------------------------------------------------

# IPT: the packetizer shares the store path with the memory subsystem;
# cost is proportional to the (compressed) bytes emitted.
IPT_TRACE_CYCLES_PER_BYTE = 0.6

# BTS: each record is a 24-byte store *plus* a microcode assist that
# stalls the pipeline — the reason BTS tracing is ~50x on branchy code.
BTS_RECORD_BYTES = 24
BTS_RECORD_CYCLES = 1000

# LBR: a register-stack rotation, effectively free.
LBR_BRANCH_CYCLES = 0.02

# ----------------------------------------------------------------------
# Decoders.
# ----------------------------------------------------------------------

# Fast (packet-layer) decode: a linear scan of the packet bytes.
FAST_DECODE_CYCLES_PER_BYTE = 0.5

# Full (instruction-flow-layer) decode: every instruction along the
# reconstructed path must be fetched from the binary, decoded and
# interpreted against the packet stream — Intel's reference library
# behaviour, and the reason decoding is orders of magnitude slower
# than tracing.
FULL_DECODE_CYCLES_PER_INSN = 300.0

# Hardware-assisted pattern-matching decoder (§6 suggestion 1): a simple
# two-byte-word pattern engine that classifies and routes packets.
HW_DECODE_CYCLES_PER_BYTE = 0.02

# ----------------------------------------------------------------------
# Flow checking.
# ----------------------------------------------------------------------

# One probe of the sorted target array during fast-path binary search.
SEARCH_PROBE_CYCLES = 0.5
# Hash-probe of the high-credit fast-matching cache (§5.3).
CREDIT_CACHE_PROBE_CYCLES = 0.5
# Per-entry shadow-stack push/pop/compare in the slow path.
SHADOW_STACK_OP_CYCLES = 2.0
# Upcall from kernel module to the user-level slow-path process.
SLOWPATH_UPCALL_CYCLES = 4000.0
# Fixed kernel-module work per intercepted endpoint (CR3 match, result
# plumbing) — the "other" slice of the Figure 5 breakdown.
MONITOR_INTERCEPT_CYCLES = 120.0
