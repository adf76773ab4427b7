"""The coverage-oriented fuzzing loop (AFL in miniature).

The target runs inside the CPU interpreter — the stand-in for AFL's
QEMU user-emulation mode — with the coverage tracker subscribed to the
CoFI bus.  Inputs producing new state transitions join the queue for
further mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.binary.module import Module
from repro.fuzz.coverage import CoverageMap, CoverageTracker
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.queue import CorpusEntry, FuzzQueue
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import ProcessState

#: executions between two samples of ``FuzzStats.history``.
SNAPSHOT_EVERY = 100


@dataclass
class RunResult:
    hits: Dict[int, int]
    crashed: bool
    steps: int


class TargetRunner:
    """Runs the target program on one input, instrumented for coverage.

    ``mode="stdin"`` feeds the input on fd 0; ``mode="socket"`` channels
    it through a queued connection — the preeny/desock trick the paper
    uses for network software like nginx.
    """

    def __init__(
        self,
        program: str,
        exe: Module,
        libraries: Optional[Dict[str, Module]] = None,
        vdso: Optional[Module] = None,
        mode: str = "stdin",
        max_steps: int = 400_000,
        kernel_setup=None,
    ) -> None:
        if mode not in ("stdin", "socket"):
            raise ValueError(f"unknown runner mode {mode!r}")
        self.program = program
        self.exe = exe
        self.libraries = libraries
        self.vdso = vdso
        self.mode = mode
        self.max_steps = max_steps
        self.kernel_setup = kernel_setup

    def run(self, data: bytes) -> RunResult:
        kernel = Kernel()
        kernel.register_program(
            self.program, self.exe, self.libraries, vdso=self.vdso
        )
        if self.kernel_setup is not None:
            self.kernel_setup(kernel)
        proc = kernel.spawn(self.program)
        if self.mode == "stdin":
            proc.feed_stdin(data)
        else:
            proc.push_connection(data)
        tracker = CoverageTracker()
        proc.executor.add_listener(tracker.on_branch)
        state = kernel.run(proc, max_steps=self.max_steps)
        return RunResult(
            hits=tracker.hits,
            crashed=state is ProcessState.KILLED,
            steps=proc.executor.insn_count,
        )


@dataclass
class FuzzStats:
    executions: int = 0
    crashes: int = 0
    #: snapshots of (executions, queue size, coverage edges).
    history: List[Tuple[int, int, int]] = field(default_factory=list)


class Fuzzer:
    """The queue-driven mutation loop."""

    def __init__(
        self,
        runner: TargetRunner,
        seeds: Sequence[bytes],
    ) -> None:
        self.runner = runner
        self.seeds = list(seeds)
        self.engine = MutationEngine()
        self.queue = FuzzQueue()
        self.coverage = CoverageMap()
        self.stats = FuzzStats()

    def _execute(self, data: bytes, depth: int) -> bool:
        """Run one input; queue it if it found new transitions."""
        result = self.runner.run(data)
        self.stats.executions += 1
        if result.crashed:
            self.stats.crashes += 1
        new = self.coverage.merge(result.hits)
        if new:
            self.queue.push(CorpusEntry(data=data, depth=depth))
        return new

    def run(
        self,
        max_executions: int = 2000,
        havoc_rounds: int = 16,
    ) -> FuzzQueue:
        """Fuzz until the execution budget is spent; returns the queue."""
        for seed in self.seeds:
            self._execute(seed, depth=0)
        if len(self.queue) == 0 and self.seeds:
            # Keep at least one seed even without fresh coverage.
            self.queue.push(CorpusEntry(data=self.seeds[0], depth=0))

        while self.stats.executions < max_executions and len(self.queue):
            entry = self.queue.next_unfuzzed()
            if entry is None:
                entry = self.queue.cycle()
                # Splice stage: cross with a random other entry.
                other = self.queue.cycle()
                spliced = self.engine.splice(entry.data, other.data)
                candidates = self.engine.havoc(spliced, rounds=havoc_rounds)
            else:
                candidates = self.engine.mutations(
                    entry.data, havoc_rounds=havoc_rounds
                )
                entry.fuzzed = True
            for mutant in candidates:
                if self.stats.executions >= max_executions:
                    break
                self._execute(mutant, depth=entry.depth + 1)
                if self.stats.executions % SNAPSHOT_EVERY == 0:
                    self.stats.history.append(
                        (
                            self.stats.executions,
                            len(self.queue),
                            self.coverage.edge_count,
                        )
                    )
        return self.queue
