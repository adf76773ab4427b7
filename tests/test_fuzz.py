"""Tests for the AFL-like fuzzer and the credit-training phase."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import (
    CoverageMap,
    CoverageTracker,
    Fuzzer,
    FuzzQueue,
    MutationEngine,
    TargetRunner,
    train_credits,
)
from repro.fuzz.coverage import _bucket
from repro.fuzz.queue import CorpusEntry
from repro.cpu import BranchEvent, CoFIKind
from repro.itccfg.credits import CreditLabeledITC
from repro.lang import (
    AddrOf,
    Call,
    Const,
    Func,
    If,
    Let,
    LocalArray,
    Load,
    Program,
    Rel,
    Return,
    SyscallExpr,
    Var,
)
from repro.osmodel.syscalls import Sys


def branchy_target():
    """A program whose path depends on its first stdin byte."""
    prog = Program("target")
    prog.add_func(
        Func(
            "main",
            [],
            [
                LocalArray("buf", 8),
                Let("n", SyscallExpr(int(Sys.READ),
                                     [Const(0), AddrOf("buf"), Const(8)])),
                If(Rel("<=", Var("n"), Const(0)), [Return(Const(0))]),
                Let("c", Load(AddrOf("buf"), byte=True)),
                If(Rel("==", Var("c"), Const(ord("A"))),
                   [Return(Const(1))]),
                If(Rel("==", Var("c"), Const(ord("B"))),
                   [Return(Const(2))]),
                If(Rel(">", Var("c"), Const(127)),
                   [Return(Const(3))]),
                Return(Const(4)),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


class TestCoverage:
    def test_bucketing_monotone_classes(self):
        assert _bucket(1) == 1
        assert _bucket(3) == 3
        assert _bucket(5) == 4
        assert _bucket(10) == 8
        assert _bucket(500) == 64

    def test_new_edges_detected(self):
        cmap = CoverageMap()
        assert cmap.merge({1: 1})
        assert not cmap.merge({1: 1})  # same edge, same bucket
        assert cmap.merge({1: 10})  # same edge, new hit-count bucket
        assert cmap.merge({2: 1})  # new edge

    def test_tracker_hashes_transitions(self):
        tracker = CoverageTracker()
        tracker.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0x10, 0x20))
        tracker.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0x20, 0x30))
        assert len(tracker.hits) == 2
        tracker.reset()
        assert tracker.hits == {}

    def test_order_sensitivity(self):
        """Edge coverage distinguishes A->B from B->A."""
        t1 = CoverageTracker()
        t1.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0, 0xA))
        t1.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0, 0xB))
        t2 = CoverageTracker()
        t2.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0, 0xB))
        t2.on_branch(BranchEvent(CoFIKind.DIRECT_JMP, 0, 0xA))
        assert set(t1.hits) != set(t2.hits)


class TestMutators:
    def test_bitflips_differ_by_one_bit(self):
        engine = MutationEngine()
        data = b"\x00\x00"
        for mutant in engine.bitflips(data):
            assert len(mutant) == 2
            diff = int.from_bytes(mutant, "big")
            assert bin(diff).count("1") == 1

    def test_deterministic_stages_deterministic(self):
        a = list(MutationEngine().mutations(b"seed", havoc_rounds=4))
        b = list(MutationEngine().mutations(b"seed", havoc_rounds=4))
        assert a == b

    def test_havoc_varies_with_seed(self):
        reseeded = MutationEngine()
        reseeded.rng.seed(2)
        a = list(MutationEngine().havoc(b"seed", rounds=8))
        b = list(reseeded.havoc(b"seed", rounds=8))
        assert a != b

    def test_splice(self):
        engine = MutationEngine()
        out = engine.splice(b"AAAA", b"BBBB")
        assert out
        assert set(out) <= set(b"AB")

    def test_splice_empty(self):
        engine = MutationEngine()
        assert engine.splice(b"", b"XY") == b"XY"

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_havoc_outputs_nonempty(self, data):
        engine = MutationEngine()
        for mutant in engine.havoc(data, rounds=4):
            assert isinstance(mutant, bytes)
            assert len(mutant) >= 1


class TestQueue:
    def test_fifo_unfuzzed(self):
        queue = FuzzQueue()
        queue.push(CorpusEntry(b"a"))
        queue.push(CorpusEntry(b"b"))
        first = queue.next_unfuzzed()
        assert first.data == b"a"
        first.fuzzed = True
        assert queue.next_unfuzzed().data == b"b"

    def test_cycle_wraps(self):
        queue = FuzzQueue()
        queue.push(CorpusEntry(b"a"))
        queue.push(CorpusEntry(b"b"))
        seen = [queue.cycle().data for _ in range(4)]
        assert seen == [b"a", b"b", b"a", b"b"]

    def test_corpus(self):
        queue = FuzzQueue()
        queue.push(CorpusEntry(b"x"))
        assert queue.corpus() == [b"x"]


class TestFuzzer:
    def test_discovers_distinct_paths(self):
        runner = TargetRunner("target", branchy_target(),
                              max_steps=50_000)
        fuzzer = Fuzzer(runner, [b"....."])
        queue = fuzzer.run(max_executions=300, havoc_rounds=8)
        # The seed plus at least one mutated input reaching a new branch.
        assert len(queue) >= 2
        assert fuzzer.stats.executions <= 300

    def test_crash_counting(self):
        # A target that faults on input 'X...': wild store.
        from repro.lang import Store

        prog = Program("crashy")
        prog.add_func(
            Func(
                "main",
                [],
                [
                    LocalArray("buf", 8),
                    SyscallExpr(int(Sys.READ),
                                [Const(0), AddrOf("buf"), Const(8)]),
                    If(
                        Rel("==", Load(AddrOf("buf"), byte=True),
                            Const(ord("X"))),
                        [Store(Const(0xDEAD0000), Const(1))],
                    ),
                    Return(Const(0)),
                ],
            )
        )
        prog.set_entry("main")
        runner = TargetRunner("crashy", prog.build(), max_steps=50_000)
        fuzzer = Fuzzer(runner, [b"X"])
        fuzzer.run(max_executions=5, havoc_rounds=2)
        assert fuzzer.stats.crashes >= 1

    def test_runner_mode_validation(self):
        with pytest.raises(ValueError):
            TargetRunner("t", branchy_target(), mode="pipe")


class TestTraining:
    def test_training_is_idempotent(self):
        """Replaying the same corpus twice labels the same edges."""
        from repro.analysis import build_ocfg
        from repro.binary import Loader
        from repro.itccfg import build_itccfg

        exe = branchy_target()
        image = Loader().load(exe)
        itc = build_itccfg(build_ocfg(image))
        labeled_a = CreditLabeledITC(itc=itc)
        labeled_b = CreditLabeledITC(itc=itc)
        corpus = [b"A", b"B", b"zz"]
        train_credits(labeled_a, "t", exe, corpus)
        train_credits(labeled_b, "t", exe, corpus)
        train_credits(labeled_b, "t", exe, corpus)  # again
        assert set(labeled_a.high_credit_edges()) == set(
            labeled_b.high_credit_edges()
        )

    def test_report_ratio_monotone(self):
        from repro.analysis import build_ocfg
        from repro.binary import Loader
        from repro.itccfg import build_itccfg

        exe = branchy_target()
        image = Loader().load(exe)
        itc = build_itccfg(build_ocfg(image))
        labeled = CreditLabeledITC(itc=itc)
        report = train_credits(labeled, "t", exe, [b"A", b"B", b"\xff"])
        assert report.inputs_replayed == 3
        history = report.ratio_history
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert history[-1] == labeled.trained_ratio()
