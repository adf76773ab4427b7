"""Unit tests for the CPU: memory protection, execution, CoFI events."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import (
    BranchEvent,
    CoFIKind,
    CPUFault,
    Executor,
    HaltReason,
    Machine,
    Memory,
    MemoryError_,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.cpu.blocks import BlockStore
from repro.cpu.memory import CSTRING_LIMIT
from repro.isa import A, Cond, Label, asm
from repro.isa.registers import FP, R0, R1, R2, R3, SP

CODE_BASE = 0x40000
STACK_TOP = 0x80000


def make_cpu(items, syscall_handler=None):
    """Assemble ``items`` at CODE_BASE and return a ready executor."""
    code, symbols = asm(items, base=CODE_BASE)
    mem = Memory()
    mem.map_region(CODE_BASE, max(len(code), 1), PROT_READ | PROT_EXEC)
    mem.write_raw(CODE_BASE, code)
    mem.map_region(STACK_TOP - 0x4000, 0x4000, PROT_READ | PROT_WRITE)
    machine = Machine(mem)
    machine.ip = CODE_BASE
    machine.set_reg(SP, STACK_TOP - 8)
    return Executor(machine, syscall_handler=syscall_handler), symbols


class TestMemory:
    def test_map_read_write(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100)
        mem.write(0x1008, b"hello")
        assert mem.read(0x1008, 5) == b"hello"

    def test_cross_page_access(self):
        mem = Memory()
        mem.map_region(0x1000, 0x3000)
        data = bytes(range(200)) * 30
        mem.write(0x1F00, data)
        assert mem.read(0x1F00, len(data)) == data

    def test_unmapped_read_raises(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.read(0x5000, 1)

    def test_write_to_readonly_raises(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100, PROT_READ)
        with pytest.raises(MemoryError_):
            mem.write(0x1000, b"x")

    def test_fetch_requires_exec(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100, PROT_READ | PROT_WRITE)
        with pytest.raises(MemoryError_):
            mem.fetch(0x1000, 1)

    def test_write_raw_bypasses_protection(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100, PROT_READ | PROT_EXEC)
        mem.write_raw(0x1000, b"\x00")
        assert mem.read_raw(0x1000, 1) == b"\x00"

    def test_mprotect(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000, PROT_READ)
        mem.protect(0x1000, 0x1000, PROT_READ | PROT_WRITE)
        mem.write(0x1000, b"ok")
        assert mem.read(0x1000, 2) == b"ok"

    def test_mprotect_unmapped_raises(self):
        mem = Memory()
        with pytest.raises(MemoryError_):
            mem.protect(0x9000, 0x100, PROT_READ)

    def test_code_epoch_tracks_executable_remaps(self):
        mem = Memory()
        mem.map_region(0x1000, 0x1000, PROT_READ | PROT_WRITE)
        mem.protect(0x1000, 0x1000, PROT_READ)
        mem.map_region(0x1000, 0x1000, PROT_READ | PROT_WRITE)
        mem.map_region(0x3000, 0x1000, PROT_READ | PROT_EXEC)
        assert mem.code_epoch == 0  # no executable page changed
        mem.protect(0x1000, 0x1000, PROT_READ | PROT_EXEC)
        assert mem.code_epoch == 1  # becomes executable
        mem.protect(0x1000, 0x1000, PROT_READ | PROT_WRITE)
        assert mem.code_epoch == 2  # stops being executable
        mem.map_region(0x3000, 0x1000, PROT_READ | PROT_EXEC)
        assert mem.code_epoch == 3  # executable page re-mapped
        assert mem.clone().code_epoch == 3

    def test_u64_roundtrip(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100)
        mem.write_u64(0x1010, 0x1122334455667788)
        assert mem.read_u64(0x1010) == 0x1122334455667788

    def test_cstring(self):
        mem = Memory()
        mem.map_region(0x1000, 0x100)
        mem.write(0x1000, b"nginx\x00junk")
        assert mem.read_cstring(0x1000) == b"nginx"

    def test_cstring_nul_on_the_next_page(self):
        mem = Memory()
        mem.map_region(0x1000, 0x2000)
        mem.write(0x1FFD, b"abc" + b"defg\x00z")
        assert mem.read_cstring(0x1FFD) == b"abcdefg"
        assert mem.read_cstring(0x2000) == b"defg"
        mem.write(0x2000, b"\x00")
        assert mem.read_cstring(0x1FFD) == b"abc"

    @pytest.mark.parametrize("prot, message", [
        (None, "read of unmapped address 0x2000"),
        (PROT_WRITE, "read protection violation at 0x2000 (have 0x2, "
                     "need 0x1)"),
    ])
    def test_cstring_stops_at_an_unreadable_page(self, prot, message):
        """No NUL before the page end: the next page is read, and an
        unmapped or non-readable one raises at its first byte."""
        mem = Memory()
        mem.map_region(0x1000, 0x1000)
        if prot is not None:
            mem.map_region(0x2000, 0x1000, prot)
        mem.write(0x1FFC, b"abcd")
        with pytest.raises(MemoryError_) as caught:
            mem.read_cstring(0x1FFC)
        assert str(caught.value) == message
        with pytest.raises(MemoryError_, match="0x2000"):
            mem.read_cstring(0x2000)
        # A NUL before the page end never touches the next page.
        mem.write(0x1FFE, b"\x00")
        assert mem.read_cstring(0x1FFC) == b"ab"

    def test_cstring_limit_without_nul(self):
        assert CSTRING_LIMIT == 0x1000
        mem = Memory()
        mem.map_region(0x1000, 0x3000)
        mem.write(0x1000, b"x" * 0x3000)
        assert mem.read_cstring(0x1800) == b"x" * CSTRING_LIMIT
        # The limit ends the read at the mapping's last byte...
        assert mem.read_cstring(0x3000) == b"x" * CSTRING_LIMIT
        # ...and one byte further on reaches the unmapped page.
        with pytest.raises(MemoryError_, match="unmapped address 0x4000"):
            mem.read_cstring(0x3001)

    @given(st.integers(0, 2**64 - 1))
    def test_u64_roundtrip_property(self, value):
        mem = Memory()
        mem.map_region(0x2000, 0x10)
        mem.write_u64(0x2000, value)
        assert mem.read_u64(0x2000) == value


class TestArithmetic:
    def test_basic_alu(self):
        cpu, _ = make_cpu(
            [
                A.mov(R0, 10),
                A.mov(R1, 3),
                A.movr(R2, R0),
                A.add(R2, R1),  # 13
                A.movr(R3, R0),
                A.mul(R3, R1),  # 30
                A.halt(),
            ]
        )
        assert cpu.run() is HaltReason.HALTED
        assert cpu.machine.reg(R2) == 13
        assert cpu.machine.reg(R3) == 30

    def test_div_mod_truncate_toward_zero(self):
        cpu, _ = make_cpu(
            [
                A.mov(R0, -7),
                A.mov(R1, 2),
                A.movr(R2, R0),
                A.div(R2, R1),
                A.movr(R3, R0),
                A.mod(R3, R1),
                A.halt(),
            ]
        )
        cpu.run()
        from repro.cpu.machine import to_signed

        assert to_signed(cpu.machine.reg(R2)) == -3
        assert to_signed(cpu.machine.reg(R3)) == -1

    @pytest.mark.parametrize("dividend,divisor,quot,rem", [
        # Operands beyond 2**53, where float division loses bits.
        (2**62 + 1, 1, 2**62 + 1, 0),
        (2**62 + 7, 3, (2**62 + 7) // 3, 2),
        (-(2**62 + 7), 3, -((2**62 + 7) // 3), -2),
        (2**62 + 7, -3, -((2**62 + 7) // 3), 2),
        (-(2**62 + 7), -3, (2**62 + 7) // 3, -2),
        (2**63 - 1, 2**62 + 1, 1, 2**62 - 2),
        (-(2**63), 7, -(2**63 // 7), -(2**63 % 7)),
        # The one overflowing quotient wraps like the hardware's.
        (-(2**63), -1, -(2**63), 0),
    ])
    def test_div_mod_exact(self, dividend, divisor, quot, rem):
        from repro.cpu.machine import to_signed

        cpu, _ = make_cpu(
            [
                A.mov(R0, dividend),
                A.mov(R1, divisor),
                A.movr(R2, R0),
                A.div(R2, R1),
                A.movr(R3, R0),
                A.mod(R3, R1),
                A.halt(),
            ]
        )
        cpu.run()
        assert to_signed(cpu.machine.reg(R2)) == quot
        assert to_signed(cpu.machine.reg(R3)) == rem

    def test_divide_by_zero_faults(self):
        cpu, _ = make_cpu([A.mov(R0, 1), A.mov(R1, 0), A.div(R0, R1)])
        with pytest.raises(CPUFault):
            cpu.run()

    def test_shifts_and_logic(self):
        cpu, _ = make_cpu(
            [
                A.mov(R0, 0b1100),
                A.mov(R1, 2),
                A.movr(R2, R0),
                A.shl(R2, R1),
                A.movr(R3, R0),
                A.shr(R3, R1),
                A.halt(),
            ]
        )
        cpu.run()
        assert cpu.machine.reg(R2) == 0b110000
        assert cpu.machine.reg(R3) == 0b11

    def test_wraparound(self):
        cpu, _ = make_cpu([A.mov(R0, 2**64 - 1), A.addi(R0, 1), A.halt()])
        cpu.run()
        assert cpu.machine.reg(R0) == 0


class TestControlFlow:
    def test_loop_counts(self):
        cpu, _ = make_cpu(
            [
                A.mov(R0, 0),
                Label("loop"),
                A.addi(R0, 1),
                A.cmpi(R0, 10),
                A.jcc(Cond.LT, "loop"),
                A.halt(),
            ]
        )
        cpu.run()
        assert cpu.machine.reg(R0) == 10

    def test_call_ret(self):
        cpu, _ = make_cpu(
            [
                A.mov(R1, 20),
                A.call("double"),
                A.halt(),
                Label("double"),
                A.movr(R0, R1),
                A.add(R0, R1),
                A.ret(),
            ]
        )
        cpu.run()
        assert cpu.machine.reg(R0) == 40

    def test_indirect_call_via_lea(self):
        cpu, _ = make_cpu(
            [
                A.lea(R2, "fn"),
                A.callr(R2),
                A.halt(),
                Label("fn"),
                A.mov(R0, 99),
                A.ret(),
            ]
        )
        cpu.run()
        assert cpu.machine.reg(R0) == 99

    def test_events_match_table3(self):
        events = []
        cpu, _ = make_cpu(
            [
                A.mov(R0, 1),
                A.cmpi(R0, 1),
                A.jcc(Cond.EQ, "next"),  # taken cond
                Label("next"),
                A.jmp("go"),  # direct jmp
                Label("go"),
                A.lea(R2, "fn"),
                A.callr(R2),  # indirect call
                A.halt(),
                Label("fn"),
                A.ret(),  # ret
            ]
        )
        cpu.add_listener(events.append)
        cpu.run()
        kinds = [e.kind for e in events]
        assert kinds == [
            CoFIKind.COND_BRANCH,
            CoFIKind.DIRECT_JMP,
            CoFIKind.INDIRECT_CALL,
            CoFIKind.RET,
        ]
        assert events[0].taken is True

    def test_not_taken_branch_event(self):
        events = []
        cpu, _ = make_cpu(
            [
                A.mov(R0, 1),
                A.cmpi(R0, 2),
                A.jcc(Cond.EQ, "skip"),
                Label("skip"),
                A.halt(),
            ]
        )
        cpu.add_listener(events.append)
        cpu.run()
        assert events[0].kind is CoFIKind.COND_BRANCH
        assert events[0].taken is False

    def test_steps_exhausted(self):
        cpu, _ = make_cpu([Label("spin"), A.jmp("spin")])
        assert cpu.run(max_steps=100) is HaltReason.STEPS_EXHAUSTED

    def test_syscall_handler_and_far_event(self):
        calls = []

        def handler(machine):
            calls.append(machine.reg(R0))

        events = []
        cpu, _ = make_cpu([A.mov(R0, 42), A.syscall(), A.halt()], handler)
        cpu.add_listener(events.append)
        cpu.run()
        assert calls == [42]
        assert events[0].kind is CoFIKind.FAR_TRANSFER

    def test_fetch_from_nonexec_faults(self):
        cpu, _ = make_cpu([A.mov(R2, 0x100), A.jmpr(R2)])
        with pytest.raises(CPUFault):
            cpu.run()


class TestStack:
    def test_push_pop(self):
        cpu, _ = make_cpu(
            [A.mov(R0, 7), A.push(R0), A.mov(R0, 0), A.pop(R1), A.halt()]
        )
        cpu.run()
        assert cpu.machine.reg(R1) == 7

    def test_return_address_lives_on_stack(self):
        """The property ROP depends on: ret target is attacker-writable."""
        cpu, symbols = make_cpu(
            [
                A.call("fn"),
                A.halt(),
                Label("fn"),
                # Overwrite our own return address with &target.
                A.lea(R2, "target"),
                A.store(SP, 0, R2),
                A.ret(),
                A.mov(R0, 1),
                A.halt(),
                Label("target"),
                A.mov(R0, 1337),
                A.halt(),
            ]
        )
        events = []
        cpu.add_listener(events.append)
        cpu.run()
        assert cpu.machine.reg(R0) == 1337
        ret_event = next(e for e in events if e.kind is CoFIKind.RET)
        assert ret_event.dst == symbols["target"]

    def test_frame_discipline(self):
        cpu, _ = make_cpu(
            [
                A.call("fn"),
                A.halt(),
                Label("fn"),
                A.push(FP),
                A.movr(FP, SP),
                A.subi(SP, 32),
                A.mov(R0, 5),
                A.store(FP, -8, R0),
                A.load(R1, FP, -8),
                A.movr(SP, FP),
                A.pop(FP),
                A.ret(),
            ]
        )
        cpu.run()
        assert cpu.machine.reg(R1) == 5


    @pytest.mark.parametrize("insn", [
        A.ret(), A.pop(R0), A.push(R0), A.call("fault"), A.callr(R0),
    ])
    def test_stack_fault_reports_faulting_instruction(self, insn):
        cpu, symbols = make_cpu(
            [A.mov(SP, 0x10), Label("fault"), insn, A.halt()]
        )
        with pytest.raises(CPUFault, match="stack") as info:
            cpu.run()
        assert info.value.ip == symbols["fault"] == CODE_BASE + 10
        assert str(info.value).endswith(f"(ip={CODE_BASE + 10:#x})")


class TestCycles:
    def test_cycles_accumulate(self):
        cpu, _ = make_cpu([A.mov(R0, 1), A.halt()])
        cpu.run()
        assert cpu.cycles >= 2
        assert cpu.insn_count == 2

    def test_icache_flush(self):
        """``flush_icache`` drops decoded instructions and the block
        map, and the next run compiles nothing stale."""
        items = [Label("top"), A.addi(R0, 1), A.cmpi(R0, 40),
                 A.jcc(Cond.LT, "top"), A.halt()]
        cpu, _ = make_cpu(items)
        cpu.machine.memory.attach_blocks(CODE_BASE, 0x1000, BlockStore())
        cpu.run()
        assert cpu._icache
        assert [ip for ip, block in cpu._blocks.items() if block] == [
            CODE_BASE
        ]
        cpu.flush_icache()
        assert not cpu._icache
        assert not cpu._blocks

    def test_listener_removal(self):
        events = []
        cpu, _ = make_cpu([A.jmp("x"), Label("x"), A.halt()])
        cpu.add_listener(events.append)
        cpu.remove_listener(events.append)
        cpu.run()
        assert events == []


