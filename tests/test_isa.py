"""Unit tests for the ISA: encoding, assembly, disassembly."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    A,
    AssemblyError,
    Cond,
    DecodeError,
    Insn,
    Label,
    Op,
    asm,
    decode_at,
    disassemble_range,
    encode,
    format_insn,
    instruction_length,
)
from repro.cpu.executor import COND_TAKEN
from repro.isa.instructions import OPERAND_LAYOUT
from repro.isa.registers import NUM_REGS, R0, R1, SP, register_name
from tests.cpu_reference import cond_holds


class TestEncoding:
    def test_roundtrip_simple(self):
        insn = Insn(Op.MOV_RI, rd=3, imm=0xDEADBEEF)
        raw = encode(insn)
        decoded, length = decode_at(raw, 0)
        assert length == len(raw)
        assert decoded.op is Op.MOV_RI
        assert decoded.rd == 3
        assert decoded.imm == 0xDEADBEEF

    def test_negative_immediates(self):
        insn = Insn(Op.ADDI, rd=1, imm=-100)
        decoded, _ = decode_at(encode(insn), 0)
        assert decoded.imm == -100

    def test_negative_displacement(self):
        insn = Insn(Op.LOAD, rd=2, rb=SP, off=-64)
        decoded, _ = decode_at(encode(insn), 0)
        assert decoded.off == -64

    def test_invalid_opcode(self):
        with pytest.raises(DecodeError):
            decode_at(b"\xff\x00\x00", 0)

    def test_truncated(self):
        raw = encode(Insn(Op.MOV_RI, rd=0, imm=7))
        with pytest.raises(DecodeError):
            decode_at(raw[:-1], 0)

    def test_bad_register_rejected(self):
        raw = bytes([int(Op.PUSH), 200])
        with pytest.raises(DecodeError):
            decode_at(raw, 0)

    def test_bad_condition_rejected(self):
        raw = bytes([int(Op.JCC), 99, 0, 0, 0, 0])
        with pytest.raises(DecodeError):
            decode_at(raw, 0)

    def test_offset_beyond_end(self):
        with pytest.raises(DecodeError):
            decode_at(b"", 0)

    def test_lengths_match_encoding(self):
        for op in Op:
            insn = Insn(op)
            assert len(encode(insn)) == instruction_length(op)

    def test_register_operand_range_checked_on_encode(self):
        with pytest.raises(ValueError):
            encode(Insn(Op.PUSH, rs=-1))

    @given(
        op=st.sampled_from(sorted(Op, key=int)),
        rd=st.integers(0, NUM_REGS - 1),
        rs=st.integers(0, NUM_REGS - 1),
        rb=st.integers(0, NUM_REGS - 1),
        imm=st.integers(-(2**31), 2**31 - 1),
        off=st.integers(-(2**31), 2**31 - 1),
        rel=st.integers(-(2**31), 2**31 - 1),
        cc=st.integers(0, 5),
    )
    def test_roundtrip_property(self, op, rd, rs, rb, imm, off, rel, cc):
        insn = Insn(op, rd=rd, rs=rs, rb=rb, imm=imm, off=off, rel=rel, cc=cc)
        raw = encode(insn)
        decoded, length = decode_at(raw, 0)
        assert length == len(raw)
        assert decoded.op is op
        for field in OPERAND_LAYOUT[op]:
            attr = {"imm32": "imm", "imm64": "imm", "off32": "off",
                    "rel32": "rel"}.get(field, field)
            assert getattr(decoded, attr) == getattr(insn, attr)


class TestAssembler:
    def test_forward_and_backward_labels(self):
        code, symbols = asm(
            [
                Label("start"),
                A.mov(R0, 0),
                Label("loop"),
                A.addi(R0, 1),
                A.cmpi(R0, 5),
                A.jcc(Cond.LT, "loop"),
                A.jmp("end"),
                A.nop(),
                Label("end"),
                A.halt(),
            ]
        )
        assert symbols["start"] == 0
        insns = [(off, i) for off, i, _ in disassemble_range(code)]
        jcc = next(i for _, i in insns if i.op is Op.JCC)
        assert jcc.rel < 0  # backward
        jmp = next(i for _, i in insns if i.op is Op.JMP)
        assert jmp.rel > 0  # forward, skipping the nop

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            asm([Label("x"), Label("x")])

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            asm([A.jmp("nowhere")])

    def test_label_on_non_branch_rejected(self):
        with pytest.raises(AssemblyError):
            asm([Label("x"), Insn(Op.ADD, label="x")])

    def test_base_shifts_symbols(self):
        _, symbols = asm([A.nop(), Label("x"), A.halt()], base=0x1000)
        assert symbols["x"] == 0x1001

    def test_lea_resolves_label(self):
        code, symbols = asm([A.lea(R1, "target"), A.halt(), Label("target")])
        insn, length = decode_at(code, 0)
        assert length + insn.rel + 0 == symbols["target"]


class TestDisassembler:
    def test_linear_sweep_covers_everything(self):
        items = [A.mov(R0, 1), A.push(R0), A.pop(R1), A.ret()]
        code, _ = asm(items)
        decoded = list(disassemble_range(code))
        assert [i.op for _, i, _ in decoded] == [
            Op.MOV_RI,
            Op.PUSH,
            Op.POP,
            Op.RET,
        ]
        assert sum(length for _, _, length in decoded) == len(code)

    def test_format_insn(self):
        assert format_insn(Insn(Op.MOV_RR, rd=1, rs=2)) == "mov_rr r1, r2"
        assert "sp" in format_insn(Insn(Op.PUSH, rs=SP))
        text = format_insn(Insn(Op.JCC, cc=int(Cond.NE), rel=10), ip=0)
        assert "ne" in text

    def test_register_names(self):
        assert register_name(SP) == "sp"
        assert register_name(0) == "r0"
        with pytest.raises(ValueError):
            register_name(99)


class TestCond:
    @pytest.mark.parametrize(
        "cond,zf,sf,expected",
        [
            (Cond.EQ, True, False, True),
            (Cond.EQ, False, False, False),
            (Cond.NE, False, True, True),
            (Cond.LT, False, True, True),
            (Cond.LT, True, False, False),
            (Cond.LE, True, False, True),
            (Cond.GT, False, False, True),
            (Cond.GT, True, False, False),
            (Cond.GE, False, False, True),
            (Cond.GE, False, True, False),
        ],
    )
    def test_truth_table(self, cond, zf, sf, expected):
        # The interpreter's table, indexed by its flags word, and the
        # oracle's per-condition tests agree with the truth table.
        assert COND_TAKEN[cond][2 * zf + sf] is expected
        assert cond_holds(cond, zf, sf) is expected
