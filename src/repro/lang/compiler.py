"""Compiler from the mini-language AST to ISA instruction streams.

Code generation model:

- conventional frames: ``push fp; mov fp, sp; sub sp, frame``; the return
  address sits at ``[fp+8]`` and the saved FP at ``[fp]``,
- locals are laid out downward from FP in declaration order, so a write
  past the end of a local array climbs over later-declared state, the
  saved FP and finally the return address — the C stack-smash layout,
- expressions evaluate into ``r6`` with partial results spilled to the
  stack (``r7`` is the secondary operand, ``r8`` the indirect-call
  scratch); ``r1``–``r5`` carry arguments,
- ``switch`` emits a bounds-checked indirect jump through a relocated
  in-data jump table, exactly like a C compiler.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.binary.builder import ModuleBuilder
from repro.binary.module import Module
from repro.isa.assembler import A, Item
from repro.isa.instructions import Insn, Label, Op
from repro.isa.registers import FP, R0, SP, Cond
from repro.lang import ast

_RESULT = 6  # r6
_SECOND = 7  # r7
_TARGET = 8  # r8
_MAX_ARGS = 5

_BINOPS = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "&": Op.AND,
    "|": Op.OR,
    "^": Op.XOR,
    "<<": Op.SHL,
    ">>": Op.SHR,
}

_RELOPS = {
    "==": Cond.EQ,
    "!=": Cond.NE,
    "<": Cond.LT,
    "<=": Cond.LE,
    ">": Cond.GT,
    ">=": Cond.GE,
}


class CompileError(Exception):
    """Semantic error in the mini-language source."""


class Program:
    """A compilation unit: functions + data, linked into a Module."""

    def __init__(self, name: str) -> None:
        self.builder = ModuleBuilder(name)
        self._labels = itertools.count()
        self._entry_func: Optional[str] = None

    # -- data / linkage passthrough ---------------------------------------

    def import_symbol(self, name: str) -> "Program":
        self.builder.import_symbol(name)
        return self

    def add_needed(self, soname: str) -> "Program":
        self.builder.add_needed(soname)
        return self

    def add_string(self, name: str, text: str) -> "Program":
        """Add a NUL-terminated string object."""
        self.builder.add_data(name, text.encode() + b"\x00")
        return self

    def add_data(self, name: str, payload: bytes, export: bool = False
                 ) -> "Program":
        self.builder.add_data(name, payload, export)
        return self

    def add_zeros(self, name: str, size: int, export: bool = False
                  ) -> "Program":
        self.builder.add_zeros(name, size, export)
        return self

    def add_pointer_table(
        self, name: str, functions: Sequence[str], export: bool = False
    ) -> "Program":
        self.builder.add_pointer_table(name, functions, export)
        return self

    def set_entry(self, name: str) -> "Program":
        """Mark the C-level entry function.

        ``build()`` synthesises a ``_start`` shim that calls it and
        issues ``exit(main())`` — the crt0 of this toolchain.
        """
        self._entry_func = name
        return self

    # -- compilation ---------------------------------------------------------

    def fresh_label(self, hint: str) -> str:
        return f"__L{next(self._labels)}.{hint}"

    def add_func(self, func: ast.Func) -> "Program":
        items = Compiler(self, func).compile()
        self.builder.add_function(func.name, items, export=func.export)
        return self

    def build(self) -> Module:
        if self._entry_func is not None:
            from repro.isa.registers import R1
            from repro.osmodel.syscalls import Sys

            self.builder.add_function(
                "_start",
                [
                    A.call(self._entry_func),
                    A.movr(R1, R0),
                    A.mov(R0, int(Sys.EXIT)),
                    A.syscall(),
                    # Bare-metal fallback (no kernel attached): restore the
                    # return value and stop.  Under a kernel the exit
                    # handler halts before these retire.
                    A.movr(R0, R1),
                    A.halt(),
                ],
            )
            self.builder.set_entry("_start")
        return self.builder.build()


class Compiler:
    """Compiles one function."""

    def __init__(self, program: Program, func: ast.Func) -> None:
        self.program = program
        self.func = func
        self.items: List[Item] = []
        self._locals: Dict[str, int] = {}
        self._arrays: Dict[str, Tuple[int, int]] = {}  # name -> (off, size)
        self._frame_size = 0
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break)
        self._epilogue = program.fresh_label(f"{func.name}.epi")

    # -- frame layout -----------------------------------------------------

    def _collect_locals(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Let):
                if stmt.name not in self._locals:
                    self._declare_scalar(stmt.name)
            elif isinstance(stmt, ast.LocalArray):
                self._declare_array(stmt.name, stmt.size)
            elif isinstance(stmt, ast.If):
                self._collect_locals([ast.as_stmt(s) for s in stmt.then])
                self._collect_locals([ast.as_stmt(s) for s in stmt.orelse])
            elif isinstance(stmt, ast.While):
                self._collect_locals([ast.as_stmt(s) for s in stmt.body])
            elif isinstance(stmt, ast.Switch):
                for body in stmt.cases.values():
                    self._collect_locals([ast.as_stmt(s) for s in body])
                self._collect_locals([ast.as_stmt(s) for s in stmt.default])

    def _declare_scalar(self, name: str) -> None:
        if name in self._locals or name in self._arrays:
            raise CompileError(
                f"{self.func.name}: duplicate local {name!r}"
            )
        self._frame_size += 8
        self._locals[name] = -self._frame_size

    def _declare_array(self, name: str, size: int) -> None:
        if name in self._locals or name in self._arrays:
            raise CompileError(
                f"{self.func.name}: duplicate local {name!r}"
            )
        aligned = (size + 7) // 8 * 8
        self._frame_size += aligned
        self._arrays[name] = (-self._frame_size, size)

    def _local_offset(self, name: str) -> int:
        off = self._locals.get(name)
        if off is None:
            if name in self._arrays:
                raise CompileError(
                    f"{self.func.name}: array {name!r} used as scalar"
                )
            raise CompileError(
                f"{self.func.name}: undeclared local {name!r}"
            )
        return off

    def _addr_offset(self, name: str) -> int:
        if name in self._arrays:
            return self._arrays[name][0]
        if name in self._locals:
            return self._locals[name]
        raise CompileError(f"{self.func.name}: undeclared local {name!r}")

    # -- top level -----------------------------------------------------------

    def compile(self) -> List[Item]:
        params = list(self.func.params)
        if len(params) > _MAX_ARGS:
            raise CompileError(
                f"{self.func.name}: more than {_MAX_ARGS} parameters"
            )
        for param in params:
            self._declare_scalar(param)
        body = self.func.statements()
        self._collect_locals(body)
        frame = (self._frame_size + 15) // 16 * 16

        emit = self.items.append
        emit(A.push(FP))
        emit(A.movr(FP, SP))
        if frame:
            emit(A.subi(SP, frame))
        for index, param in enumerate(params):
            emit(A.store(FP, self._locals[param], 1 + index))

        for stmt in body:
            self._stmt(stmt)

        # Implicit `return 0` for fall-off-the-end.
        emit(A.mov(R0, 0))
        emit(Label(self._epilogue))
        emit(A.movr(SP, FP))
        emit(A.pop(FP))
        emit(A.ret())
        return self.items

    # -- statements -------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        emit = self.items.append
        if isinstance(stmt, ast.Let) or isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            emit(A.store(FP, self._local_offset(stmt.name), _RESULT))
        elif isinstance(stmt, ast.LocalArray):
            pass  # space reserved in the prologue
        elif isinstance(stmt, ast.Store):
            self._expr(stmt.addr)
            emit(A.push(_RESULT))
            self._expr(stmt.value)
            emit(A.movr(_SECOND, _RESULT))
            emit(A.pop(_RESULT))
            if stmt.byte:
                emit(A.storeb(_RESULT, stmt.offset, _SECOND))
            else:
                emit(A.store(_RESULT, stmt.offset, _SECOND))
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
                emit(A.movr(R0, _RESULT))
            else:
                emit(A.mov(R0, 0))
            emit(A.jmp(self._epilogue))
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise CompileError(f"{self.func.name}: break outside loop")
            emit(A.jmp(self._loop_stack[-1][1]))
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise CompileError(
                    f"{self.func.name}: continue outside loop"
                )
            emit(A.jmp(self._loop_stack[-1][0]))
        elif isinstance(stmt, ast.Switch):
            self._switch(stmt)
        elif isinstance(stmt, ast.Asm):
            self.items.extend(stmt.items)  # type: ignore[arg-type]
        else:
            raise CompileError(f"unknown statement: {stmt!r}")

    def _if(self, stmt: ast.If) -> None:
        emit = self.items.append
        then_label = self.program.fresh_label("then")
        else_label = self.program.fresh_label("else")
        end_label = self.program.fresh_label("endif")
        self._branch_if_true(stmt.cond, then_label)
        emit(A.jmp(else_label))
        emit(Label(then_label))
        for s in stmt.then:
            self._stmt(ast.as_stmt(s))
        emit(A.jmp(end_label))
        emit(Label(else_label))
        for s in stmt.orelse:
            self._stmt(ast.as_stmt(s))
        emit(Label(end_label))

    def _while(self, stmt: ast.While) -> None:
        emit = self.items.append
        cond_label = self.program.fresh_label("while")
        body_label = self.program.fresh_label("body")
        end_label = self.program.fresh_label("endwhile")
        emit(Label(cond_label))
        self._branch_if_true(stmt.cond, body_label)
        emit(A.jmp(end_label))
        emit(Label(body_label))
        self._loop_stack.append((cond_label, end_label))
        for s in stmt.body:
            self._stmt(ast.as_stmt(s))
        self._loop_stack.pop()
        emit(A.jmp(cond_label))
        emit(Label(end_label))

    def _switch(self, stmt: ast.Switch) -> None:
        emit = self.items.append
        keys = sorted(stmt.cases)
        if not keys:
            raise CompileError(f"{self.func.name}: empty switch")
        low, high = keys[0], keys[-1]
        span = high - low + 1
        if span > 4 * len(keys) + 8:
            raise CompileError(
                f"{self.func.name}: switch too sparse for a jump table"
            )
        default_label = self.program.fresh_label("swdefault")
        end_label = self.program.fresh_label("swend")
        case_labels = {
            key: self.program.fresh_label(f"case{key}") for key in keys
        }
        table_name = self.program.fresh_label("jumptable")
        entries = [
            case_labels.get(low + i, default_label) for i in range(span)
        ]
        self.program.add_pointer_table(table_name, entries)

        self._expr(stmt.selector)
        if low:
            emit(A.subi(_RESULT, low))
        emit(A.cmpi(_RESULT, 0))
        emit(A.jcc(Cond.LT, default_label))
        emit(A.cmpi(_RESULT, span))
        emit(A.jcc(Cond.GE, default_label))
        emit(A.muli(_RESULT, 8))
        emit(A.lea(_SECOND, table_name))
        emit(A.add(_SECOND, _RESULT))
        emit(A.load(_SECOND, _SECOND, 0))
        emit(A.jmpr(_SECOND))
        for key in keys:
            emit(Label(case_labels[key]))
            for s in stmt.cases[key]:
                self._stmt(ast.as_stmt(s))
            emit(A.jmp(end_label))
        emit(Label(default_label))
        for s in stmt.default:
            self._stmt(ast.as_stmt(s))
        emit(Label(end_label))

    # -- conditions -----------------------------------------------------------

    def _branch_if_true(self, cond: ast.Expr, target: str) -> None:
        emit = self.items.append
        if isinstance(cond, ast.Rel):
            self._expr(cond.left)
            emit(A.push(_RESULT))
            self._expr(cond.right)
            emit(A.movr(_SECOND, _RESULT))
            emit(A.pop(_RESULT))
            emit(A.cmp(_RESULT, _SECOND))
            emit(A.jcc(_RELOPS[cond.op], target))
        else:
            self._expr(cond)
            emit(A.cmpi(_RESULT, 0))
            emit(A.jcc(Cond.NE, target))

    # -- expressions ---------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> None:
        """Evaluate ``expr`` into r6."""
        emit = self.items.append
        if isinstance(expr, ast.Const):
            emit(A.mov(_RESULT, expr.value))
        elif isinstance(expr, ast.Var):
            emit(A.load(_RESULT, FP, self._local_offset(expr.name)))
        elif isinstance(expr, ast.AddrOf):
            emit(A.movr(_RESULT, FP))
            emit(A.addi(_RESULT, self._addr_offset(expr.name)))
        elif isinstance(expr, ast.Global):
            emit(A.lea(_RESULT, expr.name))
        elif isinstance(expr, ast.FuncRef):
            emit(A.lea(_RESULT, expr.name))
        elif isinstance(expr, ast.BinOp):
            op = _BINOPS.get(expr.op)
            if op is None:
                raise CompileError(f"unknown operator {expr.op!r}")
            self._expr(expr.left)
            emit(A.push(_RESULT))
            self._expr(expr.right)
            emit(A.movr(_SECOND, _RESULT))
            emit(A.pop(_RESULT))
            emit(Insn(op, rd=_RESULT, rs=_SECOND))
        elif isinstance(expr, ast.Load):
            self._expr(expr.addr)
            if expr.byte:
                emit(A.loadb(_RESULT, _RESULT, expr.offset))
            else:
                emit(A.load(_RESULT, _RESULT, expr.offset))
        elif isinstance(expr, ast.Rel):
            true_label = self.program.fresh_label("reltrue")
            self._expr(expr.left)
            emit(A.push(_RESULT))
            self._expr(expr.right)
            emit(A.movr(_SECOND, _RESULT))
            emit(A.pop(_RESULT))
            emit(A.cmp(_RESULT, _SECOND))
            emit(A.mov(_RESULT, 1))
            emit(A.jcc(_RELOPS[expr.op], true_label))
            emit(A.mov(_RESULT, 0))
            emit(Label(true_label))
        elif isinstance(expr, ast.Call):
            self._call_args(expr.args)
            emit(A.call(expr.name))
            emit(A.movr(_RESULT, R0))
        elif isinstance(expr, ast.CallPtr):
            self._expr(expr.target)
            emit(A.push(_RESULT))
            self._call_args(expr.args, extra_pop=_TARGET)
            emit(A.callr(_TARGET))
            emit(A.movr(_RESULT, R0))
        elif isinstance(expr, ast.SyscallExpr):
            self._call_args(expr.args)
            emit(A.mov(R0, expr.number))
            emit(A.syscall())
            emit(A.movr(_RESULT, R0))
        else:
            raise CompileError(f"unknown expression: {expr!r}")

    def _call_args(
        self, args: Sequence[ast.Expr], extra_pop: Optional[int] = None
    ) -> None:
        """Evaluate arguments onto the stack, then pop into r1..rN.

        When ``extra_pop`` is given, one more value (pushed *before* the
        arguments) is popped into that register afterwards — used for the
        indirect-call target.
        """
        emit = self.items.append
        if len(args) > _MAX_ARGS:
            raise CompileError(f"more than {_MAX_ARGS} arguments")
        for arg in args:
            self._expr(arg)
            emit(A.push(_RESULT))
        for index in reversed(range(len(args))):
            emit(A.pop(1 + index))
        if extra_pop is not None:
            emit(A.pop(extra_pop))
