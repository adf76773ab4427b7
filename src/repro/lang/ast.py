"""AST node definitions for the mini language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union


class Expr:
    """Base class for expressions (evaluate to a 64-bit value)."""


class Stmt:
    """Base class for statements."""


# -- expressions -----------------------------------------------------------


@dataclass
class Const(Expr):
    """Integer literal."""

    value: int


@dataclass
class Var(Expr):
    """Read a scalar local variable or parameter."""

    name: str


@dataclass
class AddrOf(Expr):
    """Address of a local variable or array (``&buf``)."""

    name: str


@dataclass
class Global(Expr):
    """Address of a module data object (``&global``)."""

    name: str


@dataclass
class FuncRef(Expr):
    """Address of a function (address-taken function pointer)."""

    name: str


@dataclass
class BinOp(Expr):
    """Arithmetic/logical binary operation.

    ``op`` is one of ``+ - * / % & | ^ << >>``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass
class Load(Expr):
    """Memory read: ``*(addr + offset)`` (64-bit, or byte if ``byte``)."""

    addr: Expr
    offset: int = 0
    byte: bool = False


@dataclass
class Call(Expr):
    """Direct call by function name (local or imported)."""

    name: str
    args: Sequence[Expr] = ()


@dataclass
class CallPtr(Expr):
    """Indirect call through a function-pointer expression."""

    target: Expr
    args: Sequence[Expr] = ()


@dataclass
class SyscallExpr(Expr):
    """Invoke a syscall; evaluates to its return value."""

    number: int
    args: Sequence[Expr] = ()


# -- conditions --------------------------------------------------------------


@dataclass
class Rel(Expr):
    """Relational comparison used by If/While.

    ``op`` is one of ``== != < <= > >=``.  As an expression it evaluates
    to 0/1; in condition position it compiles to a bare compare+branch.
    """

    op: str
    left: Expr
    right: Expr


# -- statements ----------------------------------------------------------------


@dataclass
class Let(Stmt):
    """Declare (and initialise) a scalar local."""

    name: str
    value: Expr


@dataclass
class LocalArray(Stmt):
    """Declare a fixed-size byte array in the stack frame.

    Arrays are placed *below* the saved FP/return address, growing
    toward them — the classic stack-smashing layout.
    """

    name: str
    size: int


@dataclass
class Assign(Stmt):
    """Assign to an existing scalar local."""

    name: str
    value: Expr


@dataclass
class Store(Stmt):
    """Memory write: ``*(addr + offset) = value``."""

    addr: Expr
    value: Expr
    offset: int = 0
    byte: bool = False


@dataclass
class If(Stmt):
    cond: Expr
    then: Sequence[Stmt]
    orelse: Sequence[Stmt] = ()


@dataclass
class While(Stmt):
    cond: Expr
    body: Sequence[Stmt]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Switch(Stmt):
    """Dense switch: compiles to an indirect jump through a jump table."""

    selector: Expr
    cases: Dict[int, Sequence[Stmt]]
    default: Sequence[Stmt] = ()


@dataclass
class ExprStmt(Stmt):
    """Evaluate an expression for its side effects."""

    expr: Expr


@dataclass
class Asm(Stmt):
    """Escape hatch: raw assembler items spliced into the body."""

    items: Sequence[object]


# Statements accept bare expressions for convenience.
StmtLike = Union[Stmt, Expr]


def as_stmt(node: StmtLike) -> Stmt:
    return ExprStmt(node) if isinstance(node, Expr) else node


@dataclass
class Func:
    """A function definition."""

    name: str
    params: Sequence[str]
    body: Sequence[StmtLike]
    export: bool = True

    def statements(self) -> List[Stmt]:
        return [as_stmt(node) for node in self.body]
