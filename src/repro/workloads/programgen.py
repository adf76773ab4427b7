"""Random program generation for whole-stack property testing.

Generates deterministic (seeded) mini-language programs exercising the
full branch taxonomy — loops, nested conditionals, switches, direct and
indirect calls through pointer tables, recursion — so properties like
"every trace fully reconstructs" and "consecutive TIPs are ITC edges"
can be checked over a large space of program shapes rather than a few
hand-written fixtures.

All generated programs terminate: loops are bounded counters and
recursion carries an explicit depth argument.
"""

from __future__ import annotations

import random
from typing import List

from repro.binary.module import Module
from repro.lang import (
    Assign,
    BinOp,
    Call,
    CallPtr,
    Const,
    Func,
    Global,
    If,
    Let,
    Load,
    Program,
    Rel,
    Return,
    Switch,
    Var,
    While,
)

_OPS = ["+", "-", "*", "^", "&", "|"]
_RELS = ["==", "!=", "<", "<=", ">", ">="]
#: leaf functions, reached through one pointer table
LEAF_COUNT = 4
#: nesting depth of generated control flow
MAX_DEPTH = 3


class ProgramGenerator:
    """Seeded random generator of terminating programs."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._names = iter(f"v{i}" for i in range(10_000))

    # -- expressions -------------------------------------------------------

    def _value(self, scope: List[str]):
        roll = self.rng.random()
        if scope and roll < 0.5:
            return Var(self.rng.choice(scope))
        return Const(self.rng.randint(0, 255))

    def _expr(self, scope: List[str], depth: int = 0):
        if depth >= 2 or self.rng.random() < 0.4:
            return self._value(scope)
        op = self.rng.choice(_OPS)
        return BinOp(
            op, self._expr(scope, depth + 1), self._expr(scope, depth + 1)
        )

    def _cond(self, scope: List[str]):
        return Rel(
            self.rng.choice(_RELS), self._value(scope), self._value(scope)
        )

    # -- statements ----------------------------------------------------------

    def _block(self, scope: List[str], depth: int) -> List:
        statements: List = []
        for _ in range(self.rng.randint(1, 4)):
            statement = self._statement(scope, depth)
            if isinstance(statement, list):
                statements.extend(statement)
            else:
                statements.append(statement)
        return statements

    def _statement(self, scope: List[str], depth: int):
        choices = ["assign", "let"]
        if depth < MAX_DEPTH:
            choices += ["if", "loop", "switch"]
        choices += ["leaf_call", "indirect_call"]
        kind = self.rng.choice(choices)

        if kind == "let" or (kind == "assign" and not scope):
            name = next(self._names)
            scope.append(name)
            return Let(name, self._expr(scope))
        if kind == "assign":
            return Assign(self.rng.choice(scope), self._expr(scope))
        if kind == "if":
            orelse = (
                self._block(list(scope), depth + 1)
                if self.rng.random() < 0.5 else []
            )
            return If(self._cond(scope),
                      self._block(list(scope), depth + 1), orelse)
        if kind == "loop":
            counter = next(self._names)
            scope.append(counter)
            bound = self.rng.randint(1, 6)
            body = self._block(list(scope), depth + 1)
            body.append(Assign(counter,
                               BinOp("+", Var(counter), Const(1))))
            return [
                Let(counter, Const(0)),
                While(Rel("<", Var(counter), Const(bound)), body),
            ]
        if kind == "switch":
            selector = self._value(scope)
            cases = {
                key: self._block(list(scope), depth + 1)
                for key in range(self.rng.randint(2, 4))
            }
            return Switch(BinOp("&", selector, Const(3)), cases,
                          default=self._block(list(scope), depth + 1))
        if kind == "leaf_call":
            index = self.rng.randrange(LEAF_COUNT)
            return Let(next(self._names),
                       Call(f"leaf{index}", [self._value(scope)]))
        # indirect call through the pointer table.
        index_expr = BinOp("&", self._value(scope),
                           Const(LEAF_COUNT - 1))
        return Let(
            next(self._names),
            CallPtr(
                Load(BinOp("+", Global("leaves"),
                           BinOp("*", index_expr, Const(8)))),
                [self._value(scope)],
            ),
        )

    # -- whole programs ---------------------------------------------------------

    def generate(self) -> Module:
        prog = Program("generated")
        prog.add_needed("libsim.so")
        prog.import_symbol("exit")
        # Leaf functions: simple arithmetic, one recursive.
        for index in range(LEAF_COUNT):
            op = self.rng.choice(_OPS)
            prog.add_func(
                Func(
                    f"leaf{index}",
                    ["x"],
                    [Return(BinOp("&",
                                  BinOp(op, Var("x"),
                                        Const(self.rng.randint(1, 9))),
                                  Const(0xFFFF)))],
                )
            )
        prog.add_func(
            Func(
                "rec",
                ["n"],
                [
                    If(Rel("<=", Var("n"), Const(0)),
                       [Return(Const(1))]),
                    Return(BinOp("+", Var("n"),
                                 Call("rec",
                                      [BinOp("-", Var("n"), Const(1))]))),
                ],
            )
        )
        prog.add_pointer_table(
            "leaves", [f"leaf{i}" for i in range(LEAF_COUNT)]
        )
        scope: List[str] = []
        body = [Let("seed", Const(self.rng.randint(0, 99)))]
        scope.append("seed")
        body.extend(self._block(scope, 0))
        body.append(
            Let(next(self._names),
                Call("rec", [Const(self.rng.randint(1, 5))]))
        )
        body.append(Return(BinOp("&", self._value(scope), Const(0xFF))))
        prog.add_func(Func("main", [], body))
        prog.set_entry("main")
        return prog.build()


def generate_program(seed: int) -> Module:
    """Convenience wrapper: one seeded random program."""
    return ProgramGenerator(seed).generate()
