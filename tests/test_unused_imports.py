"""No module in ``src/repro`` imports a name it never uses.

The repository runs no linter, so this AST scan stands in for one on a
single rule: every name a module binds with a module-level ``import``
or ``from ... import`` (including under a module-level ``if`` or
``try``) must be read somewhere in that module — as a name, the head of
an attribute chain, or inside a string annotation.  Package
``__init__.py`` files re-export by importing, ``from __future__``
imports are directives, and a name listed in the module's ``__all__`` is
an export, so all three are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree):
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse
        elif isinstance(node, ast.Try):
            stack += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                stack += handler.body


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {
                    n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
                }
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(path):
    """``(line, name)`` of every module-level import ``path`` never
    reads."""
    tree = ast.parse(path.read_text(), str(path))
    keep = _used_names(tree) | _exported(tree)
    found = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in keep:
                found.append((node.lineno, name))
    return sorted(found)


def test_no_unused_module_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    """The rule's own edges: a bare unused import is caught; a string
    annotation, an attribute chain and ``__all__`` count as uses, and
    ``__future__`` is exempt."""
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import List, Optional, Tuple\n"
        "from dataclasses import field\n"
        "__all__ = ['field']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.path.sep]\n"
    )
    assert unused_imports(module) == [(3, "json"), (4, "Tuple")]
