"""No function body in ``src/repro`` is written twice.

Two functions (top-level, methods or nested, at any depth) are the
same when their arguments and their bodies are structurally identical:
equal ASTs, with line and column positions and a leading docstring
ignored.  Bodies of fewer than :data:`MIN_NODES` AST nodes are too
small to merge usefully (a one-line property, a delegating wrapper) and
are not compared.  A group of identical bodies should become one
definition.
"""

import ast
from pathlib import Path
from textwrap import indent

ROOT = Path(__file__).resolve().parents[1]
MIN_NODES = 12

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _body(fn):
    """``fn``'s statements without a leading docstring."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def duplicate_bodies(root):
    """Groups of ``path:line name`` whose functions are the same, each
    group sorted, the groups in order of their first member."""
    seen = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, _FUNCTION):
                continue
            body = _body(fn)
            size = sum(1 for stmt in body for _ in ast.walk(stmt))
            if size < MIN_NODES:
                continue
            key = ast.dump(fn.args) + "".join(map(ast.dump, body))
            where = f"{path.relative_to(root).as_posix()}:{fn.lineno}"
            seen.setdefault(key, []).append(f"{where} {fn.name}")
    return sorted(sorted(group) for group in seen.values() if len(group) > 1)


def test_no_body_is_written_twice():
    groups = duplicate_bodies(ROOT)
    assert not groups, (
        "functions with the same arguments and body (merge each group "
        "into one definition):\n"
        + "\n".join(", ".join(group) for group in groups)
    )


def test_the_scan_sees_a_planted_pair(tmp_path):
    """Two copies of one body under other names and docstrings, one a
    method, are a group; a copy with one argument renamed, a copy with
    one constant changed and a pair of small bodies are not."""
    body = ("total = 0\n"
            "for item in items:\n"
            "    if item > limit:\n"
            "        total += item * 2\n"
            "return total\n")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "def planted(items, limit):\n    'One.'\n"
        + indent(body, "    ")
        + "def renamed(items, bound):\n"
        + indent(body.replace("limit", "bound"), "    ")
        + "def small(x):\n    return x + 1\n"
    )
    (package / "b.py").write_text(
        "class Owner:\n"
        "    def again(items, limit):\n        'Two.'\n"
        + indent(body, "        ")
        + "def changed(items, limit):\n"
        + indent(body.replace("* 2", "* 3"), "    ")
        + "def tiny(x):\n    return x + 1\n"
    )
    assert duplicate_bodies(tmp_path) == [
        ["src/repro/a.py:1 planted", "src/repro/b.py:2 again"],
    ]
