"""Every public top-level function and class in ``src/repro`` has traffic.

A name has traffic when live code references it.  Live code is every
file in ``perf/``, ``examples/``, ``benchmarks/`` and ``experiments/``,
the module-level code of ``src/repro``, and the body of any top-level
definition in ``src/repro`` whose name live code references.  A
reference is a name, an attribute name, or a name a ``from ... import``
binds.  None of these is traffic: a definition's references to itself,
the re-exporting imports of a package ``__init__.py`` and of
``repro/api.py``, and anything under ``tests/``.  Docstrings and
``__all__`` entries are strings, so they never count.

The scan matches by name, not by module, so it errs towards keeping
code: a name that is also a method or an attribute elsewhere passes.
``ALLOWED`` names the reference code that tests compare against or
build inputs with, and the one name CI reads, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("perf", "examples", "benchmarks", "experiments")

ALLOWED = {
    "encode_tnt": "TNT packet encoder; the encoder oracle and the scan "
                  "tests build traces with it",
    "encode_ip_packet": "TIP/FUP packet encoder; the encoder oracle and "
                        "the scan tests build traces with it",
    "unpack_tnt_sig": "inverse of the packed TNT signature; the packet "
                      "and search-index oracles compare against it",
    "generate_program": "random programs for the CPU, encoder, decoder "
                        "and slow-path differential suites",
    "verify_against_ground_truth": "ground-truth check the CFG "
                                   "discovery tests run",
    "build_error": "why the C scan kernel did not load; the CI "
                   "scan-parity job prints it",
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_statements(body):
    """A module's statements, with module-level ``if`` and ``try``
    blocks flattened into their branches."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_statements(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_statements(
                node.body + node.orelse + node.finalbody
                + [s for handler in node.handlers for s in handler.body]
            )
        else:
            yield node


def _referenced(node):
    """Every identifier ``node`` reads: names, attribute names, and the
    names a ``from ... import`` binds."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                yield alias.name


def unreferenced(root, allowed=()):
    """``(path, name)`` of every public top-level function and class
    under ``root/src/repro`` that no live code references.  ``allowed``
    names count as live, and so does what their bodies reference."""
    src = root / "src" / "repro"
    public = []
    bodies = {}  # definition name -> the names its bodies reference
    pending = list(allowed)  # names that live code references
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reexporter = path.name == "__init__.py" or path == src / "api.py"
        for stmt in _module_statements(tree.body):
            if isinstance(stmt, _DEFINITION):
                if not stmt.name.startswith("_"):
                    public.append((path.relative_to(root).as_posix(),
                                   stmt.name))
                bodies.setdefault(stmt.name, []).extend(
                    name for name in _referenced(stmt) if name != stmt.name
                )
            elif not (reexporter and isinstance(stmt, ast.ImportFrom)):
                pending += _referenced(stmt)
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            pending += _referenced(ast.parse(path.read_text(), str(path)))
    live = set()
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            pending += bodies.pop(name, ())
    return [(path, name) for path, name in public if name not in live]


def test_every_public_definition_has_traffic():
    found = [
        f"{path}: {name}" for path, name in unreferenced(ROOT, ALLOWED)
    ]
    assert not found, (
        "public code that only tests reach (delete it, or use it):\n"
        + "\n".join(found)
    )


def test_the_allowlist_names_only_unreferenced_code():
    """An allowed name that gains a caller leaves the list."""
    assert set(ALLOWED) <= {name for _, name in unreferenced(ROOT)}


def _write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_the_scan_sees_an_unreferenced_definition(tmp_path):
    """The rule's own edges: a re-export, a docstring mention, a test
    import and a self-reference are not traffic, and neither is a call
    from a definition that itself has none; a call from an example, from
    module-level code, or from a live definition is."""
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/api.py",
           "from repro.pkg.mod import reexported\n")
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "from repro.pkg.mod import reexported, Planted\n"
           "__all__ = ['reexported', 'Planted']\n")
    _write(tmp_path, "src/repro/pkg/mod.py",
           '"""Call :func:`mentioned` to ..."""\n'
           "def reexported():\n    return 1\n"
           "class Planted:\n"
           "    def again(self):\n        return Planted()\n"
           "def mentioned():\n    '''See :func:`reexported`.'''\n"
           "def tested():\n    return 2\n"
           "def island():\n    return helper()\n"
           "def helper():\n    return 3\n"
           "def example_only():\n    return live_helper()\n"
           "def live_helper():\n    return 4\n"
           "def at_import():\n    return 5\n"
           "TABLE = {'x': at_import}\n"
           "def _private():\n    return 6\n")
    _write(tmp_path, "tests/test_mod.py",
           "from repro.pkg.mod import tested\n"
           "def test_it():\n    assert tested() == 2\n")
    _write(tmp_path, "examples/demo.py",
           "import repro.pkg.mod as m\nm.example_only()\n")
    assert [name for _, name in unreferenced(tmp_path)] == [
        "reexported", "Planted", "mentioned", "tested", "island", "helper",
    ]
