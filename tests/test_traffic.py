"""Every public function, class, method and property in ``src/repro``
has traffic.

A name has traffic when live code references it.  Live code is every
file in ``perf/``, ``examples/``, ``benchmarks/`` and ``experiments/``,
the module-level code of ``src/repro``, the body of any top-level
function whose name live code references, and the body of any live
class except its public methods.  A public method or property is live
when live code references its name, and then its body is live too.  A
reference is a name, an attribute name, a name a ``from ... import``
binds, or a string literal passed to ``getattr`` or ``hasattr`` as the
attribute name (the executor looks up ``on_run`` and the config codec
``validate`` that way).  None of these is traffic: a definition's
references to itself, the re-exporting imports of a package
``__init__.py`` and of ``repro/api.py``, and anything under ``tests/``.
Docstrings and ``__all__`` entries are strings, so they never count.

The scan matches by name, not by module or class, so it errs towards
keeping code: a method name that is also a function, an attribute or
another class's method elsewhere passes.  ``ALLOWED`` names the
builder and reference code that tests use, and the one name CI reads,
each with its reason; a method is named ``Class.method``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("perf", "examples", "benchmarks", "experiments")

_CPU_SUITES = ("builds the opcode for the CPU differential and block "
               "suites; the compiler never emits it")

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
    "A.mul": _CPU_SUITES,
    "A.div": _CPU_SUITES,
    "A.mod": _CPU_SUITES,
    "A.and_": _CPU_SUITES,
    "A.or_": _CPU_SUITES,
    "A.xor": _CPU_SUITES,
    "A.shl": _CPU_SUITES,
    "A.shr": _CPU_SUITES,
    "A.andi": _CPU_SUITES,
    "FlowGuardPipeline.auto_deploy": "tests/test_autoprotect.py holds "
        "the fork and execve protection rules through it; Fig. 5b's "
        "exec-stop hook charges differently, so it cannot stand in",
    "FlowGuardMonitor.auto_protect": "what auto_deploy installs; see "
                                     "FlowGuardPipeline.auto_deploy",
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = _FUNCTION + (ast.ClassDef,)
_LOOKUPS = ("getattr", "hasattr")


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
    """Every identifier ``node`` reads: names, attribute names, the
    names a ``from ... import`` binds, and the attribute names given to
    ``getattr``/``hasattr`` as string literals."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                yield alias.name
        elif (isinstance(child, ast.Call)
              and isinstance(child.func, ast.Name)
              and child.func.id in _LOOKUPS and len(child.args) > 1
              and isinstance(child.args[1], ast.Constant)
              and isinstance(child.args[1].value, str)):
            yield child.args[1].value


def _public(name):
    return not name.startswith("_")


def _define(node, bodies):
    """File ``node``'s references under the name that makes them live;
    return the qualified names of its public definitions.  A class's
    public methods are filed under their own names, everything else in
    the class (bases, decorators, attributes, private and dunder
    methods, nested classes) under the class's name."""
    names = [node.name] if _public(node.name) else []
    if isinstance(node, _FUNCTION):
        bodies.setdefault(node.name, []).extend(
            name for name in _referenced(node) if name != node.name
        )
        return names
    own = bodies.setdefault(node.name, [])
    for part in node.bases + node.keywords + node.decorator_list:
        own.extend(name for name in _referenced(part) if name != node.name)
    for stmt in node.body:
        if isinstance(stmt, _FUNCTION) and _public(stmt.name):
            bodies.setdefault(stmt.name, []).extend(
                name for name in _referenced(stmt) if name != stmt.name
            )
            names.append(f"{node.name}.{stmt.name}")
        else:
            own.extend(
                name for name in _referenced(stmt) if name != node.name
            )
    return names


def unreferenced(root, allowed=()):
    """``(path, name)`` of every public top-level function and class,
    and every public method and property of a top-level class, under
    ``root/src/repro`` that no live code references; methods read
    ``Class.method``.  ``allowed`` names count as live, and so does what
    their bodies reference."""
    src = root / "src" / "repro"
    public = []
    bodies = {}  # name -> the names the bodies filed under it reference
    pending = [name.rpartition(".")[2] for name in allowed]
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reexporter = path.name == "__init__.py" or path == src / "api.py"
        for stmt in _module_statements(tree.body):
            if isinstance(stmt, _DEFINITION):
                public += [(path.relative_to(root).as_posix(), name)
                           for name in _define(stmt, bodies)]
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
    return [(path, name) for path, name in public
            if name.rpartition(".")[2] not in live]


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
           "    def _again(self):\n        return Planted()\n"
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


def test_the_scan_sees_unreferenced_methods(tmp_path):
    """Methods and properties need traffic of their own: a live class
    does not keep them.  A method reached only from tests, a property
    reached only from tests and a method reached only from a dead
    method are flagged; a method called as ``obj.name`` from live code,
    one looked up by a ``getattr`` or ``hasattr`` string, what a live
    method calls, and an allowed method are kept, and so are private
    and dunder methods and whatever a live class's ``__init__``
    reads."""
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/mod.py",
           "class Live:\n"
           "    def __init__(self):\n        self.x = self.from_init()\n"
           "    def from_init(self):\n        return 1\n"
           "    def _private(self):\n        return 2\n"
           "    def called(self):\n        return self.callee()\n"
           "    def callee(self):\n        return 3\n"
           "    def test_only(self):\n        return 4\n"
           "    @property\n"
           "    def test_only_view(self):\n        return 5\n"
           "    def dead(self):\n        return self.from_dead()\n"
           "    def from_dead(self):\n        return 6\n"
           "    def looked_up(self):\n        return 7\n"
           "    def probed(self):\n        return 8\n"
           "    @property\n"
           "    def shown(self):\n        return 9\n"
           "    def kept(self):\n        return 10\n"
           "    def recursive(self):\n        return self.recursive()\n"
           "def probe(obj):\n"
           "    return getattr(obj, 'looked_up', None), "
           "hasattr(obj, 'probed')\n")
    _write(tmp_path, "tests/test_mod.py",
           "from repro.mod import Live\n"
           "def test_it():\n"
           "    live = Live()\n"
           "    assert live.test_only() == 4 and live.test_only_view == 5\n"
           "    assert live.dead() == 6 and live.recursive()\n")
    _write(tmp_path, "examples/demo.py",
           "from repro.mod import Live, probe\n"
           "obj = Live()\nobj.called()\nprobe(obj)\nprint(obj.shown)\n")
    assert [name for _, name in unreferenced(tmp_path, ["Live.kept"])] == [
        "Live.test_only", "Live.test_only_view", "Live.dead",
        "Live.from_dead", "Live.recursive",
    ]
