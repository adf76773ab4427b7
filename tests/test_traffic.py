"""Every public function, class, method and property in ``src/repro``
has traffic, every defaulted parameter has a live caller that sets it,
and every keyword a live call passes has a parameter to land on.

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

The parameter rule: a defaulted parameter of a top-level function, or
of a method of a top-level class (``__init__`` included, other dunders
not), is live when a call in live code passes it, by position or by
keyword.  A call reaches every definition of the name it calls (a
class name reaches the class's ``__init__``, or its bases' when it has
none), after resolving module-level rebindings (``asm = assemble``) and
``from ... import ... as`` aliases; ``super().name(...)`` reaches the
enclosing class's bases, and ``cls(...)`` the enclosing class.  A call
of a name imported from outside ``repro``, or defined at the top of a
caller file, reaches nothing.  ``functools.partial(f, ...)`` calls
``f``.  A function reference handed with keywords to a ``**kwargs``
callee (``run_once(benchmark, fn, k=v)``), or to
``benchmark.pedantic(fn, kwargs={...})``, is a call of it with those
keywords.  A ``*args`` or ``**kwargs`` argument sets every parameter
from its position on, and a definition handed on as a value (an
argument, an element, an assigned or returned value) may be called
with anything, so all its parameters count as set.  Dataclass and
``JsonConfig`` fields are config, not parameters, and nested functions
are out of scope.  ``PARAMETERS_ALLOWED`` lists, each with its reason,
the parameters a test sets to substitute a fake.

The keyword rule: every keyword a live call passes (forwarded ones
included) must be accepted by some definition of the name it calls,
in ``src/repro`` or in the caller directories, or that definition must
take ``**kwargs``.  Calls that reach a generated ``__init__`` or a base
class from elsewhere, and attribute calls of a method name the builtin
types also define (``raw.decode(errors=...)``), are not checked.
"""

import ast
import functools
from collections import deque
from pathlib import Path
from typing import NamedTuple

import pytest

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
    "discover_functions": "function-boundary recovery the discovery "
                          "tests hold to the ground truth and build an "
                          "O-CFG from",
    "DiscoveredFunctions.as_function_ranges": "the recovered map as "
        "``Module.function_ranges``; see discover_functions",
}

#: parameters only tests set, as ``qual(param)``, each with its reason
PARAMETERS_ALLOWED = {
    "main(argv)": "tests/test_cli.py runs the CLI in process on a fake "
                  "argv; ``python -m repro`` reads sys.argv",
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


class _File(NamedTuple):
    path: str
    #: names its imports bind from outside ``repro``, and, outside
    #: ``src/repro``, its own top-level definitions: calls of these
    #: never reach ``src/repro``
    foreign: frozenset


class _Part(NamedTuple):
    """Code that runs when the name it is filed under is live."""

    node: ast.AST
    own: str  # the name its references to itself do not count for
    cls: str  # the top-level class it sits in, or ""
    file: _File


def _file(root, path, tree):
    outside = not path.is_relative_to(root / "src")
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] != "repro")
        elif isinstance(node, ast.ImportFrom) and not node.level and not (
                node.module or "").startswith("repro"):
            foreign.update(alias.asname or alias.name for alias in node.names)
    if outside:
        foreign.update(node.name for node in tree.body
                       if isinstance(node, _DEFINITION))
    return _File(path.relative_to(root).as_posix(), frozenset(foreign))


def _define(node, bodies, file):
    """File ``node``'s parts under the name that makes them live; return
    the qualified names of its public definitions.  A class's public
    methods are filed under their own names, everything else in the
    class (bases, decorators, attributes, private and dunder methods,
    nested classes) under the class's name."""
    names = [node.name] if _public(node.name) else []
    if isinstance(node, _FUNCTION):
        bodies.setdefault(node.name, []).append(
            _Part(node, node.name, "", file))
        return names
    own = bodies.setdefault(node.name, [])
    for part in node.bases + node.keywords + node.decorator_list:
        own.append(_Part(part, node.name, node.name, file))
    for stmt in node.body:
        if isinstance(stmt, _FUNCTION) and _public(stmt.name):
            bodies.setdefault(stmt.name, []).append(
                _Part(stmt, stmt.name, node.name, file))
            names.append(f"{node.name}.{stmt.name}")
        else:
            own.append(_Part(stmt, node.name, node.name, file))
    return names


class _Scan(NamedTuple):
    public: list  # (path, qualified name) of every public definition
    live: set     # the names live code references
    parts: list   # the live parts: module code, caller files, live bodies
    trees: list   # (path, tree) of every module under src/repro


def _scan(root, allowed=()):
    """Run the name rule's liveness closure.  ``allowed`` names count as
    live, and so does what their bodies reference."""
    src = root / "src" / "repro"
    public, parts, trees = [], [], []
    bodies = {}  # name -> the parts filed under it
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        file = _file(root, path, tree)
        trees.append((file.path, tree))
        reexporter = path.name == "__init__.py" or path == src / "api.py"
        for stmt in _module_statements(tree.body):
            if isinstance(stmt, _DEFINITION):
                public += [(file.path, name)
                           for name in _define(stmt, bodies, file)]
            elif not (reexporter and isinstance(stmt, ast.ImportFrom)):
                parts.append(_Part(stmt, "", "", file))
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            parts.append(_Part(tree, "", "", _file(root, path, tree)))
    live = set()
    pending = [name.rpartition(".")[2] for name in allowed]
    for part in parts:
        pending += (n for n in _referenced(part.node) if n != part.own)
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            for part in bodies.pop(name, ()):
                parts.append(part)
                pending += (n for n in _referenced(part.node)
                            if n != part.own)
    return _Scan(public, live, parts, trees)


def unreferenced(root, allowed=()):
    """``(path, name)`` of every public top-level function and class,
    and every public method and property of a top-level class, under
    ``root/src/repro`` that no live code references; methods read
    ``Class.method``.  ``allowed`` names count as live, and so does what
    their bodies reference."""
    scan = _scan(root, allowed)
    return [(path, name) for path, name in scan.public
            if name.rpartition(".")[2] not in scan.live]


# -- parameters and keywords ------------------------------------------

#: method names the builtin types define: a call ``x.decode(errors=)``
#: may reach ``bytes.decode``, so its keywords are not checked
_BUILTIN_METHODS = frozenset(
    name for kind in (str, bytes, bytearray, dict, list, set, int, float)
    for name in dir(kind)
)
_PROPERTY = frozenset(
    ("property", "setter", "getter", "deleter", "cached_property"))
#: where a reference hands its definition on as a value
_HANDED_ON = (ast.Call, ast.keyword, ast.Starred, ast.Dict, ast.List,
              ast.Tuple, ast.Set, ast.Assign, ast.AnnAssign, ast.Return,
              ast.Yield, ast.Lambda, ast.IfExp, ast.BoolOp, ast.NamedExpr)


def _decorators(node):
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
            for d in node.decorator_list}


def _positional(fn):
    return [a.arg for a in fn.args.posonlyargs + fn.args.args]


def _defaulted(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [a.arg for a in named]


def _accepts(fn, keyword):
    args = fn.args
    return args.kwarg is not None or keyword in {
        a.arg for a in args.args + args.kwonlyargs}


class _Def(NamedTuple):
    """A top-level function or a method of a top-level class."""

    path: str
    qual: str       # ``name`` or ``Class.name``
    node: ast.AST
    bound: int      # leading parameters a call through a bound name fills
    instance: bool  # an instance method: ``Class.name(obj, ...)`` fills self


class _Index:
    """Every definition a call can reach, by name."""

    def __init__(self, scan):
        self.defs = {}       # name -> [_Def]
        self.classes = {}    # name -> (base names, __init__ generated?)
        self.alias = {}      # name -> the definition name it stands for
        self.spread = {}     # name -> named params of its **kwargs defs
        self.elsewhere = {}  # name -> defs outside src/repro
        for path, tree in scan.trees:
            for stmt in _module_statements(tree.body):
                if isinstance(stmt, _FUNCTION):
                    self._add(_Def(path, stmt.name, stmt, 0, False))
                elif isinstance(stmt, ast.ClassDef):
                    self._add_class(path, stmt)
        known = set(self.defs) | set(self.classes)
        callers = [part.node for part in scan.parts
                   if isinstance(part.node, ast.Module)]
        for outside, tree in [(False, tree) for _, tree in scan.trees] + [
                (True, tree) for tree in callers]:
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    self.alias.update((a.asname, a.name) for a in node.names
                                      if a.asname and a.name in known)
                elif _alias(node, known):
                    self.alias[node.targets[0].id] = node.value.id
                elif isinstance(node, _FUNCTION):
                    if node.args.kwarg:
                        self.spread.setdefault(node.name, set()).update(
                            a.arg for a in node.args.args
                            + node.args.kwonlyargs)
                    if outside:
                        self.elsewhere.setdefault(node.name, []).append(node)
        #: definition names an alias stands for: ``asm = assemble``
        #: rebinds ``assemble`` rather than handing it on
        self.rebound = set(self.alias.values())

    def _add(self, definition):
        self.defs.setdefault(definition.node.name, []).append(definition)

    def _add_class(self, path, node):
        for stmt in node.body:
            if not isinstance(stmt, _FUNCTION):
                continue
            kinds = _decorators(stmt)
            if kinds & _PROPERTY:
                continue
            static = "staticmethod" in kinds
            self._add(_Def(path, f"{node.name}.{stmt.name}", stmt,
                           0 if static else 1,
                           not static and "classmethod" not in kinds))
        bases = [_name(base) for base in node.bases]
        generated = "dataclass" in _decorators(node) or any(
            base in ("NamedTuple", "JsonConfig") for base in bases)
        self.classes[node.name] = (bases, generated)

    def inherited(self, cls, name, seen=()):
        """The definitions of ``cls.name``: its own or its bases'.
        ``None`` stands for one outside ``src/repro``: a base from
        elsewhere, or a generated ``__init__``."""
        if cls not in self.classes or cls in seen:
            return [None]
        bases, generated = self.classes[cls]
        own = [d for d in self.defs.get(name, ())
               if d.qual == f"{cls}.{name}"]
        if own or (name == "__init__" and generated):
            return own or [None]
        return [d for base in bases
                for d in self.inherited(base, name, seen + (cls,))] or [None]

    def by_name(self, name, explicit=False):
        """``(definition, offset)`` for each definition a call of
        ``name`` may reach; a class reaches its ``__init__``.  The
        offset is the number of leading parameters the call does not
        fill with its positional arguments."""
        name = self.alias.get(name, name)
        found = [(d, 0 if explicit and d.instance else d.bound)
                 for d in self.defs.get(name, ())]
        if name in self.classes:
            found += [(d, 1) for d in self.inherited(name, "__init__")]
        return found

    def targets(self, func, part):
        """What a call of ``func`` inside ``part`` may reach."""
        if isinstance(func, ast.Name):
            if func.id in part.file.foreign:
                return []
            if func.id == "cls" and part.cls:
                return [(d, 1) for d in self.inherited(part.cls, "__init__")]
            return self.by_name(func.id)
        if not isinstance(func, ast.Attribute):
            return []
        head = func.value
        if (isinstance(head, ast.Call) and _name(head.func) == "super"
                and part.cls):
            return [(d, 1) for base in self.classes[part.cls][0]
                    for d in self.inherited(base, func.attr)]
        if isinstance(head, ast.Name) and head.id in part.file.foreign:
            return []
        return self.by_name(
            func.attr, isinstance(head, ast.Name) and head.id in self.classes)


def _name(node):
    """The bare name a name or attribute expression ends in."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _alias(node, known):
    """``asm = assemble``: a definition bound to another name."""
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name) and node.value.id in known)


class _Call(NamedTuple):
    where: str
    callee: str
    targets: list   # (_Def or None, offset)
    args: list
    keywords: list  # (keyword, or None for ``**``)


def _uses(index, part):
    """``(calls, handed)``: every call in ``part``, and the definition
    names it hands on as values (an argument, an element, an assigned
    or returned value) rather than calls: the code that receives one
    may call it with anything.  The calls include the ones ``part``
    forwards: the function ``functools.partial`` binds, and a function
    reference handed with keywords to a ``**kwargs`` callee
    (``run_once(benchmark, fn, k=v)``) or to
    ``benchmark.pedantic(fn, args=(...), kwargs={...})``."""
    calls, handed, consumed = [], [], set()
    queue = deque([(part.node, None)])
    while queue:  # breadth first: a call comes before its arguments
        node, parent = queue.popleft()
        queue.extend((child, node) for child in ast.iter_child_nodes(node))
        if isinstance(node, (ast.Name, ast.Attribute)):
            if (isinstance(node.ctx, ast.Load) and id(node) not in consumed
                    and isinstance(parent, _HANDED_ON)
                    and not _alias(parent, index.rebound)):
                handed.append(_name(node))
            continue
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, list(node.args)
        keywords = {k.arg: k.value for k in node.keywords if k.arg}
        spread = [None] * (len(keywords) < len(node.keywords))
        if _name(func) == "partial" and args:
            consumed.add(id(func))
            func, args = args[0], args[1:]
        consumed.add(id(func))
        where = f"{part.file.path}:{node.lineno}"
        calls.append(_Call(where, _name(func), index.targets(func, part),
                           args, list(keywords) + spread))
        literal = keywords.get("kwargs")
        if _name(func) not in index.spread and not isinstance(
                literal, ast.Dict):
            continue
        for i, arg in enumerate(args):
            if not index.by_name(_name(arg) or ""):
                continue
            consumed.add(id(arg))
            if isinstance(literal, ast.Dict):
                given = keywords.get("args")
                args = given.elts if isinstance(given, ast.Tuple) else []
                keywords = [k.value if isinstance(k, ast.Constant) else None
                            for k in literal.keys]
            else:
                args = args[i + 1:]
                keywords = [k for k in list(keywords) + spread
                            if k not in index.spread[_name(func)]]
            calls.append(_Call(where, _name(arg), index.targets(arg, part),
                               args, keywords))
            break
    return calls, handed


def parameters(root, allowed_names=(), allowed=()):
    """``(dead, wrong)``.  ``dead`` is ``(path, "qual(param)")`` for
    every defaulted parameter of a top-level function or of a method of
    a top-level class under ``root/src/repro`` that no live call sets;
    ``allowed`` entries, named the same way, count as set.  ``wrong`` is
    ``"path:line: callee(keyword=)"`` for every keyword a live call
    passes that no same-named definition accepts.  Live code is the
    name rule's, with ``allowed_names`` live."""
    scan = _scan(root, allowed_names)
    index = _Index(scan)
    live, wrong = set(), []
    for part in scan.parts:
        calls, handed = _uses(index, part)
        for call in calls:
            for d, offset in call.targets:
                if d is None:
                    continue
                positional = _positional(d.node)[offset:]
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        live.update((d, p) for p in positional[i:])
                        break
                    live.update((d, p) for p in positional[i:i + 1])
                for keyword in call.keywords:
                    live.update((d, p) for p in _defaulted(d.node)
                                if keyword in (None, p))
            defs = [d and d.node for d, _ in call.targets]
            if (not defs or None in defs
                    or call.callee in _BUILTIN_METHODS):
                continue
            defs += index.elsewhere.get(call.callee, [])
            wrong += [f"{call.where}: {call.callee}({keyword}=)"
                      for keyword in call.keywords
                      if keyword and not any(_accepts(fn, keyword)
                                             for fn in defs)]
        for name in handed:
            for d, _ in index.by_name(name):
                if d is not None:
                    live.update((d, p) for p in _defaulted(d.node))
    dead = {
        (d.path, f"{d.qual}({p})")
        for defs in index.defs.values() for d in defs
        if not d.node.name.startswith("__") or d.node.name == "__init__"
        for p in _defaulted(d.node)
        if (d, p) not in live and f"{d.qual}({p})" not in allowed
    }
    return sorted(dead), wrong


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


@functools.lru_cache(maxsize=None)
def _repo_parameters():
    return parameters(ROOT, ALLOWED)


def test_every_defaulted_parameter_is_set_by_live_code():
    dead, _ = _repo_parameters()
    found = [f"{path}: {name}" for path, name in dead
             if name not in PARAMETERS_ALLOWED]
    assert not found, (
        "defaulted parameters no live call sets (make each a module "
        "constant, or inline it):\n" + "\n".join(found)
    )


def test_the_parameter_allowlist_names_only_unset_parameters():
    """An allowed parameter that gains a live caller leaves the list."""
    dead, _ = _repo_parameters()
    assert set(PARAMETERS_ALLOWED) <= {name for _, name in dead}


def test_every_live_keyword_is_accepted():
    _, wrong = _repo_parameters()
    assert not wrong, (
        "live calls pass keywords their callee does not take:\n"
        + "\n".join(wrong)
    )


def _parameter_fixture(root):
    """A package whose live callers set some parameters of each kind of
    definition and leave the rest."""
    _write(root, "src/repro/__init__.py", "")
    _write(root, "src/repro/mod.py",
           "from dataclasses import dataclass\n"
           "def assemble(items, base=0, extra=None):\n    return items\n"
           "asm = assemble\n"
           "def positional(a, b=1, c=2):\n    return a\n"
           "def keyword(a, b=1, c=2):\n    return a\n"
           "def bound(a, b=1, c=2):\n    return a\n"
           "def forwarded(a=1, b=2):\n    return a\n"
           "def timed(a=1, b=2):\n    return a\n"
           "def spread(a=1, b=2):\n    return a\n"
           "def tail(a, b=1, c=2):\n    return a\n"
           "def handed(a=1):\n    return a\n"
           "def tested(a=1):\n    return a\n"
           "def owner():\n"
           "    def render(sample, _every=1):\n        return sample\n"
           "    return render(1)\n"
           "@dataclass\n"
           "class Config:\n    size: int = 3\n"
           "class Base:\n"
           "    def __init__(self, kernel, endpoints=None, extra=None):\n"
           "        self.kernel = kernel\n"
           "class Child(Base):\n"
           "    def __init__(self, kernel, threshold=8):\n"
           "        super().__init__(kernel, None)\n"
           "    def method(self, x, y=1, z=2):\n        return x\n"
           "    @staticmethod\n"
           "    def static(x, y=1):\n        return x\n"
           "    def __repr__(self, short=True):\n        return ''\n"
           "class Leaf(Base):\n    pass\n")
    _write(root, "tests/test_mod.py",
           "from repro.mod import tested\n"
           "def test_it():\n    assert tested(a=5) == 5\n")


_RUN_ONCE = ("def run_once(benchmark, fn, *args, **kwargs):\n"
             "    return benchmark.pedantic(fn, args=args, kwargs=kwargs)\n")


def _set_by(root, caller, text):
    """The fixture's parameters that ``text``, written as ``caller``,
    sets: those dead without it and live with it."""
    _parameter_fixture(root)
    before = {name for _, name in parameters(root)[0]}
    _write(root, "benchmarks/conftest.py", _RUN_ONCE)
    _write(root, caller, "from repro import mod\n" + text)
    return before - {name for _, name in parameters(root)[0]}


@pytest.mark.parametrize("caller, text, live", [
    ("examples/demo.py", "mod.positional(0, 1)\n", {"positional(b)"}),
    ("examples/demo.py", "mod.keyword(0, c=3)\n", {"keyword(c)"}),
    ("examples/demo.py", "mod.Child(None).method(1, 2)\n",
     {"Child.method(y)", "Base.__init__(endpoints)"}),
    ("examples/demo.py", "mod.Child.static(1, 2)\n",
     {"Child.static(y)", "Base.__init__(endpoints)"}),
    ("examples/demo.py", "mod.asm([], base=4)\n", {"assemble(base)"}),
    ("examples/demo.py",
     "from repro.mod import keyword as kw\nkw(0, b=1)\n", {"keyword(b)"}),
    ("examples/demo.py", "mod.Child(None)\n", {"Base.__init__(endpoints)"}),
    ("examples/demo.py", "mod.Leaf(None, None, extra=1)\n",
     {"Base.__init__(endpoints)", "Base.__init__(extra)"}),
    ("examples/demo.py",
     "import functools\nfunctools.partial(mod.bound, 0, b=3)()\n",
     {"bound(b)"}),
    ("benchmarks/test_bench.py",
     "from conftest import run_once\n"
     "def test_it(benchmark):\n"
     "    run_once(benchmark, mod.forwarded, a=3)\n", {"forwarded(a)"}),
    ("benchmarks/test_bench.py",
     "def test_it(benchmark):\n"
     "    benchmark.pedantic(mod.timed, kwargs={'b': 3})\n", {"timed(b)"}),
    ("examples/demo.py", "rest = (1, 2)\nmod.tail(0, *rest)\n",
     {"tail(b)", "tail(c)"}),
    ("examples/demo.py", "opts = {}\nmod.spread(**opts)\n",
     {"spread(a)", "spread(b)"}),
    ("examples/demo.py", "TABLE = {'h': mod.handed}\n", {"handed(a)"}),
    ("tests/test_more.py", "def test_it():\n    mod.keyword(0, b=2)\n",
     set()),
], ids=[
    "positional", "keyword", "bound-method", "static-method", "alias",
    "import-as", "super-init", "inherited-init", "partial", "run-once",
    "pedantic", "star-args", "star-kwargs", "handed-on", "tests-only",
])
def test_the_scan_sees_each_way_a_call_sets_a_parameter(
        tmp_path, caller, text, live):
    """Each way a live call reaches a parameter, one at a time: by
    position (a bound method's ``self`` and a static method's first
    argument placed right), by keyword, through a module-level alias
    (``asm = assemble``) or an ``import ... as``, through
    ``super().__init__`` or a base's inherited ``__init__``, through
    ``functools.partial``, through a ``**kwargs`` callee handed the
    function (``run_once``) or ``pedantic``'s ``kwargs`` literal, and
    by ``*args``/``**kwargs`` or handing the function on, which set
    every parameter they can reach.  A test's call sets nothing."""
    assert _set_by(tmp_path, caller, text) == live


def test_the_scan_leaves_out_config_closures_and_dunders(tmp_path):
    """With no live caller every defaulted parameter is flagged, except
    a dataclass field, a nested function's capture default and a
    dunder other than ``__init__``; an allowed parameter is kept."""
    _parameter_fixture(tmp_path)
    dead = {name for _, name in parameters(tmp_path)[0]}
    assert dead == {
        "assemble(base)", "assemble(extra)", "positional(b)",
        "positional(c)", "keyword(b)", "keyword(c)", "bound(b)",
        "bound(c)", "forwarded(a)", "forwarded(b)", "timed(a)",
        "timed(b)", "spread(a)", "spread(b)", "tail(b)", "tail(c)",
        "handed(a)", "tested(a)", "Base.__init__(endpoints)",
        "Base.__init__(extra)", "Child.__init__(threshold)",
        "Child.method(y)", "Child.method(z)", "Child.static(y)",
    }
    allowed = {name for _, name in
               parameters(tmp_path, allowed=["tested(a)"])[0]}
    assert allowed == dead - {"tested(a)"}


def test_the_keyword_check_sees_unaccepted_keywords(tmp_path):
    """A keyword no definition of the callee takes is flagged, also
    when ``run_once`` or ``functools.partial`` forwards it; a
    ``**kwargs`` callee, a caller file's own definition, a module
    imported from outside ``repro``, a builtin method name and a
    generated ``__init__`` accept anything."""
    _parameter_fixture(tmp_path)
    _write(tmp_path, "src/repro/more.py",
           "def fixed():\n    return 1\n"
           "def dumps(obj):\n    return obj\n"
           "def open_ended(**kw):\n    return kw\n"
           "class Store:\n    def get(self, key):\n        return key\n")
    _write(tmp_path, "benchmarks/conftest.py", _RUN_ONCE)
    _write(tmp_path, "benchmarks/test_bench.py",
           "import functools\n"
           "import json\n"
           "from conftest import run_once\n"
           "from repro import more\n"
           "from repro.mod import Config, keyword\n"
           "def local(flag=False):\n    return flag\n"
           "def test_it(benchmark, store):\n"
           "    run_once(benchmark, more.fixed, sessions=5)\n"
           "    functools.partial(more.fixed, counts=3)\n"
           "    more.fixed(n=1)\n"
           "    keyword(0, b=2, d=4)\n"
           "    more.open_ended(anything=1)\n"
           "    local(flag=True)\n"
           "    json.dumps({}, indent=2)\n"
           "    store.get('k', default=None)\n"
           "    Config(size=4)\n")
    _, wrong = parameters(tmp_path)
    assert wrong == [
        "benchmarks/test_bench.py:9: fixed(sessions=)",
        "benchmarks/test_bench.py:10: fixed(counts=)",
        "benchmarks/test_bench.py:11: fixed(n=)",
        "benchmarks/test_bench.py:12: keyword(d=)",
    ]
