"""Module builder: functions + data + imports -> a linkable Module.

The builder is the static-linker half of the toolchain.  It:

- concatenates function bodies into the code section and records their
  ranges,
- synthesises one PLT stub per imported symbol (an IP-relative GOT load
  followed by an *indirect jump* — the inter-module junction the paper's
  CFG construction keys on),
- lays the GOT and user data in the data section,
- resolves code references to data symbols (the module is loaded
  contiguously, so code→data displacements are link-time constants), and
- records absolute relocations for function-pointer tables.

Register convention: ``r15`` is the linker scratch register clobbered by
PLT stubs; compiled code never holds live values in it across calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.binary.module import Module, Relocation, Symbol
from repro.isa.assembler import A, Item, assemble
from repro.isa.encoding import instruction_length
from repro.isa.instructions import Insn, Label

_PAGE = 4096
_GOT_SLOT = 8
_PLT_SCRATCH = 15  # r15


def _align(value: int) -> int:
    return (value + _PAGE - 1) // _PAGE * _PAGE


class LinkError(Exception):
    """Raised on malformed module composition."""


class ModuleBuilder:
    """Accumulates functions, data and imports; emits a Module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._functions: List[tuple] = []  # (name, items, exported)
        self._data_items: List[tuple] = []  # (name, bytes, exported)
        self._imports: List[str] = []
        self._needed: List[str] = []
        self._relocations: List[tuple] = []  # (data_label, index, symbol)
        self._entry: Optional[str] = None

    # -- composition -------------------------------------------------------

    def add_function(
        self, name: str, items: Sequence[Item], export: bool = True
    ) -> "ModuleBuilder":
        """Add a function whose body is the given instruction stream."""
        if any(name == f[0] for f in self._functions):
            raise LinkError(f"{self.name}: duplicate function {name!r}")
        self._functions.append((name, list(items), export))
        return self

    def add_data(
        self, name: str, payload: bytes, export: bool = False
    ) -> "ModuleBuilder":
        """Add an initialised data object."""
        if any(name == d[0] for d in self._data_items):
            raise LinkError(f"{self.name}: duplicate data {name!r}")
        self._data_items.append((name, bytes(payload), export))
        return self

    def add_zeros(self, name: str, size: int, export: bool = False
                  ) -> "ModuleBuilder":
        """Add a zero-initialised data object (BSS-like)."""
        return self.add_data(name, b"\x00" * size, export)

    def add_pointer_table(
        self, name: str, function_names: Iterable[str], export: bool = False
    ) -> "ModuleBuilder":
        """Add a table of absolute function pointers (jump/handler table).

        Each entry is filled by the loader through a relocation, exactly
        like switch jump tables and vtables in real binaries.
        """
        names = list(function_names)
        self.add_data(name, b"\x00" * (8 * len(names)), export)
        for index, fname in enumerate(names):
            self._relocations.append((name, index, fname))
        return self

    def import_symbol(self, name: str) -> "ModuleBuilder":
        """Declare an imported function, reached via a PLT stub."""
        if name not in self._imports:
            self._imports.append(name)
        return self

    def add_needed(self, soname: str) -> "ModuleBuilder":
        """Append a DT_NEEDED dependency."""
        if soname not in self._needed:
            self._needed.append(soname)
        return self

    def set_entry(self, name: str) -> "ModuleBuilder":
        self._entry = name
        return self

    # -- layout ------------------------------------------------------------

    @staticmethod
    def _stream_size(items: Sequence[Item]) -> int:
        return sum(
            instruction_length(item.op)
            for item in items
            if isinstance(item, Insn)
        )

    @staticmethod
    def _plt_stub(got_label: str) -> List[Item]:
        return [
            A.lea(_PLT_SCRATCH, got_label),
            A.load(_PLT_SCRATCH, _PLT_SCRATCH, 0),
            A.jmpr(_PLT_SCRATCH),
        ]

    def build(self) -> Module:
        """Link everything into a Module image."""
        # Assemble the full code stream: functions, then PLT stubs.
        stream: List[Item] = []
        function_ranges: Dict[str, tuple] = {}
        pos = 0
        for fname, items, _ in self._functions:
            stream.append(Label(fname))
            size = self._stream_size(items)
            function_ranges[fname] = (pos, pos + size)
            stream.extend(items)
            pos += size

        plt_offsets: Dict[str, int] = {}
        for imp in self._imports:
            stub = self._plt_stub(f"__got.{imp}")
            plt_offsets[imp] = pos
            stream.append(Label(f"__plt.{imp}"))
            stream.extend(stub)
            pos += self._stream_size(stub)
        code_size = pos

        # Data layout: GOT slots first, then user data objects.
        data_link_base = _align(code_size)
        got_offsets: Dict[str, int] = {}
        data_offset = 0
        for imp in self._imports:
            got_offsets[imp] = data_offset
            data_offset += _GOT_SLOT
        data_symbol_offsets: Dict[str, int] = {}
        chunks: List[bytes] = [b"\x00" * data_offset]
        for dname, payload, _ in self._data_items:
            data_symbol_offsets[dname] = data_offset
            chunks.append(payload)
            data_offset += len(payload)
        data = b"".join(chunks)

        # Labels visible to code: PLT stubs under the *import name* (so
        # `call foo` links to foo's PLT stub, compiler stays linkage
        # agnostic), GOT slots, and data objects at their link addresses.
        extra_labels: Dict[str, int] = {}
        for imp in self._imports:
            extra_labels[imp] = plt_offsets[imp]
            extra_labels[f"__got.{imp}"] = data_link_base + got_offsets[imp]
        for dname, off in data_symbol_offsets.items():
            extra_labels[dname] = data_link_base + off

        code, symbols = assemble(stream, extra_labels=extra_labels)
        if len(code) != code_size:
            raise LinkError("layout size mismatch")  # pragma: no cover

        module = Module(name=self.name)
        module.code = code
        module.data = data
        module.imports = list(self._imports)
        module.plt = plt_offsets
        module.got = got_offsets
        module.needed = list(self._needed)
        module.function_ranges = function_ranges
        module.local_symbols = dict(symbols)
        for fname, _, exported in self._functions:
            if exported:
                module.symbols[fname] = Symbol(fname, symbols[fname], True)
        for dname, _, exported in self._data_items:
            if exported:
                module.symbols[dname] = Symbol(
                    dname, data_symbol_offsets[dname], False
                )
        for dlabel, index, target in self._relocations:
            module.relocations.append(
                Relocation(data_symbol_offsets[dlabel] + 8 * index, target)
            )
        if self._entry is not None:
            if self._entry not in function_ranges:
                raise LinkError(
                    f"{self.name}: entry {self._entry!r} is not a function"
                )
            module.entry = self._entry
        return module
