"""The module (ELF-analogue) image format."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpu.blocks import BlockStore


@dataclass(frozen=True)
class Symbol:
    """An exported symbol: a function entry or a data object.

    ``offset`` is section-relative: within ``code`` for functions, within
    ``data`` for objects.
    """

    name: str
    offset: int
    is_function: bool = True


@dataclass(frozen=True)
class Relocation:
    """An absolute 64-bit relocation in the data section.

    The loader writes the absolute address of ``symbol`` (plus
    ``addend``) at ``data_offset``.  ``symbol`` may be local or imported;
    this is how function-pointer tables (switch jump tables, handler
    vtables) get their code addresses.
    """

    data_offset: int
    symbol: str
    addend: int = 0


@dataclass
class Module:
    """A linkable binary image.

    Attributes:
        name: module soname, e.g. ``"nginx"`` or ``"libsim.so"``.
        code: the read-only executable section (includes PLT stubs).
        data: initialised writable data (includes the GOT).
        symbols: exported symbols by name.
        imports: names resolved at load time through the GOT.
        plt: import name -> PLT stub offset within ``code``.
        got: import name -> GOT slot offset within ``data``.
        relocations: absolute relocations into ``data``.
        needed: DT_NEEDED — dependency sonames in search order.
        entry: name of the entry-point function for executables.
        function_ranges: name -> (start, end) code offsets; the ground
            truth used by static analysis to bound disassembly and by
            tests to validate CFG recovery.
        blocks: the interpreter's compiled blocks of ``code``, shared by
            every address space the module is loaded into.
    """

    name: str
    code: bytes = b""
    data: bytes = b""
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)
    plt: Dict[str, int] = field(default_factory=dict)
    got: Dict[str, int] = field(default_factory=dict)
    relocations: List[Relocation] = field(default_factory=list)
    needed: List[str] = field(default_factory=list)
    entry: Optional[str] = None
    function_ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # All code labels (exported or not) at their code offsets; used to
    # resolve module-local relocation targets.
    local_symbols: Dict[str, int] = field(default_factory=dict)
    blocks: BlockStore = field(
        default_factory=BlockStore, compare=False, repr=False
    )

    @property
    def is_executable(self) -> bool:
        return self.entry is not None

