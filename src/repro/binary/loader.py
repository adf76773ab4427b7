"""Dynamic loader: layout, symbol resolution, GOT fill, relocations.

Reproduces the linking behaviour the paper's inter-module CFG
construction depends on (§4.1):

- modules connect only through PLT indirect jumps and the corresponding
  returns,
- global symbol interposition follows the DT_NEEDED search order (the
  first module providing a symbol wins),
- VDSO functions take precedence over library functions of the same
  name (the ``gettimeofday`` case).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.binary.builder import _align
from repro.binary.module import Module
from repro.cpu.memory import (
    Memory,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)

EXEC_BASE = 0x400000
LIB_BASE = 0x7F0000000000
LIB_STRIDE = 0x10000000
VDSO_BASE = 0x7FFFF7FF0000

_U64 = struct.Struct("<Q").pack


def _put_u64(memory: Memory, addr: int, value: int) -> None:
    """Write one little-endian word the way the loader writes sections:
    raw, with no per-word protection check."""
    memory.write_raw(addr, _U64(value & 0xFFFFFFFFFFFFFFFF))


class LinkResolutionError(Exception):
    """An import or relocation could not be resolved."""


@dataclass
class LoadedModule:
    """A module mapped at a base address."""

    module: Module
    base: int
    data_base: int
    end: int

    @property
    def name(self) -> str:
        return self.module.name

    @property
    def is_executable(self) -> bool:
        return self.module.is_executable

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def addr_of(self, symbol: str) -> int:
        """Absolute address of an exported symbol."""
        sym = self.module.symbols.get(symbol)
        if sym is None:
            raise KeyError(f"{self.name}: no symbol {symbol!r}")
        section = self.base if sym.is_function else self.data_base
        return section + sym.offset


@dataclass
class Image:
    """A loaded program: all modules mapped into one address space."""

    memory: Memory
    modules: List[LoadedModule] = field(default_factory=list)
    vdso: Optional[LoadedModule] = None
    #: Tables that are a function of the module map alone (the fast
    #: path's module-span ranges), built on first use.  Every image the
    #: loader makes of one module set, and every fork of one, shares
    #: the dict with its module list.
    derived: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def with_memory(self, memory: Memory) -> "Image":
        """The same modules over ``memory`` (fork, a new load)."""
        return Image(memory, self.modules, self.vdso, self.derived)

    @property
    def executable(self) -> LoadedModule:
        return self.modules[0]

    @property
    def entry_address(self) -> int:
        exe = self.executable
        if exe.module.entry is None:
            raise LinkResolutionError(f"{exe.name} has no entry point")
        return exe.addr_of(exe.module.entry)

    def module_of(self, addr: int) -> Optional[LoadedModule]:
        """The loaded module whose mapping contains ``addr``."""
        for lm in self.modules:
            if lm.contains(addr):
                return lm
        if self.vdso is not None and self.vdso.contains(addr):
            return self.vdso
        return None

    def by_name(self, name: str) -> LoadedModule:
        for lm in self.modules:
            if lm.name == name:
                return lm
        if self.vdso is not None and self.vdso.name == name:
            return self.vdso
        raise KeyError(f"module {name!r} not loaded")

    def all_modules(self) -> List[LoadedModule]:
        """All loaded modules including the VDSO."""
        out = list(self.modules)
        if self.vdso is not None:
            out.append(self.vdso)
        return out

    def addr_of(self, module_name: str, symbol: str) -> int:
        return self.by_name(module_name).addr_of(symbol)


class Loader:
    """Maps an executable and its dependency closure into memory."""

    def __init__(
        self,
        libraries: Optional[Dict[str, Module]] = None,
        vdso: Optional[Module] = None,
    ) -> None:
        self.libraries = dict(libraries or {})
        self.vdso_module = vdso

    # -- dependency resolution ----------------------------------------------

    def _dependency_order(self, exe: Module) -> List[Module]:
        """Breadth-first DT_NEEDED closure: the ELF search order."""
        order: List[Module] = []
        seen = set()
        queue = list(exe.needed)
        while queue:
            soname = queue.pop(0)
            if soname in seen:
                continue
            seen.add(soname)
            lib = self.libraries.get(soname)
            if lib is None:
                raise LinkResolutionError(
                    f"{exe.name}: needed library {soname!r} not found"
                )
            order.append(lib)
            queue.extend(lib.needed)
        return order

    # -- loading -------------------------------------------------------------

    def load(self, exe: Module) -> Image:
        """Map ``exe`` and its dependencies; resolve and relocate.

        The loader is deterministic (no ASLR), so the linked image is a
        function of its modules: it is built once per (executable,
        dependency order, vDSO) module set and kept on the executable
        (``Module.images``), keyed by the modules themselves, since every
        kernel registers a loader of its own.  Each load takes the
        image's pages shared (:meth:`Memory.clone`), so a process copies
        only the pages it writes.
        """
        libs = self._dependency_order(exe)
        vdso = self.vdso_module
        key = (tuple(map(id, libs)), id(vdso))
        cached = exe.images.get(key)
        if cached is None:
            # The entry holds the modules its key names, so no key is
            # reused by other modules while the entry lives.
            cached = exe.images[key] = (libs, vdso, self._link(exe, libs))
        linked = cached[2]
        return linked.with_memory(linked.memory.clone())

    def _link(self, exe: Module, libs: List[Module]) -> Image:
        """Map, resolve and relocate ``exe`` and ``libs`` (in load
        order) and the vDSO into a fresh memory."""
        memory = Memory()
        image = Image(memory=memory)
        placements = [(exe, EXEC_BASE)]
        for index, lib in enumerate(libs):
            placements.append((lib, LIB_BASE + index * LIB_STRIDE))

        for module, base in placements:
            image.modules.append(self._map_module(memory, module, base))
        if self.vdso_module is not None:
            image.vdso = self._map_module(memory, self.vdso_module, VDSO_BASE)

        for lm in image.all_modules():
            self._fill_got(image, lm)
            self._apply_relocations(image, lm)
        return image

    @staticmethod
    def _map_module(memory: Memory, module: Module, base: int) -> LoadedModule:
        code_size = _align(max(len(module.code), 1))
        data_size = _align(max(len(module.data), 1))
        data_base = base + code_size
        memory.map_region(base, code_size, PROT_READ | PROT_EXEC)
        memory.write_raw(base, module.code)
        memory.attach_blocks(base, code_size, module.blocks)
        memory.map_region(data_base, data_size, PROT_READ | PROT_WRITE)
        memory.write_raw(data_base, module.data)
        return LoadedModule(
            module=module,
            base=base,
            data_base=data_base,
            end=data_base + data_size,
        )

    # -- symbol resolution -----------------------------------------------------

    def _resolve(self, image: Image, requester: LoadedModule,
                 symbol: str) -> int:
        """Resolve ``symbol`` with interposition semantics.

        VDSO-provided functions win first (§4.1); then the executable and
        libraries are searched in load (DT_NEEDED breadth-first) order.
        The requesting module itself participates in the search at its
        normal position, so a library's own definition can be interposed
        by an earlier module — real ELF behaviour.
        """
        if image.vdso is not None and symbol in image.vdso.module.symbols:
            return image.vdso.addr_of(symbol)
        for lm in image.modules:
            if symbol in lm.module.symbols:
                return lm.addr_of(symbol)
        raise LinkResolutionError(
            f"{requester.name}: undefined symbol {symbol!r}"
        )

    def _fill_got(self, image: Image, lm: LoadedModule) -> None:
        for import_name, got_offset in lm.module.got.items():
            target = self._resolve(image, lm, import_name)
            _put_u64(image.memory, lm.data_base + got_offset, target)

    def _apply_relocations(self, image: Image, lm: LoadedModule) -> None:
        for reloc in lm.module.relocations:
            local = lm.module.local_symbols.get(reloc.symbol)
            if local is not None:
                target = lm.base + local
            else:
                target = self._resolve(image, lm, reloc.symbol)
            _put_u64(
                image.memory,
                lm.data_base + reloc.data_offset,
                target + reloc.addend,
            )
