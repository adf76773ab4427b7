"""Sparse paged memory with page protections.

Pages are 4 KiB and materialised lazily, so address spaces can place
modules at realistic, widely separated bases (executable low, shared
libraries high) without cost.  Protections model the paper's threat-model
assumptions: code pages are read-only+execute (W^X holds, DEP/NX is on),
so control-flow hijacking — not code injection — is the attack surface.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.cpu.blocks import BlockStore

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4


class MemoryError_(Exception):
    """Access violation: unmapped address or protection mismatch."""


class Memory:
    """A sparse, paged, protected flat address space."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._prots: Dict[int, int] = {}
        #: Bumped whenever executable code may have changed (an
        #: executable page re-mapped or re-protected), so decoders that
        #: cache disassembly know to drop it.
        self.code_epoch = 0
        #: Decoded-code stores by code page number: the loader files
        #: each module's code pages under the module's own store.
        self._block_stores: Dict[int, "BlockStore"] = {}

    # -- mapping ---------------------------------------------------------

    def map_region(
        self, base: int, size: int, prot: int = PROT_READ | PROT_WRITE
    ) -> None:
        """Map ``size`` bytes at ``base`` (rounded out to page bounds)."""
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for pageno in range(first, last + 1):
            if pageno not in self._pages:
                self._pages[pageno] = bytearray(PAGE_SIZE)
            elif self._prots[pageno] & PROT_EXEC:
                self.code_epoch += 1
            self._prots[pageno] = prot

    def protect(self, base: int, size: int, prot: int) -> None:
        """Change protection of mapped pages (the mprotect model)."""
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for pageno in range(first, last + 1):
            if pageno not in self._pages:
                raise MemoryError_(f"mprotect of unmapped page {pageno:#x}")
            if (self._prots[pageno] | prot) & PROT_EXEC:
                self.code_epoch += 1
            self._prots[pageno] = prot

    def clone(self) -> "Memory":
        """Deep-copy the address space (the fork(2) model)."""
        other = Memory()
        other._pages = {
            pageno: bytearray(page) for pageno, page in self._pages.items()
        }
        other._prots = dict(self._prots)
        other.code_epoch = self.code_epoch
        other._block_stores = dict(self._block_stores)
        return other

    def attach_blocks(self, base: int, size: int, store: "BlockStore") -> None:
        """File the code pages of ``size`` bytes at ``base`` under
        ``store``, where the code decoded there is kept."""
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for pageno in range(first, last + 1):
            self._block_stores[pageno] = store

    def block_store(self, addr: int) -> Optional["BlockStore"]:
        """The store for code at ``addr``, if its page has one."""
        return self._block_stores.get(addr >> PAGE_SHIFT)

    def writable(self, addr: int, size: int) -> bool:
        """Whether any page of the ``size`` bytes at ``addr`` is mapped
        with ``PROT_WRITE``."""
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        return any(self._prots.get(pageno, 0) & PROT_WRITE
                   for pageno in range(first, last + 1))

    def tables(self) -> Tuple[Dict[int, bytearray], Dict[int, int]]:
        """The live page and protection dicts, keyed by page number.

        The interpreter's one-page fast path reads them directly.  Both
        dicts live as long as this memory; holders may write page bytes
        but must not add or remove entries.
        """
        return self._pages, self._prots

    # -- raw access (loader-level, ignores protections) -------------------

    def write_raw(self, addr: int, data: bytes) -> None:
        """Loader-level write that bypasses protections."""
        pos = 0
        while pos < len(data):
            pageno = (addr + pos) >> PAGE_SHIFT
            offset = (addr + pos) & (PAGE_SIZE - 1)
            page = self._pages.get(pageno)
            if page is None:
                raise MemoryError_(f"write to unmapped {addr + pos:#x}")
            chunk = min(len(data) - pos, PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read_raw(self, addr: int, size: int) -> bytes:
        """Loader/debugger-level read that bypasses protections."""
        out = bytearray()
        pos = 0
        while pos < size:
            pageno = (addr + pos) >> PAGE_SHIFT
            offset = (addr + pos) & (PAGE_SIZE - 1)
            page = self._pages.get(pageno)
            if page is None:
                raise MemoryError_(f"read of unmapped {addr + pos:#x}")
            chunk = min(size - pos, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            pos += chunk
        return bytes(out)

    # -- checked access (CPU-level) ---------------------------------------

    def _check(self, addr: int, size: int, prot: int, what: str) -> None:
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for pageno in range(first, last + 1):
            have = self._prots.get(pageno)
            if have is None:
                raise MemoryError_(f"{what} of unmapped address {addr:#x}")
            if not have & prot:
                raise MemoryError_(
                    f"{what} protection violation at {addr:#x} "
                    f"(have {have:#x}, need {prot:#x})"
                )

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size, PROT_READ, "read")
        return self.read_raw(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data), PROT_WRITE, "write")
        self.write_raw(addr, data)

    def fetch(self, addr: int, size: int) -> bytes:
        self._check(addr, size, PROT_EXEC, "fetch")
        return self.read_raw(addr, size)

    # -- word helpers ------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF))

    def read_u8(self, addr: int) -> int:
        return self.read(addr, 1)[0]

    def write_u8(self, addr: int, value: int) -> None:
        self.write(addr, bytes([value & 0xFF]))

    def read_cstring(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (for syscall arguments):
        at most ``limit`` bytes, without the NUL.  Each page is checked
        at the first byte read from it and searched for the NUL in one
        ``find``."""
        out = b""
        end = addr + limit
        while addr < end:
            self._check(addr, 1, PROT_READ, "read")
            page = self._pages[addr >> PAGE_SHIFT]
            offset = addr & (PAGE_SIZE - 1)
            stop = min(PAGE_SIZE, offset + end - addr)
            nul = page.find(0, offset, stop)
            if nul >= 0:
                return out + page[offset:nul]
            out += page[offset:stop]
            addr += stop - offset
        return out
