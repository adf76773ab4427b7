"""Sparse paged memory with page protections and copy-on-write pages.

Pages are 4 KiB, so address spaces can place modules at realistic,
widely separated bases (executable low, shared libraries high) without
cost.  Protections model the paper's threat-model assumptions: code
pages are read-only+execute (W^X holds, DEP/NX is on), so control-flow
hijacking — not code injection — is the attack surface.

A :class:`Memory` keeps two tables, as Linux keeps a mapping's
protections apart from its page-table entries:

- the *mapping*: every mapped page's protection, as ``map_region``,
  ``map_demand_zero`` and ``protect`` set it.  Every rule reads this
  one: the ``MemoryError_`` checks, :meth:`Memory.writable`,
  ``code_epoch`` and the W+X rule of
  :meth:`repro.cpu.blocks.BlockStore.attest`;
- the *access table* (:meth:`Memory.tables`): the R/W/X bits the
  interpreter's fast path and compiled blocks may use without asking.
  A page another address space may hold (a loaded image's pages, both
  sides of a fork) is there without its WRITE bit, and a mapped page
  nobody has touched yet is not there at all.

So the fast path's existing test sends the first write to a shared page,
and the first touch of an untouched one, to this class's slow path,
which gives the address space its own copy (or a zero-filled page) and
the page's full bits.  Nothing is ever written to a shared page, so a
store in one process cannot show in another.  The kernel's copies in
and out of guest memory (:meth:`Memory.read`, :meth:`Memory.write`)
read the same access table: bytes that lie on one page whose bits allow
the access are sliced in place, and anything else takes the checked
path.
"""

from __future__ import annotations

import functools
import struct
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.cpu.blocks import BlockStore

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_OFFSET = PAGE_SIZE - 1

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

#: the longest string :meth:`Memory.read_cstring` reads
CSTRING_LIMIT = 4096


@functools.lru_cache(maxsize=64)
def _span(first: int, last: int, prot: int) -> Dict[int, int]:
    """Pages ``first``..``last`` mapped ``prot``, as a mapping table to
    merge (shared by the calls that map the same span, such as every
    process's stack; callers must not change it)."""
    return dict.fromkeys(range(first, last + 1), prot)


class MemoryError_(Exception):
    """Access violation: unmapped address or protection mismatch."""


class Memory:
    """A sparse, paged, protected flat address space."""

    def __init__(self) -> None:
        #: The pages that exist: touched, written by the loader, or
        #: taken shared from another address space.
        self._pages: Dict[int, bytearray] = {}
        #: The mapping: every mapped page's protection.
        self._prots: Dict[int, int] = {}
        #: The access table: per page in ``_pages``, its protection,
        #: without WRITE while the page is shared.
        self._access: Dict[int, int] = {}
        #: The pages in ``_pages`` another address space may hold; they
        #: are copied before their first write.
        self._shared: Set[int] = set()
        #: Bumped whenever executable code may have changed (an
        #: executable page re-mapped or re-protected), so decoders that
        #: cache disassembly know to drop it.
        self.code_epoch = 0
        #: Decoded-code stores by code page number: the loader files
        #: each module's code pages under the module's own store.
        self._block_stores: Dict[int, "BlockStore"] = {}

    # -- mapping ---------------------------------------------------------

    def map_demand_zero(
        self, base: int, size: int, prot: int = PROT_READ | PROT_WRITE
    ) -> None:
        """Map ``size`` bytes at ``base`` (rounded out to page bounds);
        a new page is zero-filled at its first touch.  A page that is
        already mapped keeps its bytes and takes ``prot``."""
        span = _span(base >> PAGE_SHIFT, (base + size - 1) >> PAGE_SHIFT, prot)
        prots = self._prots
        if prots.keys().isdisjoint(span):
            prots.update(span)
            return
        for pageno in span:
            old = prots.get(pageno)
            prots[pageno] = prot
            if old is not None:
                if old & PROT_EXEC:
                    self.code_epoch += 1
                self._grant(pageno)

    def map_region(
        self, base: int, size: int, prot: int = PROT_READ | PROT_WRITE
    ) -> None:
        """Map ``size`` bytes at ``base`` like :meth:`map_demand_zero`,
        with every page zero-filled now."""
        self.map_demand_zero(base, size, prot)
        for pageno in range(base >> PAGE_SHIFT,
                            ((base + size - 1) >> PAGE_SHIFT) + 1):
            if pageno not in self._pages:
                self._own(pageno)

    def protect(self, base: int, size: int, prot: int) -> None:
        """Change protection of mapped pages (the mprotect model)."""
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        prots = self._prots
        for pageno in range(first, last + 1):
            if pageno not in prots:
                raise MemoryError_(f"mprotect of unmapped page {pageno:#x}")
            if (prots[pageno] | prot) & PROT_EXEC:
                self.code_epoch += 1
            prots[pageno] = prot
            self._grant(pageno)

    def clone(self) -> "Memory":
        """A copy of the address space that shares its pages (the
        fork(2) model): from now on both sides copy a page before they
        first write it."""
        pages, access, shared = self._pages, self._access, self._shared
        if len(shared) != len(pages):
            shared.update(pages)
            for pageno, bits in access.items():
                if bits & PROT_WRITE:
                    access[pageno] = bits & ~PROT_WRITE
        other = Memory.__new__(Memory)
        other._pages = dict(pages)
        other._prots = dict(self._prots)
        other._access = dict(access)
        other._shared = set(shared)
        other.code_epoch = self.code_epoch
        other._block_stores = dict(self._block_stores)
        return other

    def _grant(self, pageno: int) -> None:
        """Set an existing page's access bits from its protection."""
        if pageno in self._pages:
            prot = self._prots[pageno]
            self._access[pageno] = (prot & ~PROT_WRITE
                                    if pageno in self._shared else prot)

    def _own(self, pageno: int) -> bytearray:
        """Page ``pageno``, which must be mapped, as this address
        space's own: a shared page is copied and a missing one
        zero-filled, and the page gets its full access bits."""
        page = self._pages.get(pageno)
        if page is None:
            page = bytearray(PAGE_SIZE)
        elif pageno in self._shared:
            self._shared.discard(pageno)
            page = bytearray(page)
        else:
            return page
        self._pages[pageno] = page
        self._access[pageno] = self._prots[pageno]
        return page

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

    def protection(self, pageno: int) -> int:
        """Page ``pageno``'s protection in the mapping (0: unmapped)."""
        return self._prots.get(pageno, 0)

    def page_bytes(self, pageno: int) -> Optional[bytearray]:
        """Page ``pageno``'s bytes, to read and not to write (a
        shared page is returned as it is); a mapped page nobody has
        touched is zero-filled first.  None when it is unmapped."""
        page = self._pages.get(pageno)
        if page is None and pageno in self._prots:
            page = self._own(pageno)
        return page

    def writable(self, addr: int, size: int) -> bool:
        """Whether any page of the ``size`` bytes at ``addr`` is mapped
        with ``PROT_WRITE``."""
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        return any(self._prots.get(pageno, 0) & PROT_WRITE
                   for pageno in range(first, last + 1))

    def tables(self) -> Tuple[Dict[int, bytearray], Dict[int, int]]:
        """The live page dict and access table, keyed by page number.

        The interpreter's one-page fast path reads them directly: a
        page whose access bits allow the access may be read or written
        in place; anything else goes through the checked methods below.
        Both dicts live as long as this memory, which adds and replaces
        their entries as pages are touched and copied; holders must not
        change them.
        """
        return self._pages, self._access

    # -- raw access (loader-level, ignores protections) -------------------

    def write_raw(self, addr: int, data: bytes) -> None:
        """Loader-level write that bypasses protections."""
        pos = 0
        while pos < len(data):
            pageno = (addr + pos) >> PAGE_SHIFT
            offset = (addr + pos) & (PAGE_SIZE - 1)
            page = self._pages.get(pageno)
            if page is None or pageno in self._shared:
                if pageno not in self._prots:
                    raise MemoryError_(f"write to unmapped {addr + pos:#x}")
                page = self._own(pageno)
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
            page = self.page_bytes(pageno)
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
        offset = addr & _OFFSET
        if (offset + size <= PAGE_SIZE
                and self._access.get(addr >> PAGE_SHIFT, 0) & PROT_READ):
            return bytes(self._pages[addr >> PAGE_SHIFT][offset:offset + size])
        self._check(addr, size, PROT_READ, "read")
        return self.read_raw(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        offset = addr & _OFFSET
        end = offset + len(data)
        if (end <= PAGE_SIZE
                and self._access.get(addr >> PAGE_SHIFT, 0) & PROT_WRITE):
            self._pages[addr >> PAGE_SHIFT][offset:end] = data
            return
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

    def read_cstring(self, addr: int) -> bytes:
        """Read a NUL-terminated byte string (for syscall arguments):
        at most :data:`CSTRING_LIMIT` bytes, without the NUL.  Each page
        is checked at the first byte read from it and searched for the
        NUL in one ``find``."""
        out = b""
        end = addr + CSTRING_LIMIT
        while addr < end:
            self._check(addr, 1, PROT_READ, "read")
            page = self.page_bytes(addr >> PAGE_SHIFT)
            offset = addr & (PAGE_SIZE - 1)
            stop = min(PAGE_SIZE, offset + end - addr)
            nul = page.find(0, offset, stop)
            if nul >= 0:
                return out + page[offset:nul]
            out += page[offset:stop]
            addr += stop - offset
        return out
