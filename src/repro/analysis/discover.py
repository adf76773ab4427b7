"""Function-boundary discovery from raw code bytes.

The paper's static analysis runs on stripped-ish COTS binaries through
Dyninst, which *discovers* function boundaries rather than trusting
compiler metadata.  This module reproduces that step: given only a
module's code bytes, exported symbols and relocations, it recovers the
function map that :mod:`repro.analysis.build` consumes.

Entry points come from three sources (exactly Dyninst's seeds):

1. exported function symbols,
2. direct ``call`` targets found by linear sweep,
3. address-taken code locations (``lea`` targets and data relocations).

Boundaries are the next entry point (the toolchain packs functions
contiguously, as linkers do); a verification sweep confirms each range
decodes cleanly.  ``verify_against_ground_truth`` lets tests check the
recovered map against the builder's recorded ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.binary.module import Module
from repro.isa.encoding import DecodeError, decode_at
from repro.isa.instructions import Op


@dataclass
class DiscoveredFunctions:
    """The recovered function map of one module."""

    #: sorted entry offset -> (end offset, name or synthetic label)
    ranges: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: entries that failed the decode sweep (data mistaken for code).
    rejected: List[int] = field(default_factory=list)

    def as_function_ranges(self) -> Dict[str, Tuple[int, int]]:
        return {
            name: (start, end)
            for start, (end, name) in self.ranges.items()
        }


def _linear_sweep_targets(code: bytes) -> Tuple[Set[int], Set[int]]:
    """(direct call targets, lea targets) from a whole-code sweep."""
    calls: Set[int] = set()
    leas: Set[int] = set()
    pos = 0
    while pos < len(code):
        try:
            insn, length = decode_at(code, pos)
        except DecodeError:
            pos += 1
            continue
        if insn.op is Op.CALL:
            target = pos + length + insn.rel
            if 0 <= target < len(code):
                calls.add(target)
        elif insn.op is Op.LEA:
            target = pos + length + insn.rel
            if 0 <= target < len(code):
                leas.add(target)
        pos += length
    return calls, leas


def _sweep_decodes(code: bytes, start: int, end: int) -> bool:
    pos = start
    while pos < end:
        try:
            _, length = decode_at(code, pos)
        except DecodeError:
            return False
        pos += length
    return pos == end


def discover_functions(module: Module) -> DiscoveredFunctions:
    """Recover function boundaries from the module image alone."""
    code = module.code
    named: Dict[int, str] = {}

    # Seed 1: exported function symbols.
    for sym in module.symbols.values():
        if sym.is_function:
            named[sym.offset] = sym.name
    # PLT stubs are exported linkage structure, not symbols.
    for import_name, offset in module.plt.items():
        named.setdefault(offset, f"{import_name}@plt")

    calls, leas = _linear_sweep_targets(code)
    entries: Set[int] = set(named)
    entries.update(calls)

    # Seed 3: address-taken code via relocations.  Relocation symbols
    # resolve through local_symbols; only offsets inside the code
    # section count (data-object relocations are not entries).
    reloc_offsets = set()
    for reloc in module.relocations:
        local = module.local_symbols.get(reloc.symbol)
        if local is not None and 0 <= local < len(code):
            reloc_offsets.add(local)
    # LEA targets and reloc targets are *potential* entries; keep only
    # those not inside an already-seeded function body (jump-table case
    # labels point mid-function and must not split it).
    candidate_entries = sorted(entries)

    def inside_existing(offset: int) -> bool:
        import bisect

        index = bisect.bisect_right(candidate_entries, offset) - 1
        if index < 0:
            return False
        return candidate_entries[index] != offset

    for taken in sorted(leas | reloc_offsets):
        if not inside_existing(taken):
            entries.add(taken)
            candidate_entries = sorted(entries)

    discovered = DiscoveredFunctions()
    ordered = sorted(entries)
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else len(code)
        if not _sweep_decodes(code, start, end):
            discovered.rejected.append(start)
            continue
        name = named.get(start, f"sub_{start:x}")
        discovered.ranges[start] = (end, name)
    return discovered


def verify_against_ground_truth(
    module: Module, discovered: DiscoveredFunctions
) -> List[str]:
    """Differences between recovery and the builder's recorded ranges.

    Returns human-readable discrepancy strings (empty = perfect match
    on entries; discovery may legitimately split a recorded function at
    an internal address-taken label, so containment — every recorded
    entry recovered with a consistent name — is what is verified).
    """
    problems: List[str] = []
    for name, (start, end) in module.function_ranges.items():
        entry = discovered.ranges.get(start)
        if entry is None:
            problems.append(f"missed function {name!r} at {start:#x}")
            continue
        got_end, got_name = entry
        if got_name != name and not got_name.startswith("sub_"):
            problems.append(
                f"{name!r} at {start:#x} recovered as {got_name!r}"
            )
        if got_end > end:
            problems.append(
                f"{name!r} range overruns: {got_end:#x} > {end:#x}"
            )
    return problems
