"""Classic fuzzing mutation strategies.

A "balanced and well-researched variety of traditional fuzzing
strategies" (§4.3): deterministic bit/byte flips, arithmetic
increments, interesting-value substitution, and randomised havoc
stacking, plus corpus splicing.
"""

from __future__ import annotations

import random
from typing import Iterator

INTERESTING_8 = [0, 1, 16, 32, 64, 100, 127, 128, 255]
INTERESTING_16 = [0, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 65535]

HAVOC_STACK = 4
#: the havoc and splice stages' random seed
SEED = 0x5EED


class MutationEngine:
    """Deterministic first-pass mutators plus a havoc stage."""

    def __init__(self) -> None:
        self.rng = random.Random(SEED)

    # -- deterministic stages ------------------------------------------------

    @staticmethod
    def bitflips(data: bytes) -> Iterator[bytes]:
        for bit in range(min(len(data) * 8, 256)):
            out = bytearray(data)
            out[bit // 8] ^= 1 << (bit % 8)
            yield bytes(out)

    @staticmethod
    def byteflips(data: bytes) -> Iterator[bytes]:
        for index in range(min(len(data), 64)):
            out = bytearray(data)
            out[index] ^= 0xFF
            yield bytes(out)

    @staticmethod
    def arithmetic(data: bytes) -> Iterator[bytes]:
        for index in range(min(len(data), 32)):
            for delta in range(1, 9):
                for sign in (1, -1):
                    out = bytearray(data)
                    out[index] = (out[index] + sign * delta) & 0xFF
                    yield bytes(out)

    @staticmethod
    def interesting(data: bytes) -> Iterator[bytes]:
        for index in range(min(len(data), 32)):
            for value in INTERESTING_8:
                out = bytearray(data)
                out[index] = value
                yield bytes(out)

    # -- randomised stages -----------------------------------------------------

    def havoc(self, data: bytes, rounds: int = 32) -> Iterator[bytes]:
        for _ in range(rounds):
            out = bytearray(data) or bytearray(b"\x00")
            for _ in range(self.rng.randint(1, HAVOC_STACK)):
                choice = self.rng.randrange(6)
                index = self.rng.randrange(len(out))
                if choice == 0:
                    out[index] ^= 1 << self.rng.randrange(8)
                elif choice == 1:
                    out[index] = self.rng.choice(INTERESTING_8)
                elif choice == 2:
                    out[index] = (out[index] + self.rng.randint(-16, 16)) & 0xFF
                elif choice == 3 and len(out) < 512:
                    out.insert(index, self.rng.randrange(256))
                elif choice == 4 and len(out) > 1:
                    del out[index]
                else:
                    out[index] = self.rng.randrange(256)
            yield bytes(out)

    def splice(self, first: bytes, second: bytes) -> bytes:
        """Cross two corpus entries at random split points."""
        if not first or not second:
            return first or second
        cut_a = self.rng.randrange(len(first))
        cut_b = self.rng.randrange(len(second))
        return first[:cut_a] + second[cut_b:]

    # -- the full pipeline ---------------------------------------------------------

    def mutations(self, data: bytes, havoc_rounds: int = 32
                  ) -> Iterator[bytes]:
        """All stages for one queue entry, deterministic first."""
        if data:
            yield from self.bitflips(data)
            yield from self.byteflips(data)
            yield from self.arithmetic(data)
            yield from self.interesting(data)
        yield from self.havoc(data, rounds=havoc_rounds)
