"""A minimal in-memory filesystem for the kernel model."""

from __future__ import annotations

from typing import Dict


class FileSystem:
    """Flat path -> bytes store with just enough POSIX semantics."""

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}

    def exists(self, path: str) -> bool:
        return path in self._files

    def create(self, path: str, contents: bytes = b"") -> None:
        self._files[path] = bytearray(contents)

    def truncate(self, path: str) -> None:
        self._files[path] = bytearray()

    def unlink(self, path: str) -> bool:
        """Remove a file; returns False if it did not exist."""
        return self._files.pop(path, None) is not None

    def read_at(self, path: str, offset: int, size: int) -> bytes:
        data = self._files[path]
        return bytes(data[offset : offset + size])

    def write_at(self, path: str, offset: int, data: bytes) -> int:
        buf = self._files[path]
        if offset > len(buf):
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset : offset + len(data)] = data
        return len(data)

    def contents(self, path: str) -> bytes:
        """Whole-file read (test/driver convenience)."""
        return bytes(self._files[path])
