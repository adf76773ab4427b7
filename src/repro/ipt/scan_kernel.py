"""Build + load the optional C columnar-scan kernel.

``_scan_kernel.c`` is an exact C mirror of the pure-Python columnar
scan; this module owns the lifecycle around it:

- compile on first use with whatever host compiler is on ``PATH``
  (``cc``/``gcc``/``clang``), into a per-user temp directory keyed by a
  hash of the source so stale binaries never survive a source change,
- load it through :mod:`ctypes` with the fixed five-argument
  ``ipt_scan`` signature (``argtypes`` declared, so the call converts no
  argument by guesswork),
- degrade cleanly: any build/load failure is recorded (see
  :func:`build_error`) and the engine falls back to the pure-Python
  scan with bit-identical results.

Nothing here is imported at interpreter start beyond stdlib; the
compile happens at most once per source hash per machine, and the
attempt happens at most once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_scan_kernel.c")

_lib: Optional[ctypes.CDLL] = None
_attempted = False
_error: Optional[str] = None


def _build() -> ctypes.CDLL:
    with open(_SOURCE_PATH, "rb") as fh:
        source = fh.read()
    digest = hashlib.blake2b(source, digest_size=8).hexdigest()
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-scan-kernel-{uid}"
    )
    so_path = os.path.join(cache_dir, f"scan-{digest}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache_dir, exist_ok=True)
        tmp_path = f"{so_path}.tmp{os.getpid()}"
        cmd = [compiler, "-O2", "-fPIC", "-shared",
               "-o", tmp_path, _SOURCE_PATH]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"scan kernel build failed "
                f"({' '.join(cmd)}): {proc.stderr.strip()[:400]}"
            )
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(so_path)
    scan = lib.ipt_scan
    # data, size, start, then the scan arena's address (a plain int)
    # and its per-column capacity; the kernel lays the arena out.
    scan.argtypes = (
        ctypes.c_char_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_long,
    )
    scan.restype = ctypes.c_long
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, or None if it cannot be used here (no
    compiler, or a failed build or load).

    The build is attempted once per process; the outcome (library or
    error string) is cached.
    """
    global _lib, _attempted, _error
    if _attempted:
        return _lib
    _attempted = True
    try:
        _lib = _build()
    except Exception as exc:  # any failure means "unavailable"
        _error = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def build_error() -> Optional[str]:
    """Why the kernel is unavailable (None when it loaded fine)."""
    load()
    return _error
