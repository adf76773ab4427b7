"""FlowGuard policy knobs (§5.2, §7.1.1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.configio import JsonConfig
from repro.osmodel.syscalls import SENSITIVE_SYSCALLS


@dataclass
class FlowGuardPolicy(JsonConfig):
    """The two security parameters plus endpoint configuration.

    - ``pkt_count``: lower bound on TIP packets checked per endpoint
      (30 in the paper — defeats history-flushing unless the attacker
      crafts 30+ NOP-like gadgets that stay on high-credit edges),
    - ``cred_ratio``: minimum fraction of high-credit edges in a passing
      fast-path check.  The paper sets it to 1.0 — *any* low-credit edge
      forwards the window to the slow path,
    - ``require_cross_module`` / ``require_executable``: how far back
      the tail walk scans — until the newest ``pkt_count + 1`` TIPs
      stride multiple modules with at least one in the executable, or
      the whole buffer when they never do.  This changes what a check
      costs, never its fast-path verdict: the same pairs are judged
      either way, so a window that fails the span still passes or
      fails on its edges alone,
    - ``endpoints``: the intercepted syscall set (PathArmor's by
      default), user-extensible per §7.1.2,
    - ``check_on_pmi``: also treat buffer-full PMIs as endpoints (the
      §7.1.2 worst-case fallback for endpoint-pruning attacks).
    """

    pkt_count: int = 30
    cred_ratio: float = 1.0
    require_cross_module: bool = True
    require_executable: bool = True
    endpoints: FrozenSet[int] = field(
        default_factory=lambda: frozenset(int(s) for s in SENSITIVE_SYSCALLS)
    )
    check_on_pmi: bool = False
    #: cache slow-path negatives as high-credit edges (§7.1.1).
    cache_slow_path_negatives: bool = True
    #: the paper's future-work extension: additionally require every
    #: k-gram of consecutive TIP targets in the window to have been
    #: observed during training (stitching trained edges into novel
    #: orders demotes to the slow path).
    path_sensitive: bool = False
    #: override the PSB sync-point period (bytes); None keeps the RTIT
    #: default.  Finer periods trade trace bytes for smaller decode
    #: windows per check.
    psb_period: int = 0  # 0 = hardware default
