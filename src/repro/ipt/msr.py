"""RTIT model-specific register model (IA32_RTIT_* family).

IPT can only be configured by a privileged agent through MSRs (§2).
:class:`RTIT_CTL` models the primary enable/control register with the
bit fields FlowGuard programs in §5.1; :class:`IPTConfig` is the per-core
configuration the packetizer reads.
"""

from __future__ import annotations

from dataclasses import dataclass


class RTIT_CTL:
    """Bit positions in IA32_RTIT_CTL."""

    TRACE_EN = 1 << 0
    OS = 1 << 2
    USER = 1 << 3
    FABRIC_EN = 1 << 6
    CR3_FILTER = 1 << 7
    TOPA = 1 << 8
    BRANCH_EN = 1 << 13


@dataclass
class IPTConfig:
    """Trace-configuration state for one core.

    ``flowguard_defaults`` reflects §5.1: TraceEn+BranchEn set, OS bit
    cleared / User bit set (user-level flow only), CR3 filtering enabled
    against the protected process, FabricEn cleared (output to the
    memory subsystem) and ToPA output.
    """

    ctl: int = 0
    cr3_match: int = 0
    psb_period: int = 256  # bytes of output between PSB sync points

    @classmethod
    def flowguard_defaults(cls, cr3: int) -> "IPTConfig":
        config = cls()
        config.write_ctl(
            RTIT_CTL.TRACE_EN
            | RTIT_CTL.BRANCH_EN
            | RTIT_CTL.USER
            | RTIT_CTL.CR3_FILTER
            | RTIT_CTL.TOPA
        )
        config.cr3_match = cr3
        return config

    def write_ctl(self, value: int) -> None:
        self.ctl = value
