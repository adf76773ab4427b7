"""The FlowGuard runtime monitor (§5).

A kernel module that (i) configures IPT to trace the protected process
(CR3-filtered, user-only, ToPA output), (ii) intercepts the
security-sensitive syscall endpoints by swapping syscall-table entries,
and (iii) checks the traced flow — fast path first (packet-layer decode
searched over the credit-labelled ITC-CFG), falling back to the slow
path (full instruction-flow decode + fine-grained forward edges +
shadow stack) when a low-credit edge or unseen TNT pattern appears.

The package root exports nothing: the stable public surface is
:mod:`repro.api`, and internals live in their submodules
(``repro.monitor.flowguard``, ``repro.monitor.fastpath``, ...).
"""
