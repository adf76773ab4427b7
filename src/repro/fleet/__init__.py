"""repro.fleet — multi-process monitoring with parallel checking.

The fleet subsystem scales the single-process FlowGuard monitor to a
service: N protected processes time-sliced round-robin on one simulated
CPU, their trace rings drained by M checker workers on idle cores, with
the paper's §4 buffer-full degradation policies (stall vs lossy) and
violation quarantine.  See DESIGN.md ("Fleet mode") for the
architecture.

The package root exports nothing: the stable public surface is
:mod:`repro.api`, and internals live in their submodules
(``repro.fleet.service``, ``repro.fleet.rings``, ...).
"""
