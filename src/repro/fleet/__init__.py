"""repro.fleet — multi-process monitoring with parallel checking.

The fleet subsystem scales the single-process FlowGuard monitor to a
service: N protected processes time-sliced round-robin on one simulated
CPU, their trace rings drained by M checker workers on idle cores, with
the paper's §4 buffer-full degradation policies (stall vs lossy) and
violation quarantine.  See DESIGN.md ("Fleet mode") for the
architecture.

Importing names from this package root is **deprecated**: the stable
public surface is :mod:`repro.api`, and internals live in their
submodules (``repro.fleet.service``, ``repro.fleet.rings``, ...).  The
lazy shims below keep old imports working, each access emitting a
``DeprecationWarning``.
"""

import importlib
import warnings

#: old package-root exports -> their canonical submodule home.
_EXPORTS = {
    "CheckTask": "repro.fleet.workers",
    "DrainResult": "repro.fleet.rings",
    "FleetClock": "repro.fleet.scheduler",
    "FleetConfig": "repro.fleet.service",
    "FleetDispatcher": "repro.fleet.dispatcher",
    "FleetEntry": "repro.fleet.scheduler",
    "FleetMonitor": "repro.fleet.monitor",
    "FleetResult": "repro.fleet.service",
    "FleetService": "repro.fleet.service",
    "ProcessRing": "repro.fleet.rings",
    "QuarantineEvent": "repro.fleet.dispatcher",
    "RingPolicy": "repro.fleet.rings",
    "RoundRobinScheduler": "repro.fleet.scheduler",
    "SimulatedWorkerPool": "repro.fleet.workers",
    "make_ring_topa": "repro.fleet.rings",
    "percentile": "repro.telemetry.metrics",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    warnings.warn(
        f"importing {name!r} from {__name__} is deprecated; "
        f"use repro.api or {home}",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(home), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
