"""Experiment harnesses: one module per paper table/figure.

Every module exposes a ``run(...)`` returning a structured result and a
``format_table(result)`` that renders the same rows/series the paper
reports.  See DESIGN.md's experiment index and EXPERIMENTS.md for
paper-vs-measured records.

- :mod:`repro.experiments.table1` — hardware tracing comparison
- :mod:`repro.experiments.sec2_decode` — full-decode slowdown (§2)
- :mod:`repro.experiments.table4` — CFG statistics and AIA
- :mod:`repro.experiments.table5` — memory usage / CFG generation time
- :mod:`repro.experiments.fig5a` — server overhead + breakdown
- :mod:`repro.experiments.fig5b` — Linux-utility overhead
- :mod:`repro.experiments.fig5c` — SPEC-like overhead
- :mod:`repro.experiments.fig5d` — fuzzing-training curve
- :mod:`repro.experiments.micro` — fast vs slow path checking time
- :mod:`repro.experiments.hwext_breakdown` — §7.2.4 projections
- :mod:`repro.experiments.security` — §7.1.2 attack matrix

The gated beyond-paper experiments (``fleet_scaling``, ``resilience``,
``observability``, ``loadgen``, ``service``) also
define a pure ``gates(results)`` that ``run`` stores under
``results["gates"]``; ``python -m repro experiments NAME [--quick]``
runs any of them, writes ``BENCH_<name>.json`` and fails on any gate
that is not ``True``.
"""

from repro.experiments import common

__all__ = ["common"]
