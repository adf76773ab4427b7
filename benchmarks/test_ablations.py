"""Bench AB — ablations over FlowGuard's design knobs.

Asserts the qualitative trade-offs the paper argues:

- larger checked windows (pkt_count) cost more per check,
- the §7.1.1 cred_ratio formula crosses below the O-CFG AIA well
  before ratio 1.0,
- finer PSB periods shift cost from decoding to tracing,
- PSB-parallel decode shortens the critical path,
- the path-sensitive extension strengthens the fast path at the price
  of more slow-path checking.
"""

from conftest import run_once

from repro.experiments import ablations


def test_pkt_count_costs_grow(benchmark):
    points = run_once(benchmark, ablations.sweep_pkt_count)
    overheads = [p.overhead for p in points]
    # Bigger windows never get cheaper; 60-packet checks cost more
    # than 5-packet checks.
    assert overheads[-1] > overheads[0]


def test_cred_ratio_crossover(benchmark):
    curve = run_once(benchmark, ablations.sweep_cred_ratio)
    print("\ncred_ratio AIA curve:",
          [f"{v:.2f}" for v in curve.aia_values],
          "O-CFG", f"{curve.aia_ocfg:.2f}")
    # Monotone improvement with training coverage...
    assert all(b <= a + 1e-9 for a, b in
               zip(curve.aia_values, curve.aia_values[1:]))
    # ...and the deployed mix beats plain O-CFG before full coverage
    # (the paper's 70% observation; the exact ratio depends on the
    # CFG's fine/ITC spread).
    assert curve.crossover_ratio < 1.0
    assert curve.aia_values[-1] < curve.aia_ocfg


def test_psb_period_tradeoff(benchmark):
    points = run_once(benchmark, ablations.sweep_psb_period,
                      periods=(128, 1024), sessions=5)
    fine, coarse = points
    # Finer sync points -> more trace bytes; coarser -> bigger decode
    # windows per check.
    assert fine.trace_share > coarse.trace_share
    assert coarse.decode_share > fine.decode_share


def test_parallel_decode_speedup(benchmark):
    result = run_once(benchmark, ablations.measure_parallel_decode,
                      sessions=6)
    print(f"\nparallel decode: {result.segments} segments, "
          f"{result.speedup:.1f}x")
    assert result.segments > 2
    assert result.speedup > 1.5


def test_path_sensitivity_tradeoff(benchmark):
    result = run_once(benchmark, ablations.measure_path_sensitivity)
    print(f"\nslow-path rate: edges {result.edge_slow_rate * 100:.1f}% "
          f"-> paths {result.path_slow_rate * 100:.1f}%")
    assert result.trained_grams > 0
    # "it may introduce larger number of slow path checking".
    assert result.path_slow_rate >= result.edge_slow_rate
