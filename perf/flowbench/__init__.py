"""Benchmark harness for the FlowGuard reproduction (see perf/README.md)."""
