"""Benchmark of the two-stage ALi system: explore-5k, mount-120, serve-skewed.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root. See ``perfbench/README.md``.
"""
