"""Synthetic workloads: address patterns, programs, benchmarks, traces.

Submodules are imported where they are used; the package itself loads
only the numpy-free :mod:`~repro.workloads.catalog`, so
``repro.workloads.BENCHMARK_NAMES`` costs no benchmark models.
"""

from .catalog import BENCHMARK_NAMES

__all__ = ["BENCHMARK_NAMES"]
