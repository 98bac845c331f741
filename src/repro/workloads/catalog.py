"""The benchmark catalog: Table 1 and Table 2 metadata, no models.

The six programs the paper evaluates, with their published instruction
counts and parallelization transformations.  This module holds data
only, so code that needs names or table metadata (the CLI's ``list``,
the claim scorer, a warm campaign that reads every cell from the
result cache) does not pay for numpy or the benchmark models; the
models themselves live in :mod:`repro.workloads.benchmarks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..common.errors import WorkloadError

__all__ = [
    "BENCHMARK_INFO",
    "BENCHMARK_NAMES",
    "BenchmarkInfo",
    "benchmark_infos",
]


@dataclass(frozen=True)
class BenchmarkInfo:
    """Table 1 + Table 2 metadata for one benchmark program."""

    name: str
    suite: str
    input_set: str
    whole_minstr: float        # whole-benchmark dynamic Minstructions
    targeted_minstr: float     # instructions in the parallelized loops
    #: Loop transformations applied in the manual parallelization (Table 1).
    transformations: Tuple[str, ...] = ()

    @property
    def fraction_parallelized(self) -> float:
        """Table 2's "Fraction Parallelized" column."""
        return self.targeted_minstr / self.whole_minstr

    def __post_init__(self) -> None:
        if self.targeted_minstr > self.whole_minstr:
            raise WorkloadError(
                f"{self.name}: targeted instructions exceed whole-benchmark count"
            )


#: Table 1 — program transformations used in the manual parallelization.
_TRANSFORMS: Dict[str, Tuple[str, ...]] = {
    "175.vpr": ("loop unrolling", "statement reordering to increase overlap"),
    "164.gzip": ("loop coalescing", "statement reordering to increase overlap"),
    "181.mcf": ("loop unrolling", "statement reordering to increase overlap"),
    "197.parser": ("loop coalescing", "loop unrolling"),
    "183.equake": ("loop coalescing", "loop unrolling",
                   "statement reordering to increase overlap"),
    "177.mesa": ("loop unrolling", "statement reordering to increase overlap"),
}

#: Table 2 — whole-benchmark and targeted dynamic instruction counts (M).
BENCHMARK_INFO: Dict[str, BenchmarkInfo] = {
    "175.vpr": BenchmarkInfo(
        "175.vpr", "SPEC2000/INT", "SPEC test", 1126.5, 97.2, _TRANSFORMS["175.vpr"]
    ),
    "164.gzip": BenchmarkInfo(
        "164.gzip", "SPEC2000/INT", "MinneSPEC large", 1550.7, 243.6,
        _TRANSFORMS["164.gzip"],
    ),
    "181.mcf": BenchmarkInfo(
        "181.mcf", "SPEC2000/INT", "MinneSPEC large", 601.6, 217.3,
        _TRANSFORMS["181.mcf"],
    ),
    "197.parser": BenchmarkInfo(
        "197.parser", "SPEC2000/INT", "MinneSPEC medium", 514.0, 88.6,
        _TRANSFORMS["197.parser"],
    ),
    "183.equake": BenchmarkInfo(
        "183.equake", "SPEC2000/FP", "MinneSPEC large", 716.3, 152.6,
        _TRANSFORMS["183.equake"],
    ),
    "177.mesa": BenchmarkInfo(
        "177.mesa", "SPEC2000/FP", "SPEC test", 1832.1, 319.0,
        _TRANSFORMS["177.mesa"],
    ),
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(BENCHMARK_INFO)


def benchmark_infos() -> List[BenchmarkInfo]:
    """Table 2 metadata for all six benchmarks, in the paper's order."""
    return [BENCHMARK_INFO[n] for n in BENCHMARK_NAMES]
