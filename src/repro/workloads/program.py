"""Program representation: regions, loop nests, benchmark metadata.

A :class:`Program` is the unit the simulator executes: an ordered *body*
of regions executed for ``n_invocations`` rounds (the paper's
benchmarks spend their time re-entering the same parallelized loops).

Iteration indices are **global across invocations**: invocation *k* of a
parallel region covers iterations ``[k*iters_per_invocation,
(k+1)*iters_per_invocation)``.  Combined with the stateless address
patterns this gives wrong-thread execution its prefetching power with
no tuning: a wrong thread that runs past the loop exit evaluates
iterations the *next* invocation will really execute — on the same
thread unit, since round-robin assignment is also by global index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..common.errors import WorkloadError
from ..isa.cfg import IterationCFG
from ..isa.encoding import StageSplit
from .catalog import BenchmarkInfo
from .patterns import AddressPattern

__all__ = [
    "WrongExecProfile",
    "ParallelRegionSpec",
    "SequentialRegionSpec",
    "RegionSpec",
    "Program",
    "BenchmarkInfo",
]


@dataclass(frozen=True)
class WrongExecProfile:
    """How a region behaves under wrong execution (§3.1).

    ``wp_mean_loads`` / ``wp_max_loads``
        Number of ready loads that continue down a wrong path after the
        branch resolves (geometric with the given mean, capped).
    ``p_convergent``
        Probability that a wrong-path load touches data the correct
        path will reference within ``wp_lookahead`` upcoming loads
        (control-flow reconvergence); the rest touch off-path data
        drawn from the region's pollution pattern.
    ``wth_fraction``
        Fraction of an extrapolated iteration's loads a wrong thread
        completes before its own abort kills it.
    ``wth_max_iters``
        How many beyond-the-exit iterations a wrong thread covers
        before self-aborting (bounded by the following sequential
        region's length in the paper; a small constant here).
    """

    wp_mean_loads: float = 3.0
    wp_max_loads: int = 8
    p_convergent: float = 0.5
    wp_lookahead: int = 8
    wth_fraction: float = 1.0
    wth_max_iters: int = 1

    def __post_init__(self) -> None:
        if self.wp_mean_loads < 0 or self.wp_max_loads < 0:
            raise WorkloadError("negative wrong-path load counts")
        if not 0.0 <= self.p_convergent <= 1.0:
            raise WorkloadError("p_convergent outside [0,1]")
        if self.wp_lookahead < 1:
            raise WorkloadError("wp_lookahead must be >= 1")
        if not 0.0 <= self.wth_fraction <= 1.0:
            raise WorkloadError("wth_fraction outside [0,1]")
        if self.wth_max_iters < 0:
            raise WorkloadError("negative wth_max_iters")


@dataclass
class ParallelRegionSpec:
    """One parallelized loop nest (§2.2 thread-pipelining target).

    Parameters
    ----------
    cfg:
        The loop body as an :class:`IterationCFG`.
    patterns:
        Named address patterns referenced by the CFG's memory slots.
    iters_per_invocation:
        Dynamic iterations executed each time the region is entered.
    stage_split:
        Fraction of the body in each thread-pipelining stage.
    n_forward_values:
        Values forwarded at each fork (drives communication cost).
    ilp:
        Intrinsic instruction-level parallelism of the body — the
        effective issue rate is ``min(issue_width, ilp)``.
    dep_coupling:
        Fraction in [0, 1] of the computation stage that must wait for
        the upstream thread's target-store data (cross-iteration
        dependences).  High coupling serializes threads (175.vpr).
    code_footprint:
        Bytes of instruction memory the body spans (L1I behaviour).
    pollution_pattern:
        Pattern name used for the non-convergent share of wrong-path
        loads (off-path data structures).
    """

    name: str
    cfg: IterationCFG
    patterns: Dict[str, AddressPattern]
    iters_per_invocation: int
    stage_split: StageSplit = field(default_factory=StageSplit)
    n_forward_values: int = 2
    ilp: float = 2.0
    dep_coupling: float = 0.1
    code_footprint: int = 4096
    pollution_pattern: Optional[str] = None
    wrong_exec: WrongExecProfile = field(default_factory=WrongExecProfile)

    def __post_init__(self) -> None:
        if self.iters_per_invocation < 1:
            raise WorkloadError(f"region {self.name}: needs at least one iteration")
        if not 0.0 <= self.dep_coupling <= 1.0:
            raise WorkloadError(f"region {self.name}: dep_coupling outside [0,1]")
        if self.ilp <= 0:
            raise WorkloadError(f"region {self.name}: ilp must be positive")
        self._check_patterns()

    def _check_patterns(self) -> None:
        referenced = {
            slot.pattern
            for block in self.cfg.blocks.values()
            for slot in block.mem_slots
        }
        if self.pollution_pattern is not None:
            referenced.add(self.pollution_pattern)
        missing = referenced - set(self.patterns)
        if missing:
            raise WorkloadError(
                f"region {self.name}: CFG references unknown patterns {sorted(missing)}"
            )

    def global_iter_range(self, invocation: int) -> Tuple[int, int]:
        """Global iteration index range covered by ``invocation``."""
        lo = invocation * self.iters_per_invocation
        return lo, lo + self.iters_per_invocation


@dataclass
class SequentialRegionSpec:
    """A sequential section executed by a single (head) thread unit.

    ``chunks_per_invocation`` CFG walks are performed per entry; chunk
    indices are global across invocations like parallel iterations.
    """

    name: str
    cfg: IterationCFG
    patterns: Dict[str, AddressPattern]
    chunks_per_invocation: int
    ilp: float = 1.5
    code_footprint: int = 8192
    #: Wrong-path behaviour of the head thread inside sequential code.
    wrong_exec: WrongExecProfile = field(default_factory=WrongExecProfile)
    pollution_pattern: Optional[str] = None

    def __post_init__(self) -> None:
        if (
            self.pollution_pattern is not None
            and self.pollution_pattern not in self.patterns
        ):
            raise WorkloadError(
                f"region {self.name}: unknown pollution pattern "
                f"{self.pollution_pattern!r}"
            )
        if self.chunks_per_invocation < 1:
            raise WorkloadError(f"region {self.name}: needs at least one chunk")
        if self.ilp <= 0:
            raise WorkloadError(f"region {self.name}: ilp must be positive")
        referenced = {
            slot.pattern
            for block in self.cfg.blocks.values()
            for slot in block.mem_slots
        }
        missing = referenced - set(self.patterns)
        if missing:
            raise WorkloadError(
                f"region {self.name}: CFG references unknown patterns {sorted(missing)}"
            )

    def global_chunk_range(self, invocation: int) -> Tuple[int, int]:
        """Global chunk index range covered by ``invocation``."""
        lo = invocation * self.chunks_per_invocation
        return lo, lo + self.chunks_per_invocation


RegionSpec = Union[ParallelRegionSpec, SequentialRegionSpec]


class Program:
    """An executable benchmark model: body regions × invocations."""

    def __init__(
        self,
        name: str,
        body: Sequence[RegionSpec],
        n_invocations: int,
        info: Optional[BenchmarkInfo] = None,
    ) -> None:
        if n_invocations < 1:
            raise WorkloadError("program needs at least one invocation")
        if not body:
            raise WorkloadError("program body is empty")
        names = [r.name for r in body]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate region names in program body: {names}")
        self.name = name
        self.body: List[RegionSpec] = list(body)
        self.n_invocations = n_invocations
        self.info = info

    @property
    def parallel_regions(self) -> List[ParallelRegionSpec]:
        return [r for r in self.body if isinstance(r, ParallelRegionSpec)]

    @property
    def sequential_regions(self) -> List[SequentialRegionSpec]:
        return [r for r in self.body if isinstance(r, SequentialRegionSpec)]

    def schedule(self):
        """Yield ``(invocation, region)`` in execution order."""
        for inv in range(self.n_invocations):
            for region in self.body:
                yield inv, region

    def __repr__(self) -> str:
        kinds = "".join(
            "P" if isinstance(r, ParallelRegionSpec) else "S" for r in self.body
        )
        return (
            f"Program({self.name!r}, body={kinds}, "
            f"invocations={self.n_invocations})"
        )
