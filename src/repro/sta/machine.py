"""The superthreaded machine: thread units + ring + shared L2 (§2.1).

A :class:`Machine` instantiates the hardware of Figure 1: ``n`` thread
units, each with private L1 caches (and sidecar), a unidirectional
communication ring (modelled through the fork/forward costs and the
target-store forwarding the scheduler performs), a shared unified L2,
and the sequential-mode update bus.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.config import MachineConfig, SimParams
from ..common.errors import SimulationError
from ..core.thread_unit import ThreadUnit
from ..mem.coherence import UpdateBus
from ..mem.l2 import SharedL2

__all__ = ["Machine"]


class Machine:
    """A configured superthreaded processor ready to execute programs."""

    __slots__ = (
        "cfg", "params", "l2", "tus", "bus", "head_tu", "tracer", "profiler",
        "sanitizer", "attrib",
    )

    def __init__(
        self,
        cfg: MachineConfig,
        params: SimParams = SimParams(),
        tracer=None,
        profiler=None,
        sanitizer=None,
        attrib=None,
    ) -> None:
        self.cfg = cfg
        self.params = params
        #: Observability sink shared by every component (None → untraced).
        self.tracer = tracer
        #: Host-side wall-clock profiler (None → unprofiled).
        self.profiler = profiler
        #: Runtime invariant checker (None → unsanitized, zero cost).
        self.sanitizer = sanitizer
        #: Block-provenance collector (None → unattributed, zero cost).
        self.attrib = attrib
        self.l2 = SharedL2(cfg.mem, tracer=tracer)
        self.tus: List[ThreadUnit] = [
            ThreadUnit(i, cfg, self.l2, params, tracer=tracer,
                       profiler=profiler, sanitizer=sanitizer, attrib=attrib)
            for i in range(cfg.n_thread_units)
        ]
        self.bus = UpdateBus([tu.mem for tu in self.tus])
        #: The TU currently holding the non-speculative head thread;
        #: sequential code runs here.
        self.head_tu = 0

    @property
    def n_tus(self) -> int:
        return self.cfg.n_thread_units

    def tu_for_iteration(self, global_iter: int) -> ThreadUnit:
        """Round-robin thread-unit assignment by global iteration index."""
        return self.tus[global_iter % self.cfg.n_thread_units]

    def set_head(self, tu_id: int) -> None:
        """Move the head thread to ``tu_id`` (after a region completes)."""
        if not 0 <= tu_id < self.cfg.n_thread_units:
            raise SimulationError(f"no such thread unit: {tu_id}")
        self.head_tu = tu_id

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def collect_stats(self) -> Dict[str, int]:
        """Flatten every component's counters into one mapping."""
        out: Dict[str, int] = {}
        for tu in self.tus:
            out.update(tu.stats.as_dict())
            out.update(tu.mem.stats.as_dict())
            out.update(tu.branch.stats.as_dict())
            out.update(tu.membuf.stats.as_dict())
        out.update(self.l2.stats.as_dict())
        out.update(self.l2.memory.stats.as_dict())
        out.update(self.bus.stats.as_dict())
        return out

    def reset_statistics(self) -> None:
        """Zero all counters while keeping cache/predictor state.

        Used at the end of the warm-up period: measurement starts from
        warmed microarchitectural state, as in steady-state sampling.
        """
        for tu in self.tus:
            tu.stats.reset()
            tu.mem.stats.reset()
            tu.branch.stats.reset()
            tu.membuf.stats.reset()
        self.l2.stats.reset()
        self.l2.memory.reset()
        self.bus.stats.reset()

    def reset(self) -> None:
        """Return the machine to power-on state."""
        for tu in self.tus:
            tu.reset()
        self.l2.reset()
        self.bus.reset()
        self.head_tu = 0

    def __repr__(self) -> str:
        return f"Machine({self.cfg.describe()})"
