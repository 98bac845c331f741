"""Simulation results: per-run records and derived metrics.

A :class:`SimResult` captures everything one (benchmark, configuration)
run produced: cycle counts split by region kind, the full counter dump,
and the headline memory-system metrics the paper's figures are built
from.  Comparison helpers implement the exact quantities plotted:
relative speedup (Figures 9–12, 15, 16), normalized execution time
(Figures 13, 14), and the Figure 17 traffic/miss deltas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..common.errors import AnalysisError
from ..common.stats import normalized_time, relative_speedup_pct, speedup

__all__ = ["ENGINES", "SimResult", "require_same_workload"]

#: Recognised simulation engines.  ``oracle`` is the reference
#: event-level interpreter; ``fast`` is the compiled trace-replay
#: engine in :mod:`repro.sim.fast`, bit-identical on results but
#: without event-level observer hooks.  Defined here, beside the result
#: both engines produce, so that the CLI and the executor can validate
#: an engine name without loading the driver.
ENGINES = ("oracle", "fast")


@dataclass
class SimResult:
    """The outcome of simulating one benchmark on one machine config."""

    benchmark: str
    config: str
    n_tus: int
    total_cycles: float
    parallel_cycles: float
    sequential_cycles: float
    instructions: int
    # Memory-system headline numbers (summed across TUs):
    l1_traffic: int = 0
    l1_misses: int = 0
    effective_misses: int = 0
    wrong_loads: int = 0
    wrong_thread_loads: int = 0
    sidecar_hits: int = 0
    prefetches: int = 0
    useful_wrong_hits: int = 0
    useful_prefetch_hits: int = 0
    branches: int = 0
    mispredicts: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    #: Full flattened counter dump for deep inspection.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Optional per-region timing detail (``SimParams.record_regions``).
    region_cycles: List[Dict] = field(default_factory=list)
    seed: int = 0
    scale: float = 0.0
    #: Per-window metric series (``repro.obs.IntervalMetrics``); None
    #: unless the run was traced with an interval collector attached.
    interval_series: Optional[Dict] = None
    #: Provenance/lifetime attribution summary
    #: (``repro.obs.attrib.AttributionCollector.summary()``); None unless
    #: the run carried an attribution collector.
    attribution: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.total_cycles <= 0:
            raise AnalysisError(
                f"{self.benchmark}/{self.config}: non-positive cycle count"
            )

    # -- paper metrics ---------------------------------------------------

    def speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup of *this* run relative to ``baseline`` (>1 = faster)."""
        require_same_workload(self, baseline)
        return speedup(baseline.total_cycles, self.total_cycles)

    def relative_speedup_pct_vs(self, baseline: "SimResult") -> float:
        """Percent speedup, as plotted in Figures 9–12, 15 and 16."""
        require_same_workload(self, baseline)
        return relative_speedup_pct(baseline.total_cycles, self.total_cycles)

    def parallel_speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup over the parallelized portions only (Figure 8)."""
        require_same_workload(self, baseline)
        if self.parallel_cycles <= 0 or baseline.parallel_cycles <= 0:
            raise AnalysisError("no parallel-region cycles recorded")
        return baseline.parallel_cycles / self.parallel_cycles

    def normalized_time_vs(self, baseline: "SimResult") -> float:
        """Execution time normalized to ``baseline`` (Figures 13, 14)."""
        require_same_workload(self, baseline)
        return normalized_time(baseline.total_cycles, self.total_cycles)

    def traffic_increase_pct_vs(self, baseline: "SimResult") -> float:
        """Figure 17: percent increase in processor↔L1D traffic."""
        require_same_workload(self, baseline)
        if baseline.l1_traffic <= 0:
            raise AnalysisError("baseline recorded no L1 traffic")
        return (self.l1_traffic - baseline.l1_traffic) / baseline.l1_traffic * 100.0

    def miss_reduction_pct_vs(self, baseline: "SimResult") -> float:
        """Figure 17: percent reduction in (effective) L1D miss count.

        A miss here is a correct-path access that had to be serviced
        beyond the L1 *and* its parallel sidecar — an L1 miss that hits
        in the WEC behaves as a hit (§3.2.1) and is not counted.
        """
        require_same_workload(self, baseline)
        if baseline.effective_misses <= 0:
            raise AnalysisError("baseline recorded no misses")
        return (
            (baseline.effective_misses - self.effective_misses)
            / baseline.effective_misses
            * 100.0
        )

    @property
    def ipc(self) -> float:
        """Aggregate committed instructions per cycle."""
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def l1_miss_rate(self) -> float:
        """Correct-path L1D misses per correct-path L1D access."""
        return self.l1_misses / self.l1_traffic if self.l1_traffic else 0.0

    @property
    def wec_hit_rate(self) -> float:
        """Fraction of L1D misses absorbed by the sidecar (WEC/VC/PB)."""
        return self.sidecar_hits / self.l1_misses if self.l1_misses else 0.0

    def sim_metrics(self) -> Dict[str, float]:
        """The deterministic headline metrics the perf ledger records.

        Keys match :data:`repro.obs.compare.METRICS` entries with
        ``source == "sim"`` (``speedup_pct`` is added by the recorder
        when a baseline ran alongside).
        """
        out = {
            "total_cycles": float(self.total_cycles),
            "instructions": float(self.instructions),
            "ipc": self.ipc,
            "l1_miss_rate": self.l1_miss_rate,
            "wec_hit_rate": self.wec_hit_rate,
            "effective_misses": float(self.effective_misses),
            "mispredict_rate": self.mispredict_rate,
            "wrong_loads": float(self.wrong_loads),
        }
        if self.attribution:
            # Attributed runs additionally expose the prefetch-taxonomy
            # headlines, so the ledger / `repro perf compare` can diff
            # coverage, accuracy and pollution across configs.
            metrics = self.attribution.get("metrics", {})
            for key in (
                "wrong_coverage",
                "wrong_accuracy",
                "prefetch_accuracy",
                "polluting_mpki",
            ):
                if key in metrics:
                    out[key] = float(metrics[key])
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable), fields in declaration order.

        Equal to :func:`dataclasses.asdict`, key order included, but the
        containers are copied shallowly: ``asdict`` deep-copies every
        nested counter and series, which no caller needs.
        """
        out: Dict = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if type(value) is dict:
                value = dict(value)
            elif type(value) is list:
                value = list(value)
            out[name] = value
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(**data)

    @classmethod
    def from_counters(cls, counters: Dict[str, int], **run) -> "SimResult":
        """Build a result whose counter-derived fields come from ``counters``.

        ``counters`` is the flattened dump both engines produce
        (``tu<i>.core|mem|bpred|membuf.*``, ``l2.*``, ``mem.*``,
        ``bus.*``); every headline count below is a sum over it.  Two
        engines with equal dumps therefore report equal headlines.
        ``run`` carries the fields a dump cannot know: identity, cycle
        totals, ``wrong_thread_loads``, region records and so on.
        """
        per_tu: Dict[str, int] = {}
        for key, value in counters.items():
            if key.startswith("tu"):
                name = key[key.index(".") + 1:]
                per_tu[name] = per_tu.get(name, 0) + value

        def mem(name: str) -> int:
            return per_tu.get(f"mem.{name}", 0)

        return cls(
            instructions=per_tu.get("core.instructions", 0),
            l1_traffic=mem("loads") + mem("stores") + mem("wrong_loads"),
            l1_misses=mem("l1_misses"),
            effective_misses=mem("demand_fills"),
            wrong_loads=mem("wrong_loads"),
            sidecar_hits=mem("sidecar_hits"),
            prefetches=mem("prefetches"),
            useful_wrong_hits=mem("useful_wrong_hits"),
            useful_prefetch_hits=mem("useful_prefetch_hits"),
            branches=per_tu.get("bpred.branches", 0),
            mispredicts=per_tu.get("bpred.mispredicts", 0),
            l2_accesses=counters.get("l2.accesses", 0),
            l2_misses=counters.get("l2.misses", 0),
            counters=counters,
            **run,
        )

    def __repr__(self) -> str:
        return (
            f"SimResult({self.benchmark} on {self.config}/{self.n_tus}TU: "
            f"{self.total_cycles:.0f} cycles, ipc={self.ipc:.2f}, "
            f"misses={self.effective_misses})"
        )


_FIELD_NAMES = tuple(f.name for f in fields(SimResult))


def require_same_workload(a: SimResult, b: SimResult) -> None:
    """Guard against comparing runs of different benchmarks or scales."""
    if a.benchmark != b.benchmark:
        raise AnalysisError(
            f"cannot compare different benchmarks: {a.benchmark} vs {b.benchmark}"
        )
    if a.seed != b.seed or a.scale != b.scale:
        raise AnalysisError(
            f"{a.benchmark}: runs used different seed/scale "
            f"({a.seed}/{a.scale} vs {b.seed}/{b.scale})"
        )
