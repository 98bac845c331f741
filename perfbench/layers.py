"""Metric definitions and the arithmetic that turns child reports into them.

Every metric the benchmark prints is declared here with its unit and the
direction that is better; ``BENCHMARK.json`` lists the same names (the
tests keep the two in step).  The per-layer table says, for each layer,
which end-to-end metric it should move and on which workload.

=====================  ==============================================
layer (module)         moves
=====================  ==============================================
cli                    setup_s everywhere; most of run_cpu_s on
                       campaign-warm
obs.fidelity           run_cpu_s on campaign-warm
sim.executor           cell_key/cache_get: run_cpu_s on campaign-warm;
                       cache_put, duplicates, cell percentiles:
                       run_cpu_s on campaign-cold
workloads              setup_s on oracle-cells
sim.fast.compile       run_cpu_s on campaign-cold
sim.fast.engine        run_cpu_s and sim_kinstr_per_cpu_s on
                       campaign-cold (record cells also
                       executor.cell_p90_ms)
oracle path (sim.driver, sta, core, workloads.tracegen, common.rng)
                       run_cpu_s and sim_kinstr_per_cpu_s on
                       oracle-cells; nothing on the campaigns
modelled components    nothing: simulated counts repeat exactly, and a
                       simulator-only change must leave them identical
=====================  ==============================================
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from tracing import self_times, union_length

#: (name, unit, better) of each end-to-end metric, measured untraced.
END_TO_END = (
    ("run_cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_kinstr_per_cpu_s", "kinstr/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("claims_in_band", "count", "higher"),
)

#: Sidecar kinds the campaign grid uses (``SidecarKind`` values).
SIDECAR_KINDS = ("none", "vc", "wec", "nlp")

#: (name, unit, better) of each per-layer metric, from the traced run.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("fidelity.load_claims_s", "s", "lower"),
    ("fidelity.resolve_s", "s", "lower"),
    ("fidelity.evaluate_s", "s", "lower"),
    ("fidelity.render_s", "s", "lower"),
    ("executor.cell_key_s", "s", "lower"),
    ("executor.cache_get_s", "s", "lower"),
    ("executor.cache_put_s", "s", "lower"),
    ("executor.cache_hits", "count", "higher"),
    ("executor.cache_misses", "count", "lower"),
    ("executor.cells_executed", "count", "lower"),
    ("executor.cells_failed", "count", "lower"),
    ("executor.cells_duplicate", "count", "lower"),
    ("executor.useful_ratio", "ratio", "higher"),
    ("executor.self_s", "s", "lower"),
    ("executor.cell_p50_ms", "ms", "lower"),
    ("executor.cell_p90_ms", "ms", "lower"),
    ("executor.cell_samples", "count", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.builds", "count", "lower"),
    ("compile.regions_compiled", "count", "lower"),
    ("compile.region_s", "s", "lower"),
    ("compile.trace_calls", "count", "lower"),
    ("compile.trace_s", "s", "lower"),
    ("fast.record_cells", "count", "lower"),
    ("fast.record_s", "s", "lower"),
) + tuple(
    (f"fast.replay_cells.{kind}", "count", "lower") for kind in SIDECAR_KINDS
) + tuple(
    (f"fast.replay_s.{kind}", "s", "lower") for kind in SIDECAR_KINDS
) + (
    ("fast.replay_ratio", "ratio", "higher"),
    ("fast.us_per_kinstr.record", "us/kinstr", "lower"),
    ("fast.us_per_kinstr.replay", "us/kinstr", "lower"),
    ("oracle.run_s", "s", "lower"),
    ("oracle.us_per_kinstr", "us/kinstr", "lower"),
    ("sta.parallel_region_s", "s", "lower"),
    ("sta.sequential_region_s", "s", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.iteration_s", "s", "lower"),
    ("core.wrong_thread_s", "s", "lower"),
    ("tracegen.iteration_trace_s", "s", "lower"),
    ("tracegen.wrong_path_s", "s", "lower"),
    ("rng.fresh_calls", "count", "lower"),
    ("rng.fresh_s", "s", "lower"),
    ("sim.instructions", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("mem.l1_misses", "count", "lower"),
    ("mem.l2_misses", "count", "lower"),
    ("mem.effective_misses", "count", "lower"),
    ("branch.mispredicts", "count", "lower"),
    ("wec.sidecar_hits", "count", "higher"),
    ("wec.wrong_loads", "count", "lower"),
    ("wec.useful_wrong_hits", "count", "higher"),
    ("wec.useful_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """``name`` if it is a valid metric name, else ``ValueError``.

    A name starts with a letter or digit and has at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


for _name, _unit, _better in END_TO_END + PER_LAYER:
    check_metric_name(_name)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (linear between ranks) and the sample count.

    An empty sample gives ``(0.0, 0)``: the layer did no work.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0, 0
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo), n


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)[0]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced child report
# ---------------------------------------------------------------------------


def top_level_coverage(report: Dict, launch: float) -> Tuple[Dict[str, float], float]:
    """Top-level span time by name, and the part of the wall time from
    launch to outputs written that none covers.

    Interpreter start-up (launch to the child's first line) counts as the
    top-level span ``python.start``.
    """
    spans = report.get("spans", [])
    top: Dict[str, float] = {"python.start": report["t_start"] - launch}
    intervals = [(launch, report["t_start"])]
    for name, start, end, parent, _attrs in spans:
        if parent is None:
            top[name] = top.get(name, 0.0) + (end - start)
            intervals.append((start, end))
    run_s = report["t_done"] - launch
    return top, run_s - union_length(intervals, launch, report["t_done"])


def _us_per_kinstr(cells: List[Tuple[float, Dict]]) -> float:
    kinstr = sum(attrs["instructions"] for _s, attrs in cells) / 1e3
    return sum(s for s, _attrs in cells) * 1e6 / kinstr if kinstr else 0.0


def layer_metrics(report: Dict, launch: float) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_s`` for one traced run.

    A layer that did no work in the run reads 0.
    """
    spans = report.get("spans", [])
    tallies = report.get("tallies", {})
    ex = report.get("executor", {})
    sim = report.get("sim", {})

    def total(*names: str) -> float:
        return sum(end - start for name, start, end, _p, _a in spans
                   if name in names)

    def tally(name: str) -> Tuple[int, float]:
        calls, secs = tallies.get(name, (0, 0.0))
        return int(calls), float(secs)

    m: Dict[str, float] = {
        "cli.import_s": total("cli.import"),
        "fidelity.load_claims_s": total("fidelity.load_claims"),
        "fidelity.resolve_s": total("fidelity.campaign_sections",
                                    "sweep.grid_cells"),
        "fidelity.evaluate_s": total("fidelity.evaluate_claims"),
        "fidelity.render_s": total("fidelity.render_markdown"),
        "executor.cell_key_s": total("executor.cell_key"),
        "executor.cache_get_s": total("executor.cache_get"),
        "executor.cache_put_s": total("executor.cache_put"),
        "executor.cache_hits": ex.get("hits", 0),
        "executor.cache_misses": ex.get("misses", 0),
        "executor.cells_executed": ex.get("executed", 0),
        "executor.cells_failed": ex.get("failed", 0),
    }
    keys = ex.get("run_keys", [])
    distinct = len(set(keys))
    m["executor.cells_duplicate"] = len(keys) - distinct
    m["executor.useful_ratio"] = distinct / len(keys) if keys else 0.0

    selfs = self_times(spans)
    run_cells = {i for i, span in enumerate(spans)
                 if span[0] == "executor.run_cells"}
    m["executor.self_s"] = sum(selfs[i] for i in run_cells)
    cell_ms = [(end - start) * 1e3 for name, start, end, parent, _a in spans
               if name == "sim.run_program" and parent in run_cells]
    m["executor.cell_p50_ms"], n = percentile(cell_ms, 50)
    m["executor.cell_p90_ms"], _ = percentile(cell_ms, 90)
    m["executor.cell_samples"] = n

    m["workloads.build_s"] = total("workloads.build")
    m["workloads.builds"] = sum(1 for s in spans if s[0] == "workloads.build")
    m["compile.regions_compiled"] = report.get("regions_compiled", 0)
    m["compile.region_s"] = tally("compile.region")[1]
    m["compile.trace_calls"], m["compile.trace_s"] = tally("compile.trace")

    cells = [(end - start, attrs) for name, start, end, _p, attrs in spans
             if name == "sim.run_program" and attrs]
    fast = [c for c in cells if c[1]["engine"] == "fast"]
    record = [c for c in fast if c[1]["branch"] == "record"]
    replay = [c for c in fast if c[1]["branch"] == "replay"]
    m["fast.record_cells"] = len(record)
    m["fast.record_s"] = sum(s for s, _a in record)
    for kind in SIDECAR_KINDS:
        of_kind = [s for s, a in replay if a["sidecar"] == kind]
        m[f"fast.replay_cells.{kind}"] = len(of_kind)
        m[f"fast.replay_s.{kind}"] = sum(of_kind)
    m["fast.replay_ratio"] = len(replay) / len(fast) if fast else 0.0
    m["fast.us_per_kinstr.record"] = _us_per_kinstr(record)
    m["fast.us_per_kinstr.replay"] = _us_per_kinstr(replay)
    oracle = [c for c in cells if c[1]["engine"] == "oracle"]
    m["oracle.run_s"] = sum(s for s, _a in oracle)
    m["oracle.us_per_kinstr"] = _us_per_kinstr(oracle)

    m["sta.parallel_region_s"] = total("sta.parallel_region")
    m["sta.sequential_region_s"] = total("sta.sequential_region")
    m["core.iterations"], m["core.iteration_s"] = tally("core.iteration")
    m["core.wrong_thread_s"] = tally("core.wrong_thread")[1]
    m["tracegen.iteration_trace_s"] = tally("tracegen.iteration_trace")[1]
    m["tracegen.wrong_path_s"] = tally("tracegen.wrong_path")[1]
    m["rng.fresh_calls"], m["rng.fresh_s"] = tally("rng.fresh")

    m["sim.instructions"] = sim.get("instructions", 0)
    m["sim.cycles"] = sim.get("cycles", 0)
    m["mem.l1_misses"] = sim.get("l1_misses", 0)
    m["mem.l2_misses"] = sim.get("l2_misses", 0)
    m["mem.effective_misses"] = sim.get("effective_misses", 0)
    m["branch.mispredicts"] = sim.get("mispredicts", 0)
    m["wec.sidecar_hits"] = sim.get("wec_sidecar_hits", 0)
    wrong = sim.get("wec_wrong_loads", 0)
    useful = sim.get("wec_useful_wrong_hits", 0)
    m["wec.wrong_loads"] = wrong
    m["wec.useful_wrong_hits"] = useful
    m["wec.useful_ratio"] = useful / wrong if wrong else 0.0

    m["trace.uncovered_s"] = top_level_coverage(report, launch)[1]
    return m
