"""Spans and tallies for the benchmark's traced runs.

The benchmark times the program from outside: :func:`instrument` replaces
public functions and methods of ``repro`` with wrappers that record, for
every call, a span (name, start, end, parent, attributes).  Spans stay in
memory in a :class:`Tracer` and the child process writes them out once,
when its run ends.  Functions called tens of thousands of times per run
(``CompiledRegion.trace``, ``StreamFactory.fresh``, ...) keep a call count
and a total time instead of one span per call, so tracing stays cheap.

Nothing here is imported by ``repro``; a run without ``--trace`` never
loads the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One clock for every timestamp the benchmark takes.  On Linux it is the
#: system-wide CLOCK_MONOTONIC, so readings taken in the parent and in a
#: child process are directly comparable.
clock = time.monotonic

# A span is a list so that the wrapper can fill in its end in place:
# [name, start, end, parent index or None, attributes or None].
Span = list


class Tracer:
    """In-memory span and tally recorder for one child process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.tallies: Dict[str, List[float]] = {}
        self._stack: List[int] = []

    def record(self, name: str, start: float, end: float,
               attrs: Optional[Dict] = None) -> None:
        """Add a span measured by the caller (e.g. ``import repro.cli``)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, attrs])

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``after(args, kwargs, result)`` may return attributes for the
        span; it runs once the span has closed, outside its interval.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        return wrapper

    def tally(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that calls only add to a count and a total time."""
        entry = self.tallies.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - t0

        return wrapper


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Children that overlap each other are counted once; grandchildren lie
    inside their own parent and so never reduce a span twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - union_length(children.get(i, ()), start, end)
        for i, (_name, start, end, _parent, _attrs) in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# Record/replay classification of fast-engine cells
# ---------------------------------------------------------------------------


class BranchStreamClassifier:
    """Tells whether a fast-engine cell records or replays branch outcomes.

    The fast engine shares one branch-outcome stream per program, seed,
    thread-unit count and bimodal predictor geometry: the first cell with
    that key simulates the predictor and records the stream, every later
    cell replays it.  The key is rebuilt here from public config fields
    only.  A program is identified by benchmark name and scale, because
    the executor builds one program per pair.  Other predictor kinds are
    never replayed, so their cells always count as ``record``.
    """

    def __init__(self) -> None:
        self._seen = set()

    def classify(self, benchmark: str, config, params) -> str:
        branch = config.tu.branch
        if branch.kind != "bimodal":
            return "record"
        key = (benchmark, params.scale, params.seed, config.n_thread_units,
               branch.table_bits, branch.btb_entries, branch.btb_assoc)
        if key in self._seen:
            return "replay"
        self._seen.add(key)
        return "record"


# ---------------------------------------------------------------------------
# Wrapping the program
# ---------------------------------------------------------------------------

#: (module, function, span name): module-level functions timed per call.
SPAN_FUNCTIONS = (
    ("repro.obs.fidelity", "run_campaign", "fidelity.run_campaign"),
    ("repro.obs.fidelity", "load_claims", "fidelity.load_claims"),
    ("repro.obs.fidelity", "campaign_sections", "fidelity.campaign_sections"),
    ("repro.sim.sweep", "grid_cells", "sweep.grid_cells"),
    ("repro.obs.fidelity", "evaluate_claims", "fidelity.evaluate_claims"),
    ("repro.obs.fidelity", "render_markdown", "fidelity.render_markdown"),
    ("repro.sim.sweep", "run_grid", "sweep.run_grid"),
    ("repro.sim.executor", "run_cells", "executor.run_cells"),
    ("repro.sim.executor", "cell_key", "executor.cell_key"),
    ("repro.workloads.benchmarks", "build_benchmark", "workloads.build"),
    ("repro.sim.driver", "run_program", "sim.run_program"),
)

#: (module, class, method, span name): methods timed per call.
SPAN_METHODS = (
    ("repro.sim.executor", "DiskCache", "get", "executor.cache_get"),
    ("repro.sim.executor", "DiskCache", "put", "executor.cache_put"),
    ("repro.sta.scheduler", "Scheduler", "run_parallel_region",
     "sta.parallel_region"),
    ("repro.sta.scheduler", "Scheduler", "run_sequential_region",
     "sta.sequential_region"),
)

#: (module, class, method, tally name): fine-grained calls, counted only.
TALLY_METHODS = (
    ("repro.sim.fast.compile", "CompiledRegion", "trace", "compile.trace"),
    ("repro.core.thread_unit", "ThreadUnit", "execute_iteration",
     "core.iteration"),
    ("repro.core.thread_unit", "ThreadUnit", "run_wrong_thread",
     "core.wrong_thread"),
    ("repro.workloads.tracegen", "TraceGenerator", "iteration_trace",
     "tracegen.iteration_trace"),
    ("repro.workloads.tracegen", "TraceGenerator", "wrong_path_addrs",
     "tracegen.wrong_path"),
    ("repro.common.rng", "StreamFactory", "fresh", "rng.fresh"),
)


def rebind(module: str, name: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``module.name`` and every ``repro`` module's import of it."""
    __import__(module)
    original = getattr(sys.modules[module], name)
    wrapper = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def instrument(tracer: Tracer) -> set:
    """Wrap the program's layer boundaries so calls land in ``tracer``.

    Returns a live set the caller reads when the run ends: the ids of the
    regions handed to ``compiled_region_for``.  Each distinct region is
    compiled once; later calls for it hit the compile memo.
    """
    classifier = BranchStreamClassifier()
    regions: set = set()

    def cell_attrs(args, kwargs, result):
        program, config, params = (_arg(args, kwargs, 0, "program"),
                                   _arg(args, kwargs, 1, "config"),
                                   _arg(args, kwargs, 2, "params"))
        engine = kwargs.get("engine") or "oracle"
        attrs = {"engine": engine, "benchmark": program.name,
                 "sidecar": config.tu.sidecar.kind.value,
                 "instructions": int(result.instructions)}
        if engine == "fast":
            attrs["branch"] = classifier.classify(program.name, config, params)
        return attrs

    for module, name, span_name in SPAN_FUNCTIONS:
        after = cell_attrs if name == "run_program" else None
        rebind(module, name,
               lambda fn, s=span_name, a=after: tracer.span(s, fn, a))
    for module, cls_name, method, span_name in SPAN_METHODS:
        __import__(module)
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, method, tracer.span(span_name, getattr(cls, method)))
    for module, cls_name, method, tally_name in TALLY_METHODS:
        __import__(module)
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, method, tracer.tally(tally_name, getattr(cls, method)))

    def compile_wrap(fn):
        counted = tracer.tally("compile.region", fn)

        @functools.wraps(fn)
        def wrapper(region):
            regions.add(id(region))
            return counted(region)

        return wrapper

    rebind("repro.sim.fast.compile", "compiled_region_for", compile_wrap)
    return regions
