"""Top-level simulation driver: run one benchmark on one machine.

This is the main public entry point::

    from repro import run_simulation, named_config

    result = run_simulation("181.mcf", named_config("wth-wp-wec"))
    base = run_simulation("181.mcf", named_config("orig"))
    print(result.relative_speedup_pct_vs(base))

:func:`run_program` is the one run loop for both engines.  An engine
contributes a region runner — the oracle's
:class:`~repro.sta.scheduler.Scheduler` or the fast engine's
``_FastMachine`` — whose ``run_parallel_region`` and
``run_sequential_region`` return a
:class:`~repro.sta.scheduler.RegionResult`, plus a machine that can
reset and flatten its counters.  Warm-up, region records, profiler
sections and result assembly live here only.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..common.config import MachineConfig, SimParams
from ..common.errors import ConfigError
from ..common.rng import StreamFactory
from ..lint.sanitize import maybe_sanitizer
from ..obs.tracer import IntervalMetrics
from ..sta.machine import Machine
from ..sta.scheduler import Scheduler
from ..workloads.benchmarks import build_benchmark
from ..workloads.program import ParallelRegionSpec, Program
from ..workloads.tracegen import TraceGenerator
from .fast.engine import _FastMachine
from .results import ENGINES, SimResult

__all__ = ["OBSERVER_POLICY_MSG", "run_simulation", "run_program"]

#: The one observer/engine policy (docs/OBSERVABILITY.md, "Engines and
#: observers"): every event-level observer — tracer, sanitizer (kwarg
#: *or* ``REPRO_SANITIZE=1``), attribution collector — requires the
#: oracle interpreter, and asking the fast engine to honour one is
#: always the same loud :class:`ConfigError`, never a warning or a
#: silent fallback.  ``{names}`` lists the active observers.
OBSERVER_POLICY_MSG = (
    "engine='fast' has no event-level observer hooks, but {names} "
    "is/are active; re-run with --engine oracle (engine='oracle' / "
    "REPRO_ENGINE=oracle) to keep the observer(s), or drop them to "
    "keep the fast engine"
)


def run_program(
    program: Union[str, Program],
    config: MachineConfig,
    params: SimParams = SimParams(),
    tracer=None,
    profiler=None,
    sanitizer=None,
    attrib=None,
    engine: Optional[str] = None,
) -> SimResult:
    """Simulate ``program`` (benchmark name or prebuilt program) on ``config``.

    When given a name the benchmark model is built at ``params.scale``;
    passing a :class:`Program` lets callers reuse one across configs
    (they are stateless, so this is purely a construction-time saving).

    ``tracer`` is an optional :mod:`repro.obs` sink (RingBufferTracer,
    IntervalMetrics, ...).  It is deliberately *not* part of
    :class:`SimParams`: params are hashed into the sweep executor's
    result-cache keys and shipped to worker processes, and a stateful
    tracer belongs in neither.  Tracing never perturbs simulated timing
    or the RNG streams, so traced and untraced runs produce identical
    results.

    ``profiler`` is an optional :class:`~repro.obs.hostprof.HostProfiler`
    collecting *host* wall-clock attribution (which simulator component
    the real time went to).  Like the tracer it never touches simulated
    state, so profiled runs are bit-identical to unprofiled ones.  Both
    engines report ``scheduler.parallel`` / ``scheduler.sequential``;
    the oracle adds its per-component ``tu.*`` sections.

    ``sanitizer`` is an optional :class:`~repro.lint.sanitize.Sanitizer`
    asserting the paper's architectural invariants while the run
    executes (wrong execution never writes state, WEC/L1D exclusivity,
    ring direction, cycle monotonicity).  Like the tracer/profiler it
    stays out of hashed :class:`SimParams` and is read-only on sim
    state, so sanitized runs are bit-identical too.

    ``attrib`` is an optional
    :class:`~repro.obs.attrib.AttributionCollector` tagging every fill
    with its provenance and tracking block lifetimes (fill → first
    correct use → eviction).  Same discipline as the tracer: out of
    hashed params, read-only on sim state, bit-identical results; its
    summary lands on :attr:`SimResult.attribution`.

    ``engine`` picks the implementation: ``"oracle"`` (the default, and
    what ``None`` means) is the event-level interpreter; ``"fast"`` is
    the compiled trace-replay engine, bit-identical on every
    :class:`SimResult` field but without event-level observer hooks.

    The driver reads one environment variable: with ``sanitizer`` left
    ``None``, ``REPRO_SANITIZE=1`` creates one (on the fast engine it
    raises the observer-policy error instead).  Everything else comes
    in as arguments, since results are cached under config/params
    fingerprints: the ``REPRO_ENGINE`` knob is resolved by the executor
    and the CLI and passed down explicitly.
    """
    if isinstance(program, str):
        program = build_benchmark(program, scale=params.scale)
    if engine is None:
        engine = "oracle"
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r} (expected one of {', '.join(ENGINES)})"
        )
    if engine == "fast":
        # One policy for every event-level observer (OBSERVER_POLICY_MSG
        # above), whether passed as a kwarg or auto-created from
        # REPRO_SANITIZE=1.
        blockers = [
            name
            for name, obs in (
                ("tracer", tracer), ("sanitizer", sanitizer),
                ("attrib", attrib),
            )
            if obs is not None
        ]
        if sanitizer is None and maybe_sanitizer(None) is not None:
            blockers.append("sanitizer (from REPRO_SANITIZE=1)")
        if blockers:
            raise ConfigError(
                OBSERVER_POLICY_MSG.format(names=", ".join(blockers))
            )
        machine = runner = _FastMachine(config, params)
        machine.bind_branch_stream(program)
    else:
        sanitizer = maybe_sanitizer(sanitizer)
        machine_tracer = tracer
        if profiler is not None and tracer is not None:
            # Route the machine's emits through a timing proxy so tracing
            # cost is attributed to "tracer.emit" instead of the component
            # sections; the caller keeps its direct tracer reference.
            machine_tracer = profiler.wrap_tracer(tracer)
        machine = Machine(config, params, tracer=machine_tracer,
                          profiler=profiler, sanitizer=sanitizer,
                          attrib=attrib)
        runner = Scheduler(machine, TraceGenerator(StreamFactory(params.seed)))

    total = 0.0
    par_cycles = 0.0
    seq_cycles = 0.0
    wrong_thread_loads = 0
    region_records = []

    warmup = min(params.warmup_invocations, program.n_invocations - 1)
    stats_live = warmup == 0

    perf_clock = (  # lint: allow(DET001 host profiling; never feeds sim state)
        time.perf_counter if profiler is not None else None
    )

    for invocation, region in program.schedule():
        if not stats_live and invocation >= warmup:
            # Warm-up complete: measure from warmed state.
            machine.reset_statistics()
            if attrib is not None:
                attrib.reset_measurement()
            stats_live = True
        t0 = perf_clock() if perf_clock is not None else 0.0
        if isinstance(region, ParallelRegionSpec):
            rr = runner.run_parallel_region(region, invocation)
            if perf_clock is not None:
                profiler.add("scheduler.parallel", perf_clock() - t0)
            if stats_live:
                par_cycles += rr.cycles
                wrong_thread_loads += rr.wrong_thread_loads
        else:
            rr = runner.run_sequential_region(region, invocation)
            if perf_clock is not None:
                profiler.add("scheduler.sequential", perf_clock() - t0)
            if stats_live:
                seq_cycles += rr.cycles
        if not stats_live:
            continue
        total += rr.cycles
        if params.record_regions:
            region_records.append(
                {
                    "name": rr.name,
                    "kind": rr.kind,
                    "invocation": rr.invocation,
                    "cycles": rr.cycles,
                    "iterations": rr.iterations,
                }
            )

    if engine == "fast":
        machine.publish_branch_stream()
    interval_series = None
    if tracer is not None:
        metrics = getattr(tracer, "metrics", None)
        if metrics is None and isinstance(tracer, IntervalMetrics):
            metrics = tracer
        if metrics is not None:
            interval_series = metrics.series()
    result = SimResult.from_counters(
        machine.collect_stats(),
        benchmark=program.name,
        config=config.name,
        n_tus=config.n_thread_units,
        total_cycles=total,
        parallel_cycles=par_cycles,
        sequential_cycles=seq_cycles,
        wrong_thread_loads=wrong_thread_loads,
        region_cycles=region_records,
        seed=params.seed,
        scale=params.scale,
        interval_series=interval_series,
    )
    if attrib is not None:
        result.attribution = attrib.summary(instructions=result.instructions)
    return result


#: The same function under the name the README and most callers use.
run_simulation = run_program
