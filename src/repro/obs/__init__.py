"""repro.obs — structured event tracing, interval metrics, trace export.

The observability subsystem threads a :class:`~repro.obs.tracer.Tracer`
handle through every simulator layer (scheduler, thread units, caches,
sidecar, L2, branch units).  The default is no tracer at all — hot paths
pay a single ``is not None`` test — while an attached
:class:`RingBufferTracer` records the timeline the paper's argument is
made of: wrong-path loads firing after branch resolution, wrong threads
prefetching the next invocation's working set, WEC hits chaining
next-line prefetches.

Quickstart::

    from repro import run_simulation, named_config
    from repro.obs.export import write_chrome_trace
    from repro.obs.tracer import IntervalMetrics, RingBufferTracer

    tracer = RingBufferTracer(metrics=IntervalMetrics(window=4096))
    result = run_simulation("181.mcf", named_config("wth-wp-wec"),
                            tracer=tracer)
    write_chrome_trace(tracer.events(), "trace.json",
                       interval_series=result.interval_series)
    # open trace.json in https://ui.perfetto.dev

Or from the command line::

    python -m repro trace 181.mcf wth-wp-wec --out trace.json

The **performance observatory** rides on the same layer: a persistent
run ledger (:mod:`repro.obs.ledger` — append-only JSONL under
``$REPRO_PERF_DIR``), a benchstat-style A/B comparison engine
(:mod:`repro.obs.compare` — bootstrap CIs, Mann-Whitney significance,
suite rollups) and host-side self-profiling
(:mod:`repro.obs.hostprof` — which simulator component the wall-clock
went to).  CLI surface: ``repro perf record | compare | report``.

**Provenance attribution** (:mod:`repro.obs.attrib`) is the third
pillar: an :class:`AttributionCollector` tags every fill into the
L1D / WEC / VC / prefetch sidecar with its provenance (correct demand,
wrong-path, wrong-thread, next-line or stream prefetch, victim), tracks
block lifetimes fill → first correct use → eviction, and classifies
them useful / late / unused / polluting.  ``repro explain`` renders the
summary; ``repro explain --vs`` diffs two configs.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, sampling
semantics, the Perfetto how-to, the performance-observatory guide and
the attribution model.

The package re-exports nothing: import the submodule that holds a name,
so that a command loads only the layers it uses.
"""
