"""Static analysis and runtime sanitizing for the WEC reproduction.

Two complementary halves guard the determinism axiom the result cache,
perf ledger, and regression gate all rest on ("same config + same code
=> same metrics"):

``repro.lint.rules`` / ``repro.lint.engine``
    An AST-based static pass (stdlib :mod:`ast` + :mod:`tokenize` only)
    with a small catalog of rules encoding the repo's real invariants —
    no wall-clock or environment reads in sim paths, no global RNG
    state, no unordered iteration feeding sim state or serialization,
    frozen-dataclass hygiene for hashed configs, typed tracer event
    kinds, and no blanket ``except``.  Exposed as ``repro lint`` with
    the established 0/1/2 exit convention.

``repro.lint.flow``
    A whole-program pass (``repro lint --flow``) on a project call
    graph with per-function effect summaries: fast-engine/oracle
    counter-order parity (ENG001/ENG002 via ``# parity:`` tags) and
    interprocedural DET001/DET004 — a wall-clock or environment read
    in an exempt module is flagged at the call site that makes it
    reachable from a scoped layer.

``repro.lint.sanitize``
    A runtime sanitizer (``REPRO_SANITIZE=1`` or ``--sanitize``) that
    asserts the paper's architectural invariants while a simulation
    runs: wrong-execution loads never write architectural state,
    WEC/L1D fills stay mutually exclusive, aborted wrong threads never
    fork or write back, ring communication stays unidirectional, and
    per-TU cycles are monotone.  Violations raise a structured
    :class:`~repro.lint.sanitize.SanitizerError` naming the TU, cycle,
    and event; sanitized runs are bit-identical to unsanitized runs.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog, the allow-tag
syntax (``# lint: allow(RULE reason)``), and the baseline workflow.

The package re-exports nothing, so that the simulation driver can load
the sanitizer without the static analyser: import from the submodules
(``repro.lint.engine``, ``repro.lint.rules``, ``repro.lint.sarif``,
``repro.lint.sanitize``).
"""
