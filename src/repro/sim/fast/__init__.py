"""Fast-path simulation engine (``engine="fast"``).

Compiled, memoized trace replay with flat dict/list machine state —
bit-identical ``SimResult`` to the oracle interpreter, ~10×+ faster.
:mod:`repro.sim.fast.engine` provides the region runner the driver's
one run loop (:func:`repro.sim.driver.run_program`) drives; see it for
the exactness contract and ``docs/ARCHITECTURE.md`` ("Fast engine") for
the design.
"""
