"""Simulation driving, sweeps, results and table formatting.

Import the submodules directly: :mod:`~repro.sim.driver` (the run loop,
which loads both engines and numpy), :mod:`~repro.sim.executor` (cells,
keys, the result cache), :mod:`~repro.sim.sweep`, :mod:`~repro.sim.results`.
"""
