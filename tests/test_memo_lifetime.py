"""Fast-engine memos live exactly as long as their program.

A program owns its compiled regions and branch streams; nothing in a
run refers back to it or forms a reference cycle, so reference counting
alone frees a run's machine when the run returns and a program's memos
when the program is dropped.  A serial sweep drops each benchmark's
program after its last cell, and a program built afterwards, even one
whose objects reuse freed ids, gets exactly a fresh interpreter's
results.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro import SimParams, named_config
from repro.sim.executor import SweepCell, _json_default, run_cells

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = SimParams(seed=7, scale=2e-5, warmup_invocations=0)


@pytest.fixture(autouse=True)
def _no_env_sanitizer(monkeypatch):
    # The fast engine refuses a process-wide REPRO_SANITIZE=1 (the CI
    # sanitize leg) by design; these tests pin their engines.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def as_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=_json_default)


#: Runs one fast simulation with the cyclic collector off and reports
#: which of the run's objects are still alive, before and after the
#: program is dropped.  The engine classes are swapped for subclasses
#: only so that their instances accept weak references.
LIFETIME = """
import gc, json, weakref
gc.disable()
from repro import SimParams, named_config
from repro.sim import driver
from repro.sim.fast import engine
from repro.workloads.benchmarks import build_benchmark

refs = []

class TU(engine._FastTU):
    def __init__(self, *args):
        super().__init__(*args)
        refs.append(("tu", weakref.ref(self)))

class Machine(engine._FastMachine):
    def __init__(self, *args):
        super().__init__(*args)
        refs.append(("machine", weakref.ref(self)))

engine._FastTU = TU
driver._FastMachine = Machine
program = build_benchmark("181.mcf", scale=2e-5)
driver.run_program(program, named_config("wth-wp-wec"),
                   SimParams(seed=7, scale=2e-5), engine="fast")
after_run = sorted({name for name, ref in refs if ref() is not None})
refs.append(("program", weakref.ref(program)))
refs.extend(("compiled", weakref.ref(c))
            for c in program.fast_memo.regions.values())
refs.extend(("region", weakref.ref(r)) for r in program.body)
n_refs = len(refs)
del program
print(json.dumps({
    "n_refs": n_refs,
    "after_run": after_run,
    "after_del": sorted({name for name, ref in refs if ref() is not None}),
}))
"""


def test_run_and_program_die_by_reference_counting():
    out = run_python(LIFETIME)
    # A machine, its TUs, the program, its compiled regions and regions.
    assert out["n_refs"] > 4
    assert out["after_run"] == []
    assert out["after_del"] == []


def test_serial_sweep_releases_each_program(monkeypatch):
    import repro.sim.executor as executor
    import repro.workloads.benchmarks as benchmarks

    # Programs an earlier parallel sweep left in this process would not
    # be rebuilt, and so not be tracked below.
    monkeypatch.setattr(executor, "_worker_programs", {})
    built = []
    real = benchmarks.build_benchmark

    def tracking(name, scale=2e-4):
        program = real(name, scale=scale)
        built.append(weakref.ref(program))
        return program

    monkeypatch.setattr(benchmarks, "build_benchmark", tracking)
    cells = [SweepCell(b, name, named_config(name), TINY)
             for b in ("175.vpr", "181.mcf")
             for name in ("orig", "wth-wp-wec")]
    enabled = gc.isenabled()
    gc.disable()  # only reference counting may free them
    try:
        fast = run_cells(cells, cache=False, engine="fast")
        alive = [ref for ref in built if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(built) == 2
    assert alive == []
    assert executor._worker_programs == {}
    oracle = run_cells(cells, cache=False, engine="oracle")
    assert fast.results.keys() == oracle.results.keys()
    for key, result in fast.results.items():
        assert as_json(result) == as_json(oracle.results[key]), key


#: One fast cell at seed 8, in an interpreter that has built nothing.
FRESH = """
import json
from repro import SimParams, named_config
from repro.sim.driver import run_program
from repro.sim.executor import _json_default
r = run_program("181.mcf", named_config("wth-wp-wec"),
                SimParams(seed=8, scale=2e-5, warmup_invocations=0),
                engine="fast")
print(json.dumps({"result": json.dumps(r.to_dict(), sort_keys=True,
                                       default=_json_default)}))
"""


def test_program_built_after_a_release_matches_a_fresh_interpreter():
    cfg = named_config("wth-wp-wec")
    run_cells([SweepCell("181.mcf", "wth-wp-wec", cfg, TINY)],
              cache=False, engine="fast")
    seed8 = SimParams(seed=8, scale=2e-5, warmup_invocations=0)
    again = run_cells([SweepCell("181.mcf", "wth-wp-wec", cfg, seed8)],
                      cache=False, engine="fast")
    result = again.results[("181.mcf", "wth-wp-wec")]
    assert as_json(result) == run_python(FRESH)["result"]


def test_paths_past_the_cap_match_the_oracle(monkeypatch):
    # With one memoized path and trace per region, almost every path is
    # built on demand and dropped with its trace; the engine's per-run
    # memos, keyed by id(path), must never serve one path's data for
    # another that reuses its id.
    import repro.sim.executor as executor
    import repro.sim.fast.compile as compile_mod

    monkeypatch.setattr(executor, "_worker_programs", {})
    monkeypatch.setattr(compile_mod, "_MAX_PATHS", 1)
    monkeypatch.setattr(compile_mod, "_MAX_TRACES", 1)
    cells = [SweepCell(b, name, named_config(name), TINY)
             for b in ("175.vpr", "181.mcf")
             for name in ("orig", "wth-wp-wec")]
    fast = run_cells(cells, cache=False, engine="fast")
    oracle = run_cells(cells, cache=False, engine="oracle")
    assert fast.stats.failed == 0
    for key, result in fast.results.items():
        assert as_json(result) == as_json(oracle.results[key]), key
