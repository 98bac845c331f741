"""The import graph follows the work.

A command loads the layers it uses and no others: importing the CLI and
the sweep layer loads neither numpy nor a simulation engine nor the
linter, and a ``fidelity run`` whose every cell is a cache hit never
loads numpy.  The engines load on the first cache miss.  Each check
runs in a fresh interpreter, since this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a command must not load unless it simulates or lints.
HEAVY = (
    "numpy",
    "repro.sim.driver",
    "repro.sim.fast.engine",
    "repro.sta.machine",
    "repro.lint.engine",
)


def run_python(code: str, cwd: Path, **env_extra: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_engine(tmp_path):
    loaded = run_python(
        "import json, sys\n"
        "import repro.cli, repro.sim.sweep\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n",
        tmp_path,
    )
    assert loaded == []


def test_engine_runs_load_no_linter(tmp_path):
    # The driver needs only the runtime sanitizer, not the static analyser.
    loaded = run_python(
        "import json, sys\n"
        "import repro.sim.driver\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.startswith('repro.lint.')]))\n",
        tmp_path,
    )
    assert loaded == ["repro.lint.sanitize"]


#: Runs one tiny campaign through the CLI and reports the sweep's cache
#: counts and which heavy modules were loaded by the end.
CAMPAIGN = """
import json, sys
import repro.cli
import repro.sim.sweep as sweep

inner = sweep.run_cells
stats = {}

def run_cells(cells, *args, **kwargs):
    outcome = inner(cells, *args, **kwargs)
    stats.update(n=outcome.stats.n_cells, hits=outcome.stats.cache_hits)
    return outcome

sweep.run_cells = run_cells
code = repro.cli.main(["fidelity", "run", "--scale", "2e-5",
                       "--sections", "fig16", "--engine", "fast",
                       "--jobs", "1", "--dir", "perf", "--out", "out.json"])
stats["exit"] = code
stats["loaded"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(stats))
"""


def test_warm_campaign_never_imports_numpy(tmp_path):
    script = f"HEAVY = {HEAVY!r}\n" + CAMPAIGN
    cache = str(tmp_path / "cache")
    cold = run_python(script, tmp_path, REPRO_CACHE_DIR=cache)
    assert cold["exit"] == 0
    assert cold["hits"] == 0 and cold["n"] > 0
    # A cache miss is what loads the engines.
    assert "repro.sim.fast.engine" in cold["loaded"]
    warm = run_python(script, tmp_path, REPRO_CACHE_DIR=cache)
    assert warm["exit"] == 0
    assert warm["hits"] == warm["n"] == cold["n"]
    assert warm["loaded"] == []


def test_every_public_name_resolves(tmp_path):
    # In a fresh interpreter: `import repro` alone stays light, and each
    # name in __all__ loads its module on first access.
    got = run_python(
        "import json, sys\n"
        "import repro\n"
        "light = 'numpy' not in sys.modules\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "print(json.dumps({'light': light, 'missing': missing}))\n",
        tmp_path,
    )
    assert got == {"light": True, "missing": []}
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
