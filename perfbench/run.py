"""Benchmark of the WEC reproduction's end-to-end commands.

    python3 perfbench/run.py --workload NAME [--seed 2003] [--seconds 30] [--trace 0|1]

Run from the root of a checkout.  Workloads (``BENCHMARK.json`` records
why each was chosen and which layer it exercises):

``campaign-cold``
    ``python -m repro fidelity run --scale 2e-4 --engine fast --jobs 1``
    against an empty result cache, as after any source edit.
``campaign-warm``
    The same command, back to back (closed loop, one client), against a
    cache filled during set-up by one untimed cold run with two workers.
``oracle-cells``
    ``run_program(..., engine="oracle")`` over the six benchmarks on the
    paper's headline pair ``orig`` and ``wth-wp-wec``.

Each invocation is one child process (``perfbench/child.py``), started
one at a time with a clean environment: no ``REPRO_*`` variable but a
private ``REPRO_CACHE_DIR``, ``PYTHONPATH`` set to the checkout's
``src``, and a temporary working directory.  Invocations repeat while at
least half of the next fits in ``--seconds``; the metrics are medians
over them.  Times are CPU times, host-normalised (``hostspeed.py``): each
timed child is pinned to one CPU beside a reference loop that tracks the
CPU's speed.  The workload seed (``--seed``) is handed to the program as
its ``--seed``.

With ``--trace 0`` the benchmark prints every end-to-end metric; with
``--trace 1`` it alternates untraced and traced invocations and prints
every per-layer metric (``layers.py``), including the tracing overhead.
Correctness checks run outside the timed part; a failing check is named
on standard error and the benchmark exits 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from child import HEADLINE_PAIR
from hostspeed import HostSpeedSampler, Sample, normalise, pin_to, timing_cpu
from layers import END_TO_END, PER_LAYER, layer_metrics, median, percentile
from layers import top_level_coverage
from tracing import clock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign-cold", "campaign-warm", "oracle-cells")
SCALE = "2e-4"
#: The committed scorecard of the campaign at its calibration seed.
BASELINE = "benchmarks/FIDELITY_baseline.json"
BASELINE_SEED = 2003
REQUIRED = ("src/repro/cli.py", "benchmarks/claims.json", BASELINE)
CHILD_TIMEOUT_S = 150
#: Children per run that stop after set-up, so that ``setup_s`` is a
#: median of many samples even when a workload's invocations are few.
SETUP_PROBES = 5


@dataclass
class Invocation:
    """One child process: when it was launched and what it reported."""

    launch: float
    exit_code: int
    report: Optional[Dict]
    #: Cells the invocation was asked to resolve.
    n_cells: int
    traced: bool
    workdir: Path
    export: Optional[Dict] = None
    #: Reference-loop timings of the run this child belongs to.
    ref: List[Sample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.report is not None

    @property
    def wall_run_s(self) -> float:
        return self.report["t_done"] - self.launch

    @property
    def wall_setup_s(self) -> float:
        return self.report["t_setup"] - self.launch

    @property
    def run_cpu_s(self) -> float:
        """CPU time until the outputs were written, host-normalised."""
        return normalise(self.report["cpu_done"], self.ref, self.launch,
                         self.report["t_done"])

    @property
    def setup_s(self) -> float:
        """CPU time until set-up was done, host-normalised."""
        return normalise(self.report["cpu_setup"], self.ref, self.launch,
                         self.report["t_setup"])

    @property
    def claims_in_band(self) -> Optional[int]:
        """Claims scored ``pass``; None when the invocation scored none."""
        if self.export is not None:
            return sum(1 for c in self.export["claims"]
                       if c["status"] == "pass")
        return self.report.get("claims_pass")


def failed_cells(invocations: List[Invocation]) -> int:
    """Failed cells; an invocation that did not exit 0 fails all of its cells."""
    failed = 0
    for inv in invocations:
        if inv.ok:
            failed += inv.report.get("executor", {}).get("failed", 0)
        else:
            failed += inv.n_cells
    return failed


def claim_values(export: Dict) -> List:
    return [(c["id"], c["status"], c.get("measured")) for c in export["claims"]]


class Bench:
    """Launches the children of one benchmark run and collects its checks."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.checks: List[tuple] = []
        self.setup_samples: List[float] = []
        #: Reference-loop timings of every timed child of the run.
        self.ref: List[Sample] = []
        self.cpu = timing_cpu()
        self._dirs = 0
        sys.path.insert(0, str(root / "src"))
        from repro.obs.fidelity import campaign_sections
        from repro.workloads import BENCHMARK_NAMES

        labels = {label for configs in campaign_sections().values()
                  for label in configs}
        self.campaign_cells = len(labels) * len(BENCHMARK_NAMES)
        self.oracle_cells = len(HEADLINE_PAIR) * len(BENCHMARK_NAMES)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self, cache_dir: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = str(self.root / "src")
        # The campaign records a git sha; keep git from searching above
        # the checkout.
        env["GIT_CEILING_DIRECTORIES"] = str(self.root.parent)
        return env

    def launch(self, args: List[str], cache_dir: Path, n_cells: int,
               traced: bool = False, flags: List[str] = (),
               timed: bool = True) -> Invocation:
        """Run one child: ``args`` is its mode, then the mode's arguments.

        A timed child runs pinned to ``self.cpu`` beside a host-speed
        sampler; an untimed one runs free, without.
        """
        cwd = self.fresh_dir("child")
        report = cwd / "report.json"
        flags = list(flags) + (["--trace"] if traced else [])
        cmd = ([sys.executable, str(HERE / "child.py"), str(report), args[0]]
               + flags + args[1:])
        with open(cwd / "stdout.txt", "wb") as out, \
                open(cwd / "stderr.txt", "wb") as err:
            pin = (lambda: pin_to(self.cpu)) if timed and self.cpu is not None \
                else None
            # The sampler starts after the fork: the parent forks with
            # one thread.
            launch = clock()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env(cache_dir),
                                    stdout=out, stderr=err, preexec_fn=pin)
            try:
                with (HostSpeedSampler(self.ref, self.cpu) if timed
                      else contextlib.nullcontext()):
                    code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = -1
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        data = json.loads(report.read_text()) if report.is_file() else None
        inv = Invocation(launch, code, data, n_cells, traced, cwd,
                         ref=self.ref)
        if not inv.ok:
            tail = (cwd / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"perfbench: child exited {code}:\n{tail}", file=sys.stderr)
        return inv

    def campaign_args(self, jobs: int = 1) -> List[str]:
        return ["campaign", "--", "fidelity", "run", "--scale", SCALE,
                "--engine", "fast", "--jobs", str(jobs),
                "--seed", str(self.seed),
                "--out", "export.json", "--md", "report.md"]

    def oracle_args(self) -> List[str]:
        return ["oracle", "--seed", str(self.seed), "--scale", SCALE,
                "--out", "outputs.json"]

    def campaign(self, cache_dir: Path, traced: bool = False,
                 jobs: int = 1) -> Invocation:
        # Only the warm workload's cache fill runs workers, and it is
        # not timed.
        inv = self.launch(self.campaign_args(jobs), cache_dir,
                          self.campaign_cells, traced, timed=jobs == 1)
        path = inv.workdir / "export.json"
        if inv.ok and path.is_file():
            inv.export = json.loads(path.read_text())
        return inv

    def oracle(self, traced: bool, check: bool) -> Invocation:
        return self.launch(self.oracle_args(), self.fresh_dir("cache"),
                           self.oracle_cells, traced,
                           ["--check"] if check else [])

    def probe_setup(self, args: List[str]) -> None:
        """Add ``SETUP_PROBES`` set-up-only children to ``setup_samples``."""
        if self.trace:
            return
        for _ in range(SETUP_PROBES):
            probe = self.launch(args, self.fresh_dir("cache"), 0,
                                flags=["--setup-only"])
            if probe.ok:
                self.setup_samples.append(probe.setup_s)

    def measure(self, one: Callable[[int, bool], Invocation]) -> List[Invocation]:
        """Invocations back to back while at least half of the next is
        expected to fit within ``seconds``.

        The next is expected to take as long as the last.  With tracing,
        untraced and traced invocations alternate, starting untraced, and
        there is at least one of each; without, there is at least one.
        """
        invs: List[Invocation] = []
        t0 = clock()
        last = 0.0
        while (len(invs) < 1 + self.trace
               or clock() - t0 + last / 2 <= self.seconds):
            start = clock()
            invs.append(one(len(invs), self.trace and len(invs) % 2 == 1))
            last = clock() - start
        return invs

    def fidelity_check(self, export: Path) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "repro", "fidelity", "check",
               str(self.root / BASELINE), "--new", str(export)]
        return subprocess.run(cmd, cwd=self.fresh_dir("check"),
                              env=self.env(self.fresh_dir("cache")),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# Workloads: each returns its measured invocations and records its checks
# ---------------------------------------------------------------------------


def campaign_cold(b: Bench) -> List[Invocation]:
    b.probe_setup(b.campaign_args())
    invs = b.measure(lambda i, traced: b.campaign(b.fresh_dir("cache"), traced))
    done = [inv for inv in invs if inv.export is not None]
    b.check("campaign-cold.cells",
            all(inv.report["n_cells"] == b.campaign_cells for inv in done),
            f"expected {b.campaign_cells} cells per campaign")
    b.check("campaign-cold.repeatable",
            all(claim_values(inv.export) == claim_values(done[0].export)
                for inv in done),
            "campaigns of one seed scored different claim values")
    if b.seed == BASELINE_SEED and done:
        proc = b.fidelity_check(done[0].workdir / "export.json")
        b.check("campaign-cold.fidelity-check", proc.returncode == 0,
                f"`repro fidelity check {BASELINE}` exited "
                f"{proc.returncode}:\n{proc.stdout[-2000:]}")
    return invs


def campaign_warm(b: Bench) -> List[Invocation]:
    cache = b.fresh_dir("cache")
    # The fill is untimed set-up; two workers give bit-identical results
    # in about half the time, which the run-time budget needs.
    fill = b.campaign(cache, jobs=2)
    b.check("campaign-warm.fill", fill.export is not None,
            "the untimed cold run that fills the cache failed")
    if fill.export is None:
        return [fill]
    b.probe_setup(b.campaign_args())
    invs = b.measure(lambda i, traced: b.campaign(cache, traced))
    cold = claim_values(fill.export)
    b.check("campaign-warm.claims-equal-cold",
            all(inv.export is not None and claim_values(inv.export) == cold
                for inv in invs),
            "a warm export's claim values differ from the cold export's")
    b.check("campaign-warm.all-hits",
            all(inv.report["executor"]["hits"] == b.campaign_cells
                for inv in invs if inv.ok),
            "a warm invocation simulated cells instead of reading the cache")
    return invs


def oracle_cells(b: Bench) -> List[Invocation]:
    b.probe_setup(b.oracle_args())
    invs = b.measure(lambda i, traced: b.oracle(traced, check=i == 0))
    first = invs[0]
    mismatches = first.report.get("fast_mismatches") if first.ok else None
    b.check("oracle-cells.fast-equals-oracle", mismatches == [],
            "SimResult fields differ between engines: "
            + "; ".join((mismatches or ["no result"])[:5]))
    outputs = [(inv.workdir / "outputs.json").read_text()
               for inv in invs if inv.ok]
    b.check("oracle-cells.repeatable",
            all(text == outputs[0] for text in outputs),
            "oracle invocations of one seed gave different results")
    return invs


RUNNERS = {
    "campaign-cold": campaign_cold,
    "campaign-warm": campaign_warm,
    "oracle-cells": oracle_cells,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(invs: List[Invocation],
               setup_probes: List[float]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric, one per untraced invocation.

    ``setup_s`` also has a sample from each set-up probe.
    """
    ok = [inv for inv in invs if inv.ok and not inv.traced]
    return {
        "run_cpu_s": [inv.run_cpu_s for inv in ok],
        "setup_s": [inv.setup_s for inv in ok] + setup_probes,
        "sim_kinstr_per_cpu_s": [
            inv.report["sim"]["instructions"] / 1e3 / inv.run_cpu_s
            for inv in ok],
        "peak_rss_mb": [inv.report["rss_kb"] / 1024 for inv in ok],
        "claims_in_band": [inv.claims_in_band for inv in ok
                           if inv.claims_in_band is not None],
    }


def per_layer(invs: List[Invocation]) -> Dict[str, List[float]]:
    """Samples of every per-layer metric, one per traced invocation."""
    traced = [inv for inv in invs if inv.ok and inv.traced]
    plain = [inv.run_cpu_s for inv in invs if inv.ok and not inv.traced]
    samples: Dict[str, List[float]] = {name: [] for name, _u, _b in PER_LAYER}
    for inv in traced:
        for name, value in layer_metrics(inv.report, inv.launch).items():
            samples[name].append(value)
    if traced and plain:
        samples["trace.overhead_s"] = [
            median([inv.run_cpu_s for inv in traced]) - median(plain)]
    return samples


def tail_percentile(n: int) -> Optional[int]:
    """The highest reported percentile with at least ten samples above it."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def describe(name: str, unit: str, values: List[float]) -> str:
    line = f"  {name:28s} {median(values) if values else 0.0:12.6g} {unit:9s}"
    line += f" median of n={len(values)}"
    q = tail_percentile(len(values))
    if q is not None:
        line += f", p{q} {percentile(values, q)[0]:.6g}"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of a repro checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # Cached bytecode for every module before any timing, as a user's
    # installed tree has it; otherwise the first child pays compilation.
    compileall.compile_dir(str(root / "src"), quiet=1)

    bench = Bench(root, args.seed, args.seconds, bool(args.trace))
    try:
        invs = RUNNERS[args.workload](bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(inv.n_cells for inv in invs)
    failed = failed_cells(invs)
    print(f"workload {args.workload}, seed {args.seed}: {len(invs)} "
          f"invocation(s), {sum(inv.traced for inv in invs)} traced")
    for i, inv in enumerate(invs):
        timing = (f"run_cpu_s {inv.run_cpu_s:.4f} setup_s {inv.setup_s:.4f} "
                  f"(wall {inv.wall_run_s:.4f}, {inv.wall_setup_s:.4f})"
                  if inv.ok else "no report")
        print(f"  #{i:<3d} {'traced' if inv.traced else 'plain':8s} "
              f"exit {inv.exit_code}  {timing}")
    table = PER_LAYER if args.trace else END_TO_END
    samples = (per_layer(invs) if args.trace
               else end_to_end(invs, bench.setup_samples))
    for name, unit, _better in table:
        print(describe(name, unit, samples[name]))
    print(f"  {'failed_frac':28s} {failed / attempted:12.6g} ratio     "
          f"({failed} of {attempted} cells)")
    traced = [inv for inv in invs if inv.ok and inv.traced]
    if traced:
        top, uncovered = top_level_coverage(traced[0].report, traced[0].launch)
        print(f"top-level spans of the first traced invocation "
              f"(wall run_s {traced[0].wall_run_s:.4f} s):")
        for name, secs in top.items():
            print(f"  {name:28s} {secs:12.6g} s")
        print(f"  {'uncovered':28s} {uncovered:12.6g} s")
    for name, passed, detail in bench.checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
        if not passed:
            print(f"perfbench: check {name} failed: {detail}", file=sys.stderr)

    correct = all(passed for _n, passed, _d in bench.checks) and failed == 0
    metrics = {name: {"value": median(samples[name]) if samples[name] else 0.0,
                      "unit": unit}
               for name, unit, _better in table}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
