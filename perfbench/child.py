"""One invocation of a benchmark workload, run in its own process.

    python3 perfbench/child.py REPORT campaign [--trace] [--setup-only]
                               -- FIDELITY-RUN-ARGS
    python3 perfbench/child.py REPORT oracle --seed N --scale S --out PATH
                               [--trace] [--check] [--setup-only]

``campaign`` runs ``repro fidelity run`` through ``repro.cli.main``, as
``python -m repro`` does.  ``oracle`` builds the six benchmark programs
and runs each on the paper's headline pair of configurations with the
oracle engine.  Either way the child writes a JSON report to REPORT: its
timestamps (same clock as the parent's), the CPU time it had used at
set-up and at the end, peak RSS, the cells it resolved
and, with ``--trace``, its spans and tallies.  ``--check`` (oracle only)
scores the registry claims that the headline pair supports and re-runs
every cell on the fast engine, after the timed part, reporting each
field that differs.  ``--setup-only`` stops once set-up is done: the
CLI imported and, in ``oracle`` mode, the programs built.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HEADLINE_PAIR = ("orig", "wth-wp-wec")


def _cpu_s() -> float:
    """CPU seconds (user + system, every thread) used since the start."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _sim_totals(cells, results) -> dict:
    """Simulated counts summed over the resolved cells of one run."""
    totals = dict.fromkeys(
        ("instructions", "cycles", "l1_misses", "l2_misses",
         "effective_misses", "mispredicts", "wec_sidecar_hits",
         "wec_wrong_loads", "wec_useful_wrong_hits"), 0)
    for key, config in cells:
        result = results.get(key)
        if result is None:
            continue
        totals["instructions"] += int(result.instructions)
        totals["cycles"] += float(result.total_cycles)
        totals["l1_misses"] += int(result.l1_misses)
        totals["l2_misses"] += int(result.l2_misses)
        totals["effective_misses"] += int(result.effective_misses)
        totals["mispredicts"] += int(result.mispredicts)
        if config.tu.sidecar.kind.value == "wec":
            totals["wec_sidecar_hits"] += int(result.sidecar_hits)
            totals["wec_wrong_loads"] += int(result.wrong_loads)
            totals["wec_useful_wrong_hits"] += int(result.useful_wrong_hits)
    return totals


def run_campaign(argv, tracer, setup_only=False):
    import repro.cli
    import repro.sim.sweep as sweep

    t_import = time.monotonic()
    cpu_import = _cpu_s()
    if setup_only:
        return 0, {"t_setup": t_import, "t_done": t_import,
                   "cpu_setup": cpu_import, "cpu_done": cpu_import}
    captured = {}
    if tracer is not None:
        tracer.record("cli.import", T_START, t_import)
        from tracing import instrument

        regions = instrument(tracer)
    else:
        regions = None

    # The campaign's cells and outcome, kept for the report (one wrapper
    # around one call: no timing is added in untraced runs).
    inner = sweep.run_cells

    def run_cells(cells, *args, **kwargs):
        captured["cells"] = cells = list(cells)
        try:
            captured["outcome"] = outcome = inner(cells, *args, **kwargs)
        except Exception as exc:  # keep a failed grid's partial outcome
            captured["outcome"] = getattr(exc, "outcome", None)
            raise
        return outcome

    sweep.run_cells = run_cells
    code = repro.cli.main(argv)
    t_done = time.monotonic()
    report = {"t_setup": t_import, "t_done": t_done,
              "cpu_setup": cpu_import, "cpu_done": _cpu_s(),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    outcome = captured.get("outcome")
    cells = captured.get("cells", [])
    report["n_cells"] = len(cells)
    if outcome is not None:
        stats = outcome.stats
        report["executor"] = {
            "hits": stats.cache_hits, "misses": stats.cache_misses,
            "executed": stats.executed, "failed": stats.failed,
            "run_keys": [r.key for r in stats.records if r.source == "run"],
        }
        report["sim"] = _sim_totals(
            [(c.grid_key, c.config) for c in cells], outcome.results)
    if regions is not None:
        report["regions_compiled"] = len(regions)
    return code, report


def run_oracle(args, tracer):
    import repro.cli  # noqa: F401  (set-up includes the CLI import)

    t_import = time.monotonic()
    if tracer is not None:
        tracer.record("cli.import", T_START, t_import)
        from tracing import instrument

        instrument(tracer)
    from repro.common.config import SimParams
    from repro.sim import driver
    from repro.sta.configs import named_config
    from repro.workloads import BENCHMARK_NAMES
    from repro.workloads import benchmarks as workloads

    params = SimParams(seed=args.seed, scale=args.scale)
    programs = {name: workloads.build_benchmark(name, scale=args.scale)
                for name in BENCHMARK_NAMES}
    t_setup = time.monotonic()
    cpu_setup = _cpu_s()
    if args.setup_only:
        return 0, {"t_setup": t_setup, "t_done": t_setup,
                   "cpu_setup": cpu_setup, "cpu_done": cpu_setup}
    configs = {label: named_config(label) for label in HEADLINE_PAIR}
    grid = {}
    for name in BENCHMARK_NAMES:
        for label, config in configs.items():
            grid[(name, label)] = driver.run_program(
                programs[name], config, params, engine="oracle")
    outputs = {f"{b}/{label}": r.to_dict() for (b, label), r in grid.items()}
    Path(args.out).write_text(
        json.dumps(outputs, sort_keys=True, default=lambda o: o.item()),
        encoding="utf-8")
    t_done = time.monotonic()
    report = {"t_setup": t_setup, "t_done": t_done,
              "cpu_setup": cpu_setup, "cpu_done": _cpu_s(),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "n_cells": len(grid)}
    report["sim"] = _sim_totals(
        [((b, label), configs[label]) for b, label in grid], grid)

    if args.check:
        from repro.obs.fidelity import evaluate_claims, load_claims

        # Only claims over the headline pair can be scored on this grid;
        # the rest need cells the campaign has and score "skipped".
        scored = evaluate_claims(load_claims(), grid, ["tables", "fig11"])
        report["claims_pass"] = sum(1 for s in scored if s.status == "pass")
        mismatches = []
        for (name, label), result in grid.items():
            fast = driver.run_program(programs[name], configs[label], params,
                                      engine="fast").to_dict()
            want = result.to_dict()
            fields = sorted(k for k in want if want[k] != fast.get(k))
            if fields:
                mismatches.append(f"{name}/{label}: {', '.join(fields)}")
        report["fast_mismatches"] = mismatches
    return 0, report


def main(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    parser.add_argument("mode", choices=("campaign", "oracle"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--scale", type=float, default=2e-4)
    parser.add_argument("--out", default="outputs.json")
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    if args.mode == "campaign":
        code, report = run_campaign(cli_args, tracer, args.setup_only)
    else:
        code, report = run_oracle(args, tracer)
    report["t_start"] = T_START
    report["exit"] = code
    if tracer is not None:
        report["spans"] = tracer.spans
        report["tallies"] = tracer.tallies
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    exit_code = main(sys.argv[1:])
    # The report is written and no metric covers interpreter teardown:
    # skip it, so that a run fits more invocations.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(exit_code)
