"""Headline-number regression guard at the calibrated scale.

The bench suite asserts the full figure set; this (slow) test pins just
the headline quantities under plain ``pytest tests/`` so that a change
which silently breaks the reproduction cannot land green.

It runs through the *performance observatory* path end to end: the
sweep executor records every cell into a ledger, the bands are asserted
from the recorded metrics, and the whole record set is compared
benchstat-style against a checked-in reference export
(``tests/data/headline_reference.json``).  Refreshing the reference
after an intentional model change::

    PYTHONPATH=src python - <<'EOF'
    import tempfile
    from repro import SimParams, named_config
    from repro.obs.ledger import Ledger, write_export
    from repro.sim.executor import SweepCell, run_cells
    params = SimParams(seed=2003, scale=2e-4)
    configs = {n: named_config(n) for n in ("orig", "wth-wp-wec", "nlp")}
    cells = [SweepCell(b, n, c, params)
             for b in ("175.vpr", "164.gzip", "181.mcf", "197.parser",
                       "183.equake", "177.mesa")
             for n, c in configs.items()]
    with tempfile.TemporaryDirectory() as d:
        run_cells(cells, jobs=4, cache=False, perf=True, perf_dir=d)
        write_export(Ledger(d).records(),
                     "tests/data/headline_reference.json")
    EOF
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import SimParams, named_config
from repro.common.stats import weighted_mean_speedup
from repro.obs.compare import compare_records
from repro.obs.ledger import Ledger, load_records
from repro.sim.executor import SweepCell, run_cells

BENCHES = ("175.vpr", "164.gzip", "181.mcf", "197.parser",
           "183.equake", "177.mesa")
CONFIGS = ("orig", "wth-wp-wec", "nlp")

REFERENCE = Path(__file__).parent / "data" / "headline_reference.json"

#: Two-sided drift tolerance vs the checked-in reference, per group, on
#: total_cycles.  The legacy absolute bands (e.g. wec suite average in
#: 6–14% around a ~10% center) allowed roughly ±40% relative movement;
#: 35% keeps that head-room while still catching real breakage.
DRIFT_TOLERANCE_PCT = 35.0


@pytest.mark.slow
def test_headline_numbers_in_band(tmp_path):
    params = SimParams(seed=2003, scale=2e-4)
    configs = {name: named_config(name) for name in CONFIGS}
    cells = [
        SweepCell(bench, name, cfg, params)
        for bench in BENCHES
        for name, cfg in configs.items()
    ]
    # cache=False so every cell truly executes and lands in the ledger
    # (the recorder skips cache hits — their wall time is a disk read).
    # jobs=2: the parallel path records every executed cell on either
    # engine (a serial fast-engine sweep leaves its warm-up cells out).
    run_cells(cells, jobs=2, cache=False, perf=True, perf_dir=tmp_path,
              perf_context="headline-test")
    records = Ledger(tmp_path).records()
    assert len(records) == len(cells), "every executed cell must be recorded"

    by_key = {(r.benchmark, r.config): r for r in records}

    def suite_avg(label: str) -> float:
        base = [by_key[(b, "orig")].sim["total_cycles"] for b in BENCHES]
        new = [by_key[(b, label)].sim["total_cycles"] for b in BENCHES]
        return (weighted_mean_speedup(base, new) - 1.0) * 100.0

    wec_avg = suite_avg("wth-wp-wec")
    nlp_avg = suite_avg("nlp")
    # The executor filled speedup_pct in from the grid's own orig cell.
    mcf = by_key[("181.mcf", "wth-wp-wec")].sim["speedup_pct"]

    # Paper: +9.7% / +5.5% / +18.5%.  Bands leave room for small model
    # changes while catching real regressions.
    assert 6.0 < wec_avg < 14.0, f"wec suite average drifted: {wec_avg:+.1f}%"
    assert 2.5 < nlp_avg < 9.0, f"nlp suite average drifted: {nlp_avg:+.1f}%"
    assert nlp_avg < wec_avg, "nlp must not beat the WEC on average"
    assert 13.0 < mcf < 26.0, f"mcf wec gain drifted: {mcf:+.1f}%"
    assert mcf == max(
        by_key[(b, "wth-wp-wec")].sim["speedup_pct"] for b in BENCHES
    ), "mcf must remain the largest WEC winner"

    # Benchstat comparison against the checked-in reference: every
    # (benchmark, config) group must exist on both sides, and the
    # deterministic cycle counts must stay within the drift band.
    reference = load_records(REFERENCE)
    report = compare_records(reference, records)
    assert not report.unmatched, (
        f"groups missing on one side: {report.unmatched}"
    )
    assert len(report.groups) == len(cells)
    for group in report.groups:
        mc = group.metrics["total_cycles"]
        assert abs(mc.delta_pct) < DRIFT_TOLERANCE_PCT, (
            f"{group.benchmark}/{group.config}: total_cycles moved "
            f"{mc.delta_pct:+.1f}% vs reference ({mc.ref_mean:.0f} -> "
            f"{mc.new_mean:.0f}); refresh tests/data/"
            f"headline_reference.json if intentional"
        )
    assert report.suite_speedup_pct is not None
    assert abs(report.suite_speedup_pct) < DRIFT_TOLERANCE_PCT
