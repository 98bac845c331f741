"""Tests of the benchmark's own code: run with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import (END_TO_END, PER_LAYER, check_metric_name, layer_metrics,
                    percentile, top_level_coverage)
from hostspeed import REF_NOMINAL_S, REF_WINDOW_S, normalise
from run import Invocation, failed_cells, tail_percentile
from tracing import BranchStreamClassifier, Tracer, self_times, union_length

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent


# -- percentiles ------------------------------------------------------------


def test_percentile_reports_value_and_sample_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == (3.0, 5)
    assert percentile(values, 0) == (1.0, 5)
    assert percentile(values, 100) == (5.0, 5)
    assert percentile(values, 90) == (pytest.approx(4.6), 5)
    assert percentile([], 90) == (0.0, 0)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(9) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(306) == 95
    assert tail_percentile(1000) == 99


# -- spans ------------------------------------------------------------------


def span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_self_time_counts_overlapping_children_once():
    spans = [span("parent", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0])


def test_self_time_subtracts_only_direct_children():
    spans = [span("root", 0.0, 10.0),
             span("child", 2.0, 8.0, 0),
             span("grandchild", 3.0, 7.0, 1),
             span("child2", 9.0, 12.0, 0)]  # runs past its parent's end
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 3.0])


def test_union_length_clips_and_merges():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_tracer_records_parents_and_tallies():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.span("inner", inner,
                                after=lambda a, k, r: {"result": r})
    wrapped_outer = tracer.span("outer", outer)
    counted = tracer.tally("count", inner)
    assert wrapped_outer(1) == 4
    assert counted(1) == 2 and counted(2) == 3
    (outer_span, inner_span) = sorted(tracer.spans, key=lambda s: s[0] != "outer")
    assert outer_span[3] is None
    assert inner_span[3] == tracer.spans.index(outer_span)
    assert inner_span[4] == {"result": 2}
    assert tracer.tallies["count"][0] == 2


def test_top_level_coverage_reports_uncovered_remainder():
    report = {"t_start": 1.0, "t_done": 10.0,
              "spans": [span("cli.import", 1.0, 2.0),
                        span("fidelity.run_campaign", 2.5, 9.0),
                        span("executor.run_cells", 3.0, 8.0, 1)]}
    top, uncovered = top_level_coverage(report, launch=0.0)
    assert top == {"python.start": 1.0, "cli.import": 1.0,
                   "fidelity.run_campaign": 6.5}
    assert uncovered == pytest.approx(1.5)


# -- host-speed normalisation -------------------------------------------------


def test_normalise_scales_by_the_loop_inside_the_interval():
    samples = [(0.0, 4 * REF_NOMINAL_S), (10.0, 2 * REF_NOMINAL_S),
               (20.0, 2 * REF_NOMINAL_S), (30.0, 4 * REF_NOMINAL_S)]
    # The loop ran at half speed in [5, 25]: the CPU time halves.
    assert normalise(8.0, samples, 5.0, 25.0) == pytest.approx(4.0)


def test_normalise_widens_a_short_interval():
    half = REF_WINDOW_S / 2
    samples = [(10.0 - 0.9 * half, 2 * REF_NOMINAL_S),
               (10.0 + 0.9 * half, 4 * REF_NOMINAL_S),
               (10.0 + 1.1 * half, 100 * REF_NOMINAL_S)]
    # Neither loop started inside [10, 10]; the two within half a
    # window of it count, the third does not.
    assert normalise(3.0, samples, 10.0, 10.0) == pytest.approx(1.0)


def test_normalise_falls_back_to_every_sample_then_to_the_raw_time():
    samples = [(0.0, 2 * REF_NOMINAL_S)]
    assert normalise(3.0, samples, 50.0, 60.0) == pytest.approx(1.5)
    assert normalise(3.0, [], 50.0, 60.0) == 3.0


# -- metric names -----------------------------------------------------------


@pytest.mark.parametrize("name", ["run_cpu_s", "fast.replay_s.wec",
                                  "executor.cell_p90_ms", "0-based", "a" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/name", "per%", "a" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == [
        "campaign-cold", "campaign-warm", "oracle-cells"]


def test_layer_metrics_cover_every_per_layer_name_but_overhead():
    report = {"t_start": 0.1, "t_done": 1.0, "spans": [], "tallies": {}}
    names = set(layer_metrics(report, launch=0.0))
    assert names == {name for name, _u, _b in PER_LAYER} - {"trace.overhead_s"}


# -- failed cells -----------------------------------------------------------


def invocation(exit_code, report, n_cells=306):
    return Invocation(launch=0.0, exit_code=exit_code, report=report,
                      n_cells=n_cells, traced=False, workdir=Path("."))


def test_failed_frac_counts_every_cell_of_a_nonzero_exit():
    ok = {"t_done": 1.0, "t_setup": 0.5, "executor": {"failed": 0}}
    invs = [invocation(0, ok), invocation(1, ok), invocation(0, None),
            invocation(-1, None)]
    assert failed_cells(invs) == 3 * 306
    attempted = sum(inv.n_cells for inv in invs)
    assert failed_cells(invs) / attempted == 0.75
    assert failed_cells([invocation(0, ok)]) == 0


# -- record/replay classification --------------------------------------------


def test_classifier_on_the_config_ladder():
    from repro.common.config import SimParams
    from repro.sta.configs import CONFIG_NAMES, named_config
    from repro.workloads import BENCHMARK_NAMES

    assert len(CONFIG_NAMES) == 8
    classifier = BranchStreamClassifier()
    params = SimParams(seed=2003, scale=2e-4)
    for bench in BENCHMARK_NAMES:
        kinds = [classifier.classify(bench, named_config(name), params)
                 for name in CONFIG_NAMES]
        assert kinds == ["record"] + ["replay"] * 7
    # A new seed, TU count or predictor geometry starts a new stream.
    bench = BENCHMARK_NAMES[0]
    assert classifier.classify(bench, named_config("orig"),
                               SimParams(seed=7, scale=2e-4)) == "record"
    assert classifier.classify(bench, named_config("orig", n_tus=4),
                               params) == "record"


# -- the benchmark outside a checkout ---------------------------------------


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "missing" in proc.stderr
