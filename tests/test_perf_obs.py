"""Tests for the performance observatory (repro.obs ledger/compare/hostprof).

Covers the ledger round-trip and export validation, the benchstat-style
comparison engine's edge cases (single samples, zero variance, missing
metrics, sign conventions), host self-profiling (including the ≤5%
overhead budget on the recorded path), and the executor's automatic
recording under ``$REPRO_PERF_DIR``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import SimParams, named_config
from repro.common.errors import AnalysisError
from repro.obs.compare import (
    ALPHA,
    METRICS_BY_NAME,
    MetricDef,
    bootstrap_delta_ci,
    compare_records,
    compare_samples,
    mann_whitney_u,
    parse_threshold,
)
from repro.obs.hostprof import HostProfiler, TracerOverheadProxy, peak_rss_kb
from repro.obs.ledger import (
    EXPORT_KIND,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    PerfRecord,
    default_perf_dir,
    load_records,
    validate_export,
    write_export,
)
from repro.obs.tracer import RingBufferTracer
from repro.sim.driver import run_program
from repro.sim.executor import SweepCell, default_engine, run_cells
from repro.workloads.benchmarks import build_benchmark

TINY = SimParams(seed=7, scale=2e-5, warmup_invocations=0)


def make_record(
    benchmark="181.mcf",
    config="wth-wp-wec",
    seed=7,
    scale=2e-5,
    cycles=1000.0,
    wall_s=0.5,
    label="",
    **sim_extra,
):
    sim = {"total_cycles": cycles, "ipc": 0.5, "l1_miss_rate": 0.4}
    sim.update(sim_extra)
    return PerfRecord(
        benchmark=benchmark,
        config=config,
        seed=seed,
        scale=scale,
        sim=sim,
        host={"wall_s": wall_s, "events_per_sec": 1000.0 / wall_s},
        label=label,
        ts=123.0,
    )


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


class TestLedger:
    def test_round_trip(self, tmp_path):
        ledger = Ledger(tmp_path)
        rec = make_record(label="a")
        ledger.append(rec)
        ledger.append(make_record(label="b", cycles=2000.0))
        got = ledger.records()
        assert len(got) == 2
        assert got[0].to_dict() == rec.to_dict()
        assert got[0].group_key == ("181.mcf", "wth-wp-wec", 7, 2e-5)

    def test_label_filter(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(make_record(label="before"))
        ledger.append(make_record(label="after"))
        ledger.append(make_record(label="before"))
        assert len(ledger.records(label="before")) == 2
        assert len(ledger.records(label="nope")) == 0

    def test_unknown_schema_and_garbage_lines_skipped(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(make_record())
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": 999, "benchmark": "x"}) + "\n")
            fh.write("not json at all\n")
            fh.write("\n")
        with pytest.warns(RuntimeWarning):
            got = ledger.records()
        assert len(got) == 1

    def test_empty_dir_is_empty(self, tmp_path):
        assert Ledger(tmp_path / "nothing").records() == []

    def test_default_perf_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PERF_DIR", raising=False)
        assert default_perf_dir() is None
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path))
        assert default_perf_dir() == tmp_path


class TestExport:
    def test_write_validate_load(self, tmp_path):
        path = write_export([make_record(), make_record(cycles=2.0)],
                            tmp_path / "export.json")
        doc = json.loads(path.read_text())
        assert doc["kind"] == EXPORT_KIND
        assert doc["schema"] == LEDGER_SCHEMA_VERSION
        assert validate_export(doc) == []
        records = load_records(path)
        assert len(records) == 2

    def test_validate_catches_problems(self):
        assert validate_export([]) == ["export is not a JSON object"]
        doc = {"kind": "wrong", "schema": 999, "records": [{}],
               "n_records": 5}
        problems = validate_export(doc)
        assert any("kind" in p for p in problems)
        assert any("schema" in p for p in problems)
        assert any("n_records" in p for p in problems)
        assert any("missing 'benchmark'" in p for p in problems)

    def test_load_records_errors(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such perf source"):
            load_records(tmp_path / "missing.json")
        with pytest.raises(AnalysisError, match="no perf records"):
            load_records(tmp_path)  # empty dir
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(AnalysisError, match="not a valid perf export"):
            load_records(bad)

    def test_load_records_from_ledger_dir(self, tmp_path):
        Ledger(tmp_path).append(make_record())
        assert len(load_records(tmp_path)) == 1
        assert len(load_records(tmp_path / "ledger.jsonl")) == 1


# ---------------------------------------------------------------------------
# Comparison engine
# ---------------------------------------------------------------------------

DET = METRICS_BY_NAME["total_cycles"]       # deterministic, lower-better
STOCH = METRICS_BY_NAME["wall_s"]           # stochastic, lower-better


class TestCompareSamples:
    def test_deterministic_single_sample_delta_is_significant(self):
        mc = compare_samples([100.0], [110.0], DET)
        assert mc.significant
        assert mc.worsened
        assert mc.delta_pct == pytest.approx(10.0)
        assert mc.is_regression(5.0)
        assert not mc.is_regression(15.0)

    def test_deterministic_identical_is_insignificant(self):
        mc = compare_samples([100.0], [100.0], DET)
        assert not mc.significant
        assert mc.note == "identical"
        assert not mc.worsened

    def test_stochastic_single_sample_never_significant(self):
        mc = compare_samples([1.0], [100.0], STOCH)
        assert not mc.significant
        assert "insignificant-by-construction" in mc.note
        assert mc.delta_pct == pytest.approx(9900.0)

    def test_zero_variance_series(self):
        mc = compare_samples([2.0] * 4, [2.0] * 4, STOCH)
        assert mc.delta_pct == 0.0
        assert not mc.significant
        assert mc.p == 1.0

    def test_clearly_separated_series_is_significant(self):
        mc = compare_samples([1.0, 1.1, 0.9, 1.05],
                             [2.0, 2.1, 1.9, 2.05], STOCH)
        assert mc.p < ALPHA
        assert mc.significant
        assert mc.worsened  # wall_s went up

    def test_sign_conventions(self):
        ipc = METRICS_BY_NAME["ipc"]            # higher is better
        miss = METRICS_BY_NAME["l1_miss_rate"]  # lower is better
        assert compare_samples([2.0], [1.0], ipc).worsened
        assert not compare_samples([1.0], [2.0], ipc).worsened
        assert compare_samples([0.1], [0.2], miss).worsened
        assert not compare_samples([0.2], [0.1], miss).worsened

    def test_empty_side_raises(self):
        with pytest.raises(AnalysisError):
            compare_samples([], [1.0], DET)


class TestStatsPrimitives:
    def test_mann_whitney_separated(self):
        u, p = mann_whitney_u([1, 2, 3, 4], [10, 11, 12, 13])
        assert u == 0
        assert p < 0.05

    def test_mann_whitney_overlapping(self):
        _, p = mann_whitney_u([1, 3, 5, 7], [2, 4, 6, 8])
        assert p > 0.05

    def test_mann_whitney_all_tied(self):
        _, p = mann_whitney_u([5, 5], [5, 5])
        assert p == 1.0

    def test_bootstrap_deterministic_and_brackets_delta(self):
        ref = [10.0, 11.0, 9.0, 10.5]
        new = [12.0, 13.0, 11.0, 12.5]
        ci1 = bootstrap_delta_ci(ref, new)
        ci2 = bootstrap_delta_ci(ref, new)
        assert ci1 == ci2  # fixed seed
        assert ci1[0] <= 20.0 <= ci1[1]  # point delta ~ +19.8%

    def test_bootstrap_single_sample_collapses(self):
        assert bootstrap_delta_ci([10.0], [11.0]) == (10.0, 10.0)

    def test_parse_threshold(self):
        assert parse_threshold("10%") == 10.0
        assert parse_threshold("10") == 10.0
        assert parse_threshold("0.1") == pytest.approx(10.0)
        assert parse_threshold("1") == 100.0  # ≤1 without % is a fraction
        with pytest.raises(AnalysisError):
            parse_threshold("abc")
        with pytest.raises(AnalysisError):
            parse_threshold("-5%")


class TestCompareRecords:
    def test_missing_metric_on_one_side_reported_not_raised(self):
        ref = [make_record(wec_hit_rate=0.3)]
        new = [make_record()]
        report = compare_records(ref, new)
        group = report.groups[0]
        assert group.missing["wec_hit_rate"] == "ref-only"
        assert "total_cycles" in group.metrics

    def test_unmatched_groups_reported(self):
        ref = [make_record(benchmark="181.mcf")]
        new = [make_record(benchmark="181.mcf"),
               make_record(benchmark="175.vpr")]
        report = compare_records(ref, new)
        assert report.unmatched == {("175.vpr", "wth-wp-wec"): "new"}

    def test_no_overlap_raises(self):
        with pytest.raises(AnalysisError, match="no overlapping"):
            compare_records([make_record(benchmark="a")],
                            [make_record(benchmark="b")])

    def test_unknown_metric_name_raises(self):
        recs = [make_record()]
        with pytest.raises(AnalysisError, match="unknown metric"):
            compare_records(recs, recs, metrics=["bogus"])

    def test_regressions_and_render(self):
        ref = [make_record(cycles=1000.0)]
        new = [make_record(cycles=1200.0)]
        report = compare_records(ref, new, metrics=["total_cycles"])
        regs = report.regressions(10.0)
        assert len(regs) == 1
        assert regs[0][1].metric.name == "total_cycles"
        assert report.regressions(25.0) == []
        text = report.render(10.0)
        assert "REGRESSION" in text
        assert "total_cycles" in text

    def test_suite_speedup_rollup(self):
        # new side 20% fewer cycles on both benchmarks -> +25% speedup.
        ref = [make_record(benchmark="a", cycles=1000.0),
               make_record(benchmark="b", cycles=500.0)]
        new = [make_record(benchmark="a", cycles=800.0),
               make_record(benchmark="b", cycles=400.0)]
        report = compare_records(ref, new, metrics=["total_cycles"])
        assert report.suite_speedup_pct == pytest.approx(25.0)
        assert report.rollup_delta_pct["total_cycles"] == pytest.approx(-20.0)


# ---------------------------------------------------------------------------
# Host self-profiling
# ---------------------------------------------------------------------------


class TestHostProfiler:
    def test_sections_accumulate(self):
        prof = HostProfiler()
        assert not prof
        prof.add("a", 0.25)
        prof.add("a", 0.75)
        prof.add("b", 0.5)
        assert prof
        assert prof.seconds("a") == pytest.approx(1.0)
        assert prof.calls("a") == 2
        snap = prof.snapshot(total_wall_s=2.0)
        assert snap["a"]["pct"] == pytest.approx(50.0)
        assert snap["b"] == {"s": 0.5, "calls": 1, "pct": 25.0}

    def test_wrap_tracer_times_emits(self):
        prof = HostProfiler()
        inner = RingBufferTracer(capacity=64)
        proxy = prof.wrap_tracer(inner)
        assert isinstance(proxy, TracerOverheadProxy)
        proxy.now = 42.0
        proxy.emit(1, 0, 5)
        assert prof.calls("tracer.emit") == 1
        events = inner.events()
        assert len(events) == 1
        assert events[0].cycle == 42.0

    def test_wrap_tracer_passthrough_when_absent(self):
        prof = HostProfiler()
        assert prof.wrap_tracer(None) is None

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0

    def test_profiled_run_is_bit_identical(self):
        program = build_benchmark("181.mcf", TINY.scale)
        cfg = named_config("wth-wp-wec")
        plain = run_program(program, cfg, TINY)
        prof = HostProfiler()
        profiled = run_program(program, cfg, TINY, profiler=prof)
        assert profiled.to_dict() == plain.to_dict()
        # The expected coarse sections all fired.
        for section in ("scheduler.parallel", "scheduler.sequential",
                        "tu.ifetch", "tu.replay"):
            assert prof.calls(section) > 0, section

    def test_profiling_overhead_within_budget(self):
        # Acceptance bound: turning recording on may not cost more than
        # 5% wall time.  Interleaved min-of-N on both variants defeats
        # scheduler noise; the absolute epsilon absorbs timer jitter on
        # these ~30ms runs.
        program = build_benchmark("181.mcf", TINY.scale)
        cfg = named_config("wth-wp-wec")
        run_program(program, cfg, TINY)  # warm caches/JIT-ish costs
        t_off, t_on = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            run_program(program, cfg, TINY)
            t_off.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_program(program, cfg, TINY, profiler=HostProfiler())
            t_on.append(time.perf_counter() - t0)
        assert min(t_on) <= min(t_off) * 1.05 + 0.02, (
            f"profiling overhead over budget: off={min(t_off):.4f}s "
            f"on={min(t_on):.4f}s"
        )


# ---------------------------------------------------------------------------
# Executor auto-recording
# ---------------------------------------------------------------------------


def _cells(*names):
    return [SweepCell("181.mcf", n, named_config(n), TINY) for n in names]


class TestExecutorRecording:
    def test_records_executed_cells_with_speedup(self, tmp_path):
        run_cells(_cells("orig", "wth-wp-wec"), cache=False,
                  perf=True, perf_dir=tmp_path, perf_context="unit")
        records = Ledger(tmp_path).records()
        assert len(records) == 2
        by_config = {r.config: r for r in records}
        assert by_config["orig"].sim.get("speedup_pct") is None
        assert by_config["wth-wp-wec"].sim["speedup_pct"] > 0
        rec = by_config["wth-wp-wec"]
        assert rec.context == "unit"
        assert rec.host["wall_s"] > 0
        assert rec.host["events_per_sec"] > 0
        # Both engines time every region invocation under the driver's
        # scheduler sections.
        assert rec.profile and "scheduler.parallel" in rec.profile
        assert rec.provenance["engine"] == default_engine()
        assert rec.provenance["code_token"]
        assert rec.provenance["config_fp"] != rec.provenance["params_fp"]

    def test_cache_hits_are_not_recorded(self, tmp_path):
        cache_dir = tmp_path / "cache"
        perf_dir = tmp_path / "perf"
        run_cells(_cells("orig"), cache=True, cache_dir=cache_dir,
                  perf=True, perf_dir=perf_dir)
        run_cells(_cells("orig"), cache=True, cache_dir=cache_dir,
                  perf=True, perf_dir=perf_dir)
        assert len(Ledger(perf_dir).records()) == 1

    def test_env_var_enables_recording(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path))
        run_cells(_cells("orig"), cache=False)
        assert len(Ledger(tmp_path).records()) == 1

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_DIR", raising=False)
        run_cells(_cells("orig"), cache=False)
        assert not (tmp_path / "ledger.jsonl").exists()

    def test_parallel_path_records_too(self, tmp_path):
        run_cells(_cells("orig", "wth-wp-wec", "nlp"), jobs=2, cache=False,
                  perf=True, perf_dir=tmp_path)
        records = Ledger(tmp_path).records()
        assert len(records) == 3
        assert all(r.host["wall_s"] > 0 for r in records)

    def test_ledger_round_trips_through_compare(self, tmp_path):
        run_cells(_cells("orig", "wth-wp-wec"), cache=False,
                  perf=True, perf_dir=tmp_path)
        records = Ledger(tmp_path).records()
        report = compare_records(records, records)
        assert report.regressions(0.0) == []


class TestCommittedBaseline:
    def test_committed_baseline_is_a_valid_export(self):
        # The CI perf gate compares BENCH_smoke.json against this file;
        # both come from write_export, so validating the committed one
        # pins the format for both.
        from pathlib import Path
        path = Path(__file__).parent.parent / "benchmarks" / \
            "BENCH_baseline.json"
        doc = json.loads(path.read_text())
        assert validate_export(doc) == []
        records = load_records(path)
        assert len(records) == doc["n_records"]
        assert all(r.context == "bench" for r in records)
