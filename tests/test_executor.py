"""Tests for the sweep execution engine (:mod:`repro.sim.executor`).

Covers the four load-bearing guarantees:

* parallel fan-out produces results identical to the serial path;
* cells whose keys are equal simulate once per sweep and share the
  result, while a warm rerun still resolves every cell from the cache;
* a cold-cache run followed by a warm-cache run returns identical
  ``SimResult``s with zero simulations executed;
* a cell that raises in a worker reports its grid key and does not
  lose the other cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import SimParams, named_config
from repro.common.errors import ConfigError, SweepError
from repro.obs.hostprof import peak_rss_kb
from repro.obs.ledger import Ledger
from repro.sim.executor import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    SweepCell,
    _canonical,
    cell_key,
    code_version_token,
    config_fingerprint,
    default_jobs,
    run_cell,
    run_cells,
)
from repro.sim.results import SimResult
from repro.sim.sweep import benchmarks_of, grid_cells, labels_of, run_grid
from repro.workloads import BENCHMARK_NAMES

TINY = SimParams(seed=7, scale=2e-5, warmup_invocations=0)

BENCHES = ["175.vpr", "164.gzip"]
CONFIG_LABELS = ["orig", "vc", "nlp"]


def make_cells(params=TINY, benches=BENCHES, labels=CONFIG_LABELS):
    return [
        SweepCell(b, name, named_config(name), params)
        for b in benches
        for name in labels
    ]


class TestFingerprints:
    def test_stable(self):
        cfg = named_config("orig")
        assert config_fingerprint(cfg) == config_fingerprint(cfg)

    def test_covers_every_field(self):
        # The historical hand-maintained key omitted these knobs; the
        # dataclass-derived fingerprint must distinguish all of them.
        base = named_config("orig")
        variants = [
            dataclasses.replace(
                base, mem=dataclasses.replace(base.mem, memory_latency=300)
            ),
            dataclasses.replace(
                base,
                mem=dataclasses.replace(
                    base.mem,
                    l2=dataclasses.replace(base.mem.l2, block_size=256),
                ),
            ),
            dataclasses.replace(
                base,
                mem=dataclasses.replace(
                    base.mem,
                    l2=dataclasses.replace(base.mem.l2, hit_latency=20),
                ),
            ),
            dataclasses.replace(
                base, tu=dataclasses.replace(base.tu, mem_ports=4)
            ),
            dataclasses.replace(base, fork_delay=9),
        ]
        prints = {config_fingerprint(v) for v in variants}
        assert len(prints) == len(variants)
        assert config_fingerprint(base) not in prints

    def test_cell_key_covers_benchmark_and_params(self):
        cfg = named_config("orig")
        k = cell_key("175.vpr", cfg, TINY)
        assert k != cell_key("164.gzip", cfg, TINY)
        assert k != cell_key("175.vpr", cfg, dataclasses.replace(TINY, seed=8))
        assert k != cell_key("175.vpr", cfg, dataclasses.replace(TINY, scale=3e-5))

    def test_code_token_stable_within_process(self):
        assert code_version_token() == code_version_token()
        assert len(code_version_token()) == 16


def unmemoised_key(benchmark, config, params) -> str:
    """The cell-key formula as written before the per-sweep memo."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_version_token(),
            "benchmark": benchmark,
            "config": _canonical(config),
            "params": _canonical(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestKeyMemo:
    def test_campaign_keys_equal_the_unmemoised_formula(self):
        from repro.obs.fidelity import campaign_sections

        axis = {label: cfg for configs in campaign_sections().values()
                for label, cfg in configs.items()}
        cells = grid_cells(axis, list(BENCHMARK_NAMES), SimParams())
        assert len(cells) == len(axis) * len(BENCHMARK_NAMES) == 306
        memo = {}
        for cell in cells:
            key = cell_key(cell.benchmark, cell.config, cell.params, memo)
            assert key == unmemoised_key(cell.benchmark, cell.config,
                                         cell.params)
            assert key == cell.key()
        # One canonical document per distinct object: every config plus
        # the one params object the grid shares.
        assert len(memo) == len(axis) + 1

    def test_memo_keys_by_identity_not_equality(self):
        # 0.0 == -0.0, but the two canonicalise (and so key) differently.
        pos = dataclasses.replace(TINY, prefetch_late_cycles=0.0)
        neg = dataclasses.replace(TINY, prefetch_late_cycles=-0.0)
        assert pos == neg
        cfg = named_config("orig")
        memo = {}
        keys = [cell_key("181.mcf", cfg, p, memo) for p in (pos, neg)]
        assert keys == [unmemoised_key("181.mcf", cfg, p) for p in (pos, neg)]
        assert keys[0] != keys[1]


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        cache.put("ab" + "0" * 62, result)
        assert cache.get("ab" + "0" * 62) == result
        assert len(cache) == 1

    def test_miss_and_corrupt_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "cd" + "1" * 62
        assert cache.get(key) is None
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None  # corrupt -> miss
        assert not path.exists()  # ... and dropped

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        # A misconfigured cache dir must not fail the sweep: put() warns
        # once and the run continues uncached.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not a directory")
        cache = DiskCache(blocker / "sub")
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("ab" + "3" * 62, result)
        cache.put("ab" + "4" * 62, result)  # second write: silent no-op
        assert cache.get("ab" + "3" * 62) is None

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        cache.put("ef" + "2" * 62, result)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestParallelEqualsSerial:
    def test_grid_results_identical(self, tmp_path):
        serial = run_cells(make_cells(), jobs=1, cache=False)
        parallel = run_cells(make_cells(), jobs=4, cache=False)
        assert serial.results == parallel.results
        assert len(serial.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert parallel.stats.executed == len(BENCHES) * len(CONFIG_LABELS)

    def test_run_grid_jobs_param_preserves_order(self, tmp_path):
        configs = {name: named_config(name) for name in CONFIG_LABELS}
        grid = run_grid(
            configs, benchmarks=BENCHES, params=TINY,
            jobs=4, cache_dir=tmp_path,
        )
        assert benchmarks_of(grid) == BENCHES
        assert labels_of(grid) == CONFIG_LABELS

    def test_progress_called_once_per_cell_parallel(self, tmp_path):
        calls = []
        run_cells(
            make_cells(), jobs=4, cache=False,
            progress=lambda b, l: calls.append((b, l)),
        )
        assert sorted(calls) == sorted(c.grid_key for c in make_cells())


class TestPersistentCache:
    def test_cold_then_warm(self, tmp_path):
        cold = run_cells(make_cells(), cache_dir=tmp_path)
        assert cold.stats.executed == len(BENCHES) * len(CONFIG_LABELS)
        assert cold.stats.cache_hits == 0

        warm = run_cells(make_cells(), cache_dir=tmp_path)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(BENCHES) * len(CONFIG_LABELS)
        assert warm.results == cold.results
        assert all(isinstance(r, SimResult) for r in warm.results.values())

    def test_warm_hits_in_parallel_mode_too(self, tmp_path):
        run_cells(make_cells(), cache_dir=tmp_path)
        warm = run_cells(make_cells(), jobs=4, cache_dir=tmp_path)
        assert warm.stats.executed == 0

    def test_param_change_misses(self, tmp_path):
        run_cells(make_cells(), cache_dir=tmp_path)
        other = dataclasses.replace(TINY, seed=9)
        again = run_cells(make_cells(params=other), cache_dir=tmp_path)
        assert again.stats.cache_hits == 0

    def test_cache_false_never_touches_disk(self, tmp_path):
        outcome = run_cells(make_cells(), cache=False, cache_dir=tmp_path)
        assert outcome.stats.cache_root is None
        assert len(DiskCache(tmp_path)) == 0

    def test_manifest(self, tmp_path):
        manifest_path = tmp_path / "runs" / "manifest.json"
        run_cells(make_cells(), cache_dir=tmp_path, manifest_path=manifest_path)
        data = json.loads(manifest_path.read_text())
        assert data["n_cells"] == len(BENCHES) * len(CONFIG_LABELS)
        assert data["executed"] == data["n_cells"]
        assert len(data["cells"]) == data["n_cells"]
        assert all(c["wall_s"] >= 0 for c in data["cells"])
        assert data["failures"] == []


class TestFailureSurfacing:
    def bad_cells(self):
        return make_cells() + [
            SweepCell("nosuch.bench", "orig", named_config("orig"), TINY)
        ]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failing_cell_reports_key_and_keeps_others(self, tmp_path, jobs):
        with pytest.raises(SweepError) as excinfo:
            run_cells(self.bad_cells(), jobs=jobs, cache_dir=tmp_path)
        err = excinfo.value
        assert "(nosuch.bench, orig)" in str(err)
        assert len(err.failures) == 1
        assert err.failures[0].benchmark == "nosuch.bench"
        # Every healthy cell still completed and is retrievable.
        assert len(err.outcome.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert err.outcome.stats.failed == 1

    def test_non_strict_returns_partial_outcome(self, tmp_path):
        outcome = run_cells(self.bad_cells(), cache=False, strict=False)
        assert len(outcome.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert outcome.stats.failed == 1
        assert outcome.stats.failures[0].label == "orig"


class TestInSweepSharing:
    """Cache misses with equal keys simulate once and share the result."""

    def alias_cells(self, benches=BENCHES):
        # "orig-alias" is the very same configuration as "orig" (name
        # included), so both labels have one key per benchmark.
        return [
            SweepCell(b, label, named_config(name), TINY)
            for b in benches
            for label, name in (("orig", "orig"), ("orig-alias", "orig"),
                                ("vc", "vc"))
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equal_keys_execute_once(self, tmp_path, jobs):
        cells = self.alias_cells()
        calls = []
        outcome = run_cells(
            cells, jobs=jobs, cache_dir=tmp_path,
            progress=lambda b, l: calls.append((b, l)),
        )
        stats = outcome.stats
        assert stats.cache_misses == len(cells)
        assert stats.executed == 2 * len(BENCHES)
        assert stats.shared == len(BENCHES)
        assert stats.failed == 0
        assert stats.jobs_used == jobs
        for b in BENCHES:
            assert outcome.results[(b, "orig-alias")] == \
                outcome.results[(b, "orig")]
        sources = {(r.benchmark, r.label): r.source for r in stats.records}
        assert sources == {
            c.grid_key: "shared" if c.label == "orig-alias" else "run"
            for c in cells
        }
        shared = [r for r in stats.records if r.source == "shared"]
        assert all(r.wall_s == 0.0 and r.host is None for r in shared)
        assert sorted(calls) == sorted(c.grid_key for c in cells)
        manifest = stats.to_manifest()
        assert (manifest["executed"], manifest["shared"]) == (4, 2)
        assert "2 shared" in stats.summary()
        # Shared keys are one cache entry.
        assert len(DiskCache(tmp_path)) == 2 * len(BENCHES)

    def test_serial_path_simulates_once(self, monkeypatch):
        # The executor looks run_program up on the driver module when a
        # cell executes, so rebinding it there counts every simulation.
        import repro.sim.driver as driver

        calls = []
        real = driver.run_program

        def counting(program, config, params, **kwargs):
            calls.append((program.name, config.name))
            return real(program, config, params, **kwargs)

        monkeypatch.setattr(driver, "run_program", counting)
        outcome = run_cells(self.alias_cells(["175.vpr"]), cache=False)
        assert sorted(calls) == [("175.vpr", "orig"), ("175.vpr", "vc")]
        # The shared cell holds exactly what the executed one returned.
        assert outcome.results[("175.vpr", "orig-alias")] is \
            outcome.results[("175.vpr", "orig")]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_rerun_is_all_hits(self, tmp_path, jobs):
        cells = self.alias_cells()
        cold = run_cells(cells, jobs=jobs, cache_dir=tmp_path)
        warm = run_cells(cells, jobs=jobs, cache_dir=tmp_path)
        assert warm.stats.cache_hits == warm.stats.n_cells == len(cells)
        assert (warm.stats.executed, warm.stats.shared) == (0, 0)
        assert all(r.source == "cache" for r in warm.stats.records)
        assert warm.results == cold.results

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_every_sharing_key(self, tmp_path, jobs):
        bad = [
            SweepCell("nosuch.bench", label, named_config("orig"), TINY)
            for label in ("orig", "orig-alias")
        ]
        cells = make_cells(benches=["175.vpr"]) + bad
        with pytest.raises(SweepError) as excinfo:
            run_cells(cells, jobs=jobs, cache_dir=tmp_path)
        err = excinfo.value
        assert "(nosuch.bench, orig)" in str(err)
        assert "(nosuch.bench, orig-alias)" in str(err)
        assert str(err).startswith(f"2 of {len(cells)} sweep cell(s) failed")
        stats = err.outcome.stats
        assert stats.failed == 2
        assert stats.executed == len(CONFIG_LABELS)
        assert stats.shared == 0
        assert sorted(f.label for f in err.failures) == ["orig", "orig-alias"]
        assert len({f.key for f in err.failures}) == 1
        assert len(err.outcome.results) == len(CONFIG_LABELS)


class TestRunCell:
    def test_single_cell_cached(self, tmp_path):
        a = run_cell("175.vpr", named_config("vc"), TINY, cache_dir=tmp_path)
        b = run_cell("175.vpr", named_config("vc"), TINY, cache_dir=tmp_path)
        assert a == b
        assert len(DiskCache(tmp_path)) == 1


class TestCacheAtomicity:
    """Crash/concurrency safety of ``DiskCache.put`` (tempfile + replace)."""

    def test_concurrent_writers_same_key_never_tear(self, tmp_path):
        # Many threads hammering one key must each publish a *complete*
        # document: the winning entry decodes to the result, and no
        # reader in between may ever see a torn/partial file.
        import threading

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        key = "aa" + "5" * 62
        errors = []

        def writer():
            for _ in range(25):
                cache.put(key, result)

        def reader():
            for _ in range(50):
                got = DiskCache(tmp_path).get(key)
                if got is not None and got != result:
                    errors.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.get(key) == result
        # No temp droppings left behind.
        leftovers = [p for p in cache.root.rglob("*.tmp")]
        assert leftovers == []

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        import threading

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        keys = [f"{i:02x}" + "6" * 62 for i in range(16)]

        def writer(my_keys):
            for k in my_keys:
                cache.put(k, result)

        threads = [
            threading.Thread(target=writer, args=(keys[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == len(keys)
        assert all(cache.get(k) == result for k in keys)


class TestCacheQuota:
    """LRU eviction and the ``$REPRO_CACHE_MAX_MB`` quota."""

    @pytest.fixture()
    def filled(self, tmp_path):
        import os as _os

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        keys = [f"{i:02x}" + "7" * 62 for i in range(6)]
        for age, key in enumerate(keys):
            cache.put(key, result)
            # Deterministic, strictly increasing recency: keys[0] oldest.
            _os.utime(cache._path(key), (1_000_000 + age, 1_000_000 + age))
        return cache, keys, result

    def entry_mb(self, cache):
        return cache.stats().total_bytes / len(cache) / (1024 * 1024)

    def test_stats_counts_entries_and_bytes(self, filled):
        cache, keys, _ = filled
        stats = cache.stats()
        assert stats.entries == len(keys)
        assert stats.total_bytes > 0
        assert stats.quota_mb is None
        assert stats.to_dict()["entries"] == len(keys)

    def test_prune_evicts_oldest_first(self, filled):
        cache, keys, result = filled
        budget = self.entry_mb(cache) * 2.5  # room for two entries
        pruned = cache.prune(budget)
        assert pruned.removed == 4
        assert pruned.kept == 2
        # The two *newest* survive.
        assert cache.get(keys[-1]) == result
        assert cache.get(keys[-2]) == result
        assert cache.get(keys[0]) is None

    def test_get_refreshes_recency(self, filled):
        import os as _os

        cache, keys, result = filled
        # Touch the oldest entry through get(); it must now outlive the
        # untouched middle entries (true LRU, not fill-order FIFO).
        assert cache.get(keys[0]) == result
        _os.utime(cache._path(keys[0]), (2_000_000, 2_000_000))
        cache.prune(self.entry_mb(cache) * 1.5)
        assert cache.get(keys[0]) == result
        assert cache.get(keys[1]) is None

    # -- lifetime totals in the eviction-totals.json sidecar -----------

    def test_prune_updates_sidecar(self, filled):
        cache, _, _ = filled
        pruned = cache.prune(self.entry_mb(cache) * 2.5)
        assert pruned.removed == 4
        stats = cache.stats()
        assert stats.prune_passes == 1
        assert stats.evicted_entries == 4
        assert stats.evicted_bytes == pruned.freed_bytes
        assert stats.last_prune_ts is not None
        assert stats.to_dict()["evicted_entries"] == 4

    def test_sidecar_never_counted_as_an_entry(self, filled):
        cache, _, _ = filled
        cache.prune(self.entry_mb(cache) * 1.5)  # writes the sidecar
        assert cache.stats().entries == 1
        # A full prune-to-zero must not evict the totals file.
        cache.prune(0.0)
        assert cache.eviction_totals()["prune_passes"] == 2

    def test_totals_persist_across_instances(self, filled):
        cache, keys, result = filled
        cache.prune(self.entry_mb(cache) * 2.5)

        # A fresh instance sees the lifetime totals and adds to them.
        cache2 = DiskCache(cache.base)
        assert cache2.stats().evicted_entries == 4
        for key in keys:
            cache2.put(key, result)
        cache2.prune(self.entry_mb(cache2) * 2.5)
        assert cache2.stats().evicted_entries == 8
        assert cache2.stats().prune_passes == 2

    def test_prune_without_quota_raises(self, tmp_path):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_MB"):
            DiskCache(tmp_path).prune()

    def test_put_autoprunes_under_quota(self, tmp_path, monkeypatch):
        monkeypatch.setattr(DiskCache, "PRUNE_INTERVAL", 1)
        probe = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        probe.put("00" + "8" * 62, result)
        budget = probe.stats().total_mb * 2.5
        cache = DiskCache(tmp_path, max_mb=budget)
        for i in range(1, 8):
            cache.put(f"{i:02x}" + "8" * 62, result)
        # Every put scanned (interval 1): the directory never holds more
        # than the quota allows.
        assert len(cache) <= 2

    def test_env_quota_parsing(self, monkeypatch):
        from repro.common.errors import ConfigError
        from repro.sim.executor import default_cache_quota_mb

        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert default_cache_quota_mb() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "64")
        assert default_cache_quota_mb() == 64.0
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "not-a-number")
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_MB"):
            default_cache_quota_mb()
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-3")
        with pytest.raises(ConfigError, match="positive"):
            default_cache_quota_mb()


class TestDefaultJobs:
    """``$REPRO_JOBS`` parsing: loud on a malformed value."""

    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    @pytest.mark.parametrize("raw", ["two", "1.5", "0", "-3"])
    def test_bad_value_raises_naming_variable_and_value(self, monkeypatch,
                                                        raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ConfigError) as excinfo:
            default_jobs()
        assert f"REPRO_JOBS={raw!r}" in str(excinfo.value)


class TestWarmupCells:
    """With perf recording on, the fast engine's first cell of each
    (benchmark, scale, wrong-exec flavour) warms the memos.  It is a real
    cell — result, cache entry, manifest count — that is never
    perf-recorded, and no simulation runs twice."""

    # orig and vc share a flavour (no wrong execution), as do wth-wp
    # and wth-wp-wec; orig-alias shares orig's key.
    LABELS = [("orig", "orig"), ("orig-alias", "orig"), ("vc", "vc"),
              ("wth-wp-wec", "wth-wp-wec"), ("wth-wp", "wth-wp")]

    @pytest.fixture(autouse=True)
    def _no_env_sanitizer(self, monkeypatch):
        # The fast engine refuses a process-wide REPRO_SANITIZE=1 (the
        # CI sanitize leg) by design; these tests pin the engine.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def cells(self):
        return [SweepCell("181.mcf", label, named_config(name), TINY)
                for label, name in self.LABELS]

    def test_run_program_once_per_distinct_key(self, tmp_path, monkeypatch):
        import repro.sim.driver as driver

        calls = []
        real = driver.run_program

        def counting(program, config, params, **kwargs):
            calls.append(config.name)
            return real(program, config, params, **kwargs)

        monkeypatch.setattr(driver, "run_program", counting)
        cache_dir = tmp_path / "cache"
        outcome = run_cells(self.cells(), cache_dir=cache_dir, perf=True,
                            perf_dir=tmp_path / "perf", engine="fast")
        assert sorted(calls) == ["orig", "vc", "wth-wp", "wth-wp-wec"]
        stats = outcome.stats
        assert (stats.executed, stats.shared) == (4, 1)
        assert len(outcome.results) == 5
        assert len(DiskCache(cache_dir)) == 4
        warm = {r.label for r in stats.records if r.warmup}
        assert warm == {"orig", "wth-wp-wec"}
        recorded = {r.config for r in Ledger(tmp_path / "perf").records()}
        assert recorded == {"vc", "wth-wp"}
        cells = stats.to_manifest()["cells"]
        assert {c["label"] for c in cells if c["warmup"]} == warm

    def test_warm_cells_equal_unwarmed_results(self, tmp_path):
        plain = run_cells(self.cells(), cache=False, perf=False,
                          engine="fast")
        assert not any(r.warmup for r in plain.stats.records)
        warmed = run_cells(self.cells(), cache=False, perf=True,
                           perf_dir=tmp_path, engine="fast")
        assert warmed.results == plain.results

    def test_parallel_path_records_every_executed_cell(self, tmp_path):
        # The parent warms the memos its forked workers inherit; every
        # cell then runs, and is recorded, in a worker.
        outcome = run_cells(self.cells(), jobs=2, cache=False, perf=True,
                            perf_dir=tmp_path, engine="fast")
        stats = outcome.stats
        assert (stats.executed, stats.shared, stats.failed) == (4, 1, 0)
        assert not any(r.warmup for r in stats.records)
        assert {r.config for r in Ledger(tmp_path).records()} == \
            {"orig", "vc", "wth-wp", "wth-wp-wec"}


class TestManifestMemory:
    def test_peak_rss_recorded(self, tmp_path):
        path = tmp_path / "m.json"
        run_cells(make_cells(benches=["175.vpr"], labels=["orig"]),
                  cache=False, manifest_path=path)
        data = json.loads(path.read_text())
        # None only where the platform cannot measure it.
        assert (data["peak_rss_kb"] is None) == (peak_rss_kb() is None)
        assert data["peak_rss_kb"] is None or data["peak_rss_kb"] > 0
