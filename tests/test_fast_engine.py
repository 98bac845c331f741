"""Differential and unit tests for the fast trace-replay engine.

The fast engine (:mod:`repro.sim.fast`) must be *bit-identical* to the
oracle interpreter on every ``SimResult`` field — not statistically
close, equal.  The tests here enforce that contract across the full
configuration ladder and several seeds, pin down the engine-selection
rules in the driver, and cover the coherence hook (``bus_update``)
under every sidecar policy on both engines.

Executor fallback and perf-ledger clamping tests (the satellite fixes
that shipped with the engine) live here too since they are exercised
through the same engine plumbing.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import SidecarKind, SimParams
from repro.common.errors import ConfigError
from repro.common.rng import StreamFactory
from repro.mem.cache import DIRTY, WRONG, SetAssocCache
from repro.mem.hierarchy import TUMemSystem
from repro.mem.l2 import SharedL2
from repro.mem.layout import geometry_of
from repro.obs.fidelity import campaign_sections
from repro.obs.hostprof import HostProfiler
from repro.obs.ledger import WALL_EPSILON_S, PerfRecord
from repro.sim import executor
from repro.sim.driver import run_simulation
from repro.sim.executor import (
    SweepCell, config_fingerprint, default_engine, run_cells,
)
from repro.sim.fast.compile import compiled_region_for
from repro.sim.fast.engine import _FastMachine
from repro.sta.configs import named_config
from repro.sta.machine import Machine
from repro.sta.scheduler import Scheduler
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.microbench import build_microbenchmark
from repro.workloads.program import SequentialRegionSpec
from repro.workloads.tracegen import TraceGenerator

#: The differential ladder: every paper configuration plus the two
#: wrong-execution ablations and the stream-prefetch extension — one
#: config per distinct policy/flag combination the engines implement.
LADDER = (
    "orig", "wp", "wth", "wth-wp", "wth-wp-wec", "vc", "nlp", "stream-pf",
)
SEEDS = (2003, 7, 42)
SCALE = 1e-5
#: The fidelity campaign's smoke scale.
CAMPAIGN_SCALE = 2e-5


@pytest.fixture(scope="module", autouse=True)
def _no_env_sanitizer():
    """Strip a process-wide ``REPRO_SANITIZE=1`` (the CI sanitize leg).

    The observer policy is raise-not-fallback: with the env sanitizer
    active, every ``engine="fast"`` call here would be a ConfigError by
    design.  These tests pin engines explicitly and test the sanitizer
    interplay on purpose (TestEngineSelection), so the ambient knob is
    removed first.  Module-scoped so it precedes the module-scoped
    result fixtures.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_SANITIZE", raising=False)
        yield


@pytest.fixture(scope="module")
def mcf_program():
    # Programs are stateless/seed-independent; build once, reuse across
    # every (config, seed, engine) cell.
    return build_benchmark("181.mcf", scale=SCALE)


# ---------------------------------------------------------------------------
# Bit-identity: the acceptance contract
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config_name", LADDER)
    def test_ladder_bit_identical(self, mcf_program, config_name, seed):
        cfg = named_config(config_name)
        params = SimParams(seed=seed, scale=SCALE)
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("config_name", LADDER)
    def test_ladder_region_records_bit_identical(self, mcf_program,
                                                 config_name):
        # Every region invocation, warm-up included, is recorded and
        # compared field by field.
        cfg = named_config(config_name)
        params = SimParams(seed=7, scale=SCALE, record_regions=True,
                           warmup_invocations=0)
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert len(fast.region_cycles) == len(list(mcf_program.schedule()))
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("kind", ["random", "mixed", "chase"])
    @pytest.mark.parametrize("config_name", ["wth-wp-wec", "nlp", "stream-pf"])
    def test_microbench_workloads_bit_identical(self, kind, config_name):
        # Synthetic access patterns (uniform random, pointer chase, the
        # mixed blend) stress sidecar/replacement paths the SPEC models
        # visit rarely at smoke scale.
        program = build_microbenchmark(kind, iters_per_invocation=80,
                                       n_invocations=3)
        cfg = named_config(config_name)
        params = SimParams(seed=7)
        oracle = run_simulation(program, cfg, params, engine="oracle")
        fast = run_simulation(program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    def test_repeat_runs_deterministic(self, mcf_program):
        cfg = named_config("wth-wp-wec")
        params = SimParams(seed=42, scale=SCALE)
        first = run_simulation(mcf_program, cfg, params, engine="fast")
        second = run_simulation(mcf_program, cfg, params, engine="fast")
        assert first.to_dict() == second.to_dict()


def _campaign_configs():
    """The distinct configurations of the fidelity campaign's union grid.

    Labels that name an equal configuration (``orig@8tu`` is ``orig``)
    are one simulation, so they are one case here.
    """
    configs = {}
    for section in campaign_sections().values():
        for label, cfg in section.items():
            configs.setdefault(config_fingerprint(cfg), (label, cfg))
    return list(configs.values())


CAMPAIGN_CONFIGS = _campaign_configs()


@pytest.fixture(scope="module")
def mcf_campaign_program():
    return build_benchmark("181.mcf", scale=CAMPAIGN_SCALE)


class TestCampaignGrid:
    """Bit-identity on every configuration the scorecard depends on."""

    def test_distinct_config_count(self):
        assert len(CAMPAIGN_CONFIGS) == 45

    @pytest.mark.parametrize(
        "cfg", [cfg for _label, cfg in CAMPAIGN_CONFIGS],
        ids=[label for label, _cfg in CAMPAIGN_CONFIGS],
    )
    def test_campaign_config_bit_identical(self, mcf_campaign_program, cfg):
        params = SimParams(seed=2003, scale=CAMPAIGN_SCALE)
        oracle = run_simulation(mcf_campaign_program, cfg, params,
                                engine="oracle")
        fast = run_simulation(mcf_campaign_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    def test_stores_to_peer_copies_deliver_updates(self):
        # Sequential stores to blocks the peers hold update those copies
        # on both engines: one block sits in peer 1's L1D, another in
        # peer 2's sidecar, and peer 3 holds neither; a third stored
        # block is in no peer.  The fast engine finds the held ones
        # through its per-invocation set of peer blocks; every other
        # store is only counted.
        program = build_benchmark("164.gzip", scale=SCALE)
        invocation, region = next(
            (inv, reg) for inv, reg in program.schedule()
            if isinstance(reg, SequentialRegionSpec)
        )
        cfg = named_config("wth-wp-wec")
        params = SimParams(seed=7, scale=SCALE)
        machine = Machine(cfg, params)
        scheduler = Scheduler(machine, TraceGenerator(StreamFactory(params.seed)))
        eng = _FastMachine(cfg, params)
        lo, hi = region.global_chunk_range(invocation)
        comp = compiled_region_for(region)
        stores = [a for c in range(lo, hi)
                  for a in comp.trace(eng.streams, eng.seed, c).store_addrs]
        blocks = list(dict.fromkeys(a >> eng.tus[0].l1d_bits for a in stores))
        assert len(blocks) >= 3
        in_l1d, in_side = blocks[:2]
        machine.tus[1].mem.l1d.insert(in_l1d, DIRTY)
        eng.tus[1].l1d_sets[in_l1d & eng.tus[1].l1d_mask][in_l1d] = DIRTY
        machine.tus[2].mem.sidecar.insert(in_side, WRONG)
        eng.tus[2].side[in_side] = WRONG

        oracle = scheduler.run_sequential_region(region, invocation)
        assert eng.run_sequential_region(region, invocation) == oracle
        counters = eng.collect_stats()
        assert counters == machine.collect_stats()
        updates = [counters.get(f"tu{i}.mem.bus_updates", 0) for i in (1, 2, 3)]
        assert updates[0] >= 1 and updates[1] >= 1 and updates[2] == 0
        assert counters["bus.updates_delivered"] == sum(updates)
        assert counters["bus.store_broadcasts"] == len(stores)
        assert len(stores) > sum(updates)


# ---------------------------------------------------------------------------
# Engine selection rules in the driver
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_unknown_engine_rejected(self, mcf_program):
        with pytest.raises(ConfigError, match="unknown engine"):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="turbo")

    @pytest.mark.parametrize("observer", ["tracer", "sanitizer", "attrib"])
    def test_fast_rejects_event_level_observers(self, mcf_program, observer):
        # The fast engine has no event loop to observe; asking for one
        # must be a loud error, never a silently observer-less run.
        with pytest.raises(ConfigError, match=observer):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           **{observer: object()})

    def test_sanitize_env_raises_like_kwarg_observers(self, mcf_program,
                                                      monkeypatch):
        # One policy for every event-level observer: the env-derived
        # sanitizer raises the same ConfigError as explicit kwargs
        # (historically it warned and silently fell back to oracle).
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cfg = named_config("wth-wp")
        params = SimParams(scale=SCALE)
        with pytest.raises(ConfigError, match="REPRO_SANITIZE"):
            run_simulation(mcf_program, cfg, params, engine="fast")
        monkeypatch.delenv("REPRO_SANITIZE")
        # With the observer gone the fast engine runs again.
        run_simulation(mcf_program, cfg, params, engine="fast")

    def test_policy_message_names_escape_hatch(self, mcf_program):
        with pytest.raises(ConfigError, match="--engine oracle"):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           tracer=object())

    def test_profiler_supported_on_fast(self, mcf_program):
        # A profiled run is bit-identical to an unprofiled one and fires
        # the driver's scheduler sections, as on the oracle.
        cfg = named_config("orig")
        params = SimParams(scale=SCALE)
        plain = run_simulation(mcf_program, cfg, params, engine="fast")
        profiler = HostProfiler()
        profiled = run_simulation(mcf_program, cfg, params, engine="fast",
                                  profiler=profiler)
        assert profiled.to_dict() == plain.to_dict()
        snap = profiler.snapshot(1.0)
        assert snap["scheduler.parallel"]["calls"] > 0
        assert snap["scheduler.sequential"]["calls"] > 0

    def test_default_engine_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "oracle"
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert default_engine() == "fast"
        monkeypatch.setenv("REPRO_ENGINE", " Oracle ")
        assert default_engine() == "oracle"
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigError, match="REPRO_ENGINE"):
            default_engine()


# ---------------------------------------------------------------------------
# bus_update under every sidecar policy, both engines
# ---------------------------------------------------------------------------

POLICY_CONFIGS = (
    ("orig", SidecarKind.NONE),
    ("vc", SidecarKind.VICTIM),
    ("wth-wp-wec", SidecarKind.WEC),
    ("nlp", SidecarKind.PREFETCH),
    ("stream-pf", SidecarKind.STREAM),
)


class TestBusUpdate:
    """The coherence hook answers "does this TU cache the block?".

    Presence must include sidecar-resident blocks (whatever their
    flags — a WRONG-flagged WEC block is still a valid copy under the
    update protocol) and must bump ``bus_updates`` only on application.
    """

    @staticmethod
    def _pair(config_name):
        cfg = named_config(config_name)
        params = SimParams(scale=SCALE)
        oracle = TUMemSystem(
            0, cfg.tu.l1d, cfg.tu.l1i, cfg.tu.sidecar, SharedL2(cfg.mem),
            prefetch_late_cycles=params.prefetch_late_cycles,
            prefetch_late_far_cycles=params.prefetch_late_far_cycles,
        )
        fast = _FastMachine(cfg, params).tus[0]
        return oracle, fast

    @staticmethod
    def _agree(oracle, fast, addr):
        got_o = oracle.bus_update(addr)
        got_f = fast.bus_update(addr)
        assert got_o == got_f
        assert oracle.stats["bus_updates"] == fast.m["bus_updates"]
        return got_o

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_dirty_l1_block_applies(self, config_name, kind):
        oracle, fast = self._pair(config_name)
        block, bits = 5, oracle.l1d.block_bits
        oracle.l1d.insert(block, DIRTY)
        fast.l1d_sets[block & fast.l1d_mask][block] = DIRTY
        assert self._agree(oracle, fast, block << bits) is True
        assert oracle.stats["bus_updates"] == 1

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_wrong_sidecar_block_applies(self, config_name, kind):
        if kind is SidecarKind.NONE:
            pytest.skip("no sidecar under the plain policy")
        oracle, fast = self._pair(config_name)
        block, bits = 9, oracle.l1d.block_bits
        oracle.sidecar.insert(block, WRONG)
        fast.side[block] = WRONG
        assert self._agree(oracle, fast, block << bits) is True
        assert oracle.stats["bus_updates"] == 1

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_absent_block_is_a_miss(self, config_name, kind):
        oracle, fast = self._pair(config_name)
        assert self._agree(oracle, fast, 0xBEEF00) is False
        assert oracle.stats["bus_updates"] == 0


# ---------------------------------------------------------------------------
# Executor: no silent serial fallback
# ---------------------------------------------------------------------------

def _two_cells():
    params = SimParams(scale=SCALE)
    return [
        SweepCell("181.mcf", "orig", named_config("orig"), params),
        SweepCell("181.mcf", "vc", named_config("vc"), params),
    ]


class TestSerialFallback:
    def test_fork_unavailable_recorded_and_warned(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor, "_fork_available", lambda: False)
        manifest_path = tmp_path / "manifest.json"
        with pytest.warns(RuntimeWarning, match="fork-unavailable"):
            out = run_cells(_two_cells(), jobs=2, cache=False,
                            manifest_path=manifest_path)
        assert out.stats.serial_fallback == "fork-unavailable"
        assert out.stats.jobs_used == 1
        assert len(out.results) == 2
        manifest = json.loads(manifest_path.read_text())
        assert manifest["serial_fallback"] == "fork-unavailable"

    def test_single_cell_fallback_reason(self):
        with pytest.warns(RuntimeWarning, match="single-cell"):
            out = run_cells(_two_cells()[:1], jobs=4, cache=False)
        assert out.stats.serial_fallback == "single-cell"

    def test_serial_run_has_no_fallback_marker(self):
        out = run_cells(_two_cells(), jobs=1, cache=False)
        assert out.stats.serial_fallback is None
        assert out.stats.jobs_used == 1

    def test_parallel_path_matches_serial(self):
        serial = run_cells(_two_cells(), jobs=1, cache=False)
        parallel = run_cells(_two_cells(), jobs=2, cache=False)
        assert parallel.stats.serial_fallback is None
        assert parallel.stats.jobs_used == 2
        for key, result in serial.results.items():
            assert parallel.results[key].to_dict() == result.to_dict()


# ---------------------------------------------------------------------------
# Perf ledger: sub-resolution walls and engine provenance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_result(mcf_program):
    return run_simulation(mcf_program, named_config("orig"),
                          SimParams(scale=SCALE), engine="fast")


class TestPerfRecord:
    def test_zero_wall_clamps_rates(self, tiny_result):
        rec = PerfRecord.from_result(tiny_result, wall_s=0.0)
        assert rec.host["wall_s"] == 0.0  # raw measurement preserved
        assert rec.host["wall_clamped"] == 1.0
        assert rec.host["events_per_sec"] == pytest.approx(
            tiny_result.instructions / WALL_EPSILON_S
        )
        assert rec.host["cycles_per_sec"] == pytest.approx(
            tiny_result.total_cycles / WALL_EPSILON_S
        )

    def test_normal_wall_unclamped(self, tiny_result):
        rec = PerfRecord.from_result(tiny_result, wall_s=0.25)
        assert "wall_clamped" not in rec.host
        assert rec.host["events_per_sec"] == pytest.approx(
            tiny_result.instructions / 0.25
        )

    def test_engine_provenance_stamped(self, tiny_result):
        assert PerfRecord.from_result(
            tiny_result, wall_s=0.1, engine="fast"
        ).provenance["engine"] == "fast"
        # Pre-engine ledgers defaulted to the oracle; an empty stamp
        # must read back the same way.
        assert PerfRecord.from_result(
            tiny_result, wall_s=0.1
        ).provenance["engine"] == "oracle"


# ---------------------------------------------------------------------------
# Shared cache geometry
# ---------------------------------------------------------------------------

class TestLayoutGeometry:
    @pytest.mark.parametrize("config_name", ["orig", "wth-wp-wec", "stream-pf"])
    def test_matches_oracle_cache_arrays(self, config_name):
        for cache_cfg in (named_config(config_name).tu.l1d,
                          named_config(config_name).tu.l1i,
                          named_config(config_name).mem.l2):
            cache = SetAssocCache(cache_cfg)
            geom = geometry_of(cache_cfg)
            assert geom.n_sets == cache.n_sets
            assert geom.assoc == cache.assoc
            assert geom.block_bits == cache.block_bits
            assert geom.set_mask == cache.n_sets - 1

    def test_block_and_set_math(self):
        geom = geometry_of(named_config("orig").tu.l1d)
        byte_addr = (geom.n_sets + 3) << geom.block_bits
        block = geom.block_of(byte_addr)
        assert block == geom.n_sets + 3
        assert geom.set_index(block) == 3
