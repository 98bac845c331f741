"""Tests for the STA machine and the thread-pipelining scheduler."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    SidecarConfig,
    SidecarKind,
    SimParams,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from repro.common.errors import SimulationError
from repro.common.rng import StreamFactory
from repro.isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from repro.sta.machine import Machine
from repro.sta.scheduler import Scheduler
from repro.workloads.patterns import RandomPattern, SequentialPattern
from repro.workloads.program import (
    ParallelRegionSpec,
    SequentialRegionSpec,
    WrongExecProfile,
)
from repro.workloads.tracegen import TraceGenerator


def small_cfg(n_tus=4, wrong_thread=False, wrong_path=False):
    return MachineConfig(
        name="t",
        n_thread_units=n_tus,
        tu=ThreadUnitConfig(
            issue_width=4,
            rob_size=32,
            lsq_size=32,
            l1d=CacheConfig(size=1024, assoc=1, block_size=64, name="l1d"),
            l1i=CacheConfig(size=2048, assoc=2, block_size=64, name="l1i"),
            sidecar=SidecarConfig(kind=SidecarKind.WEC, entries=4)
            if wrong_thread or wrong_path
            else SidecarConfig(),
        ),
        wrong_exec=WrongExecutionConfig(wrong_path=wrong_path,
                                        wrong_thread=wrong_thread),
    )


def region(dep_coupling=0.1, iters=12):
    cfg = IterationCFG(
        entry="a",
        blocks=[
            BlockSpec(
                "a",
                30,
                mem_slots=(MemSlot("d"), MemSlot("d"),
                           MemSlot("o", is_store=True, is_target_store=True)),
                branch=BranchSpec(0.9, None, None, noise=0.05),
            ),
        ],
    )
    return ParallelRegionSpec(
        name="sched.region",
        cfg=cfg,
        patterns={
            "d": SequentialPattern("d", 0x10000, 32 * 1024, stride=32,
                                   per_iter=2, stagger=False),
            "o": SequentialPattern("o", 0x100000, 8 * 1024, stride=8,
                                   per_iter=1, stagger=False),
            "p": RandomPattern("p", 0x200000, 8 * 1024, stagger=False),
        },
        iters_per_invocation=iters,
        dep_coupling=dep_coupling,
        pollution_pattern="p",
    )


def seq_region():
    cfg = IterationCFG(
        entry="a",
        blocks=[BlockSpec("a", 20, mem_slots=(
            MemSlot("d"), MemSlot("o", is_store=True)))],
    )
    return SequentialRegionSpec(
        name="sched.seq",
        cfg=cfg,
        patterns={
            "d": SequentialPattern("d", 0x10000, 32 * 1024, stride=32,
                                   per_iter=1, stagger=False),
            "o": SequentialPattern("o", 0x300000, 8 * 1024, stride=8,
                                   per_iter=1, stagger=False),
        },
        chunks_per_invocation=6,
    )


def make(n_tus=4, **kw):
    machine = Machine(small_cfg(n_tus=n_tus, **kw), SimParams(seed=5))
    sched = Scheduler(machine, TraceGenerator(StreamFactory(5)))
    return machine, sched


class TestMachine:
    def test_construction(self):
        machine, _ = make(n_tus=4)
        assert machine.n_tus == 4
        assert len(machine.tus) == 4
        assert machine.bus.n_taps == 4

    def test_round_robin_assignment(self):
        machine, _ = make(n_tus=4)
        assert machine.tu_for_iteration(0).tu_id == 0
        assert machine.tu_for_iteration(5).tu_id == 1
        assert machine.tu_for_iteration(11).tu_id == 3

    def test_set_head_validation(self):
        machine, _ = make(n_tus=2)
        machine.set_head(1)
        assert machine.head_tu == 1
        with pytest.raises(SimulationError):
            machine.set_head(5)

    def test_collect_stats_covers_components(self):
        machine, sched = make()
        sched.run_parallel_region(region(), 0)
        stats = machine.collect_stats()
        assert any(k.startswith("tu0.mem.") for k in stats)
        assert any(k.startswith("l2.") for k in stats)
        assert any(k.startswith("tu0.bpred.") for k in stats)

    def test_reset_statistics_keeps_cache_state(self):
        machine, sched = make()
        sched.run_parallel_region(region(), 0)
        occ_before = machine.tus[0].mem.l1d.occupancy()
        machine.reset_statistics()
        assert machine.tus[0].mem.l1d.occupancy() == occ_before
        assert not any(machine.collect_stats().values())

    def test_full_reset_clears_caches(self):
        machine, sched = make()
        sched.run_parallel_region(region(), 0)
        machine.reset()
        assert machine.tus[0].mem.l1d.occupancy() == 0
        assert machine.head_tu == 0


class TestParallelScheduling:
    def test_region_cycles_positive_and_spread(self):
        machine, sched = make(n_tus=4)
        rr = sched.run_parallel_region(region(iters=12), 0)
        assert rr.cycles > 0
        assert rr.iterations == 12
        # All four TUs executed iterations.
        for tu in machine.tus:
            assert tu.stats["iterations"] == 3

    def test_pipelining_speeds_up(self):
        r = region(dep_coupling=0.0, iters=16)
        m1, s1 = make(n_tus=1)
        t1 = s1.run_parallel_region(r, 0).cycles
        m4, s4 = make(n_tus=4)
        t4 = s4.run_parallel_region(r, 0).cycles
        assert t4 < t1  # thread pipelining overlaps iterations

    def test_coupling_serializes(self):
        loose = region(dep_coupling=0.0, iters=16)
        tight = dataclasses.replace(loose, dep_coupling=1.0)
        _, s1 = make(n_tus=4)
        t_loose = s1.run_parallel_region(loose, 0).cycles
        _, s2 = make(n_tus=4)
        t_tight = s2.run_parallel_region(tight, 0).cycles
        assert t_tight > t_loose

    def test_head_moves_to_last_iteration_tu(self):
        machine, sched = make(n_tus=4)
        sched.run_parallel_region(region(iters=10), 0)  # iters 0..9
        assert machine.head_tu == 9 % 4

    def test_empty_range_rejected(self):
        machine, sched = make()
        bad = dataclasses.replace(region(), iters_per_invocation=1)
        # invocation range is fine; force an empty one artificially
        with pytest.raises(SimulationError):
            # global_iter_range is lo==hi only if iters==0, which the
            # spec forbids; simulate by calling with a handcrafted spec.
            object.__setattr__  # appease linters
            bad2 = dataclasses.replace(bad)
            bad2.__dict__["iters_per_invocation"] = 0
            sched.run_parallel_region(bad2, 0)

    def test_wrong_threads_spawn_only_when_enabled(self):
        r = region(iters=8)
        m_off, s_off = make(n_tus=4, wrong_thread=False)
        rr_off = s_off.run_parallel_region(r, 0)
        assert rr_off.wrong_thread_loads == 0
        m_on, s_on = make(n_tus=4, wrong_thread=True)
        rr_on = s_on.run_parallel_region(r, 0)
        assert rr_on.wrong_thread_loads > 0

    def test_wrong_threads_need_multiple_tus(self):
        r = region(iters=8)
        _, s = make(n_tus=1, wrong_thread=True)
        rr = s.run_parallel_region(r, 0)
        assert rr.wrong_thread_loads == 0

    def test_single_tu_pays_no_fork_cost(self):
        """With one TU there is no fork; cycles must equal the sum of
        iteration times (no added fork delay)."""
        r = region(dep_coupling=0.0, iters=4)
        machine, sched = make(n_tus=1)
        rr = sched.run_parallel_region(r, 0)
        # Re-execute on a fresh identical machine to sum iteration times.
        machine2, _ = make(n_tus=1)
        tg = TraceGenerator(StreamFactory(5))
        total = sum(
            machine2.tus[0]
            .execute_iteration(r, i, tg.iteration_trace(r, i), tg)
            .total
            for i in range(4)
        )
        assert rr.cycles == pytest.approx(total, rel=1e-9)


class TestSequentialScheduling:
    def test_runs_on_head_tu(self):
        machine, sched = make(n_tus=4)
        machine.set_head(2)
        rr = sched.run_sequential_region(seq_region(), 0)
        assert rr.kind == "sequential"
        assert machine.tus[2].stats["chunks"] == 6
        assert machine.tus[0].stats["chunks"] == 0

    def test_cycles_accumulate_over_chunks(self):
        machine, sched = make(n_tus=2)
        rr = sched.run_sequential_region(seq_region(), 0)
        assert rr.cycles > 0
        assert rr.iterations == 6
