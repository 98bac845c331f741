"""The six SPEC2000-like benchmark models (Tables 1 and 2).

The paper evaluates four SPECint2000 programs (175.vpr, 164.gzip,
181.mcf, 197.parser) and two SPECfp2000 programs (183.equake, 177.mesa),
manually parallelized for the superthreaded execution model and run on
MinneSPEC reduced inputs.  We cannot ship SPEC, so each model here is a
synthetic loop-nest program whose *memory and control behaviour* mirrors
the published characterization of its namesake:

================  ==========================================================
benchmark         model
================  ==========================================================
175.vpr           small working set (placement grids close to cache-
                  resident), high intrinsic ILP, strong cross-iteration
                  coupling (it *slows down* with more TUs in the paper),
                  and hard data-dependent accept/reject branches → the
                  largest wrong-path traffic (Figure 17).
164.gzip          hot/cold hash+window lookups plus an input stream; tiny
                  cross-iteration coupling (near-linear 14x TLP speedup in
                  Figure 8).
181.mcf           pointer chasing over an arc network far larger than any
                  cache; memory bound, low ILP; wrong execution validly
                  chases ahead → the largest WEC speedup (≈18.5%) but the
                  smallest relative miss-count reduction (Figure 17).
197.parser        dictionary pointer chasing over a medium, partially
                  reused footprint with noisy parse decisions.
183.equake        sparse matrix-vector product: streaming value/index
                  arrays plus gathers through a vector.
177.mesa          regular FP rasterization streams with high spatial
                  locality → next-line prefetching (and hence the WEC)
                  removes up to ~73% of misses (Figure 17).
================  ==========================================================

Sizing discipline (MinneSPEC applied twice): dynamic instruction budgets
come from Table 2 scaled by ``SimParams.scale``; *data footprints are
sized in touched-bytes* — a stream that the paper's code re-walks every
outer invocation is sized to exactly one invocation's advance, so it
wraps per invocation and exhibits the same reuse structure at any scale.
Structures the original never re-visits (mcf's arc chase) are sized so
they never wrap within a run.  Each benchmark also has a *hot* set
(locals, headers, LUTs) somewhat larger than the 8KB L1, giving the
direct-mapped L1 real conflict/capacity reuse misses — which is what
makes wrong-execution pollution genuinely costly without a WEC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..common.errors import WorkloadError
from ..isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from ..isa.encoding import StageSplit
from ..isa.instructions import InstrClass
from .catalog import BENCHMARK_INFO, BENCHMARK_NAMES, BenchmarkInfo, benchmark_infos
from .patterns import (
    AddressPattern,
    HotColdPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
)
from .program import (
    ParallelRegionSpec,
    Program,
    SequentialRegionSpec,
    WrongExecProfile,
)

__all__ = [
    "BENCHMARK_NAMES",
    "BENCHMARK_INFO",
    "N_INVOCATIONS",
    "build_benchmark",
    "benchmark_infos",
]

#: Invocations of the program body per run (outer re-entries of the
#: parallelized loops).
N_INVOCATIONS = 4

KB = 1024
MB = 1024 * 1024

# Data-space bases, 256 MB apart per benchmark so footprints never alias.
_HEAP_BASE = 0x1000_0000
_HEAP_STRIDE = 0x1000_0000

_INT_MIX = {InstrClass.IALU: 0.82, InstrClass.IMULT: 0.03, InstrClass.OTHER: 0.15}
_FP_MIX = {
    InstrClass.IALU: 0.35,
    InstrClass.FPALU: 0.40,
    InstrClass.FPMULT: 0.15,
    InstrClass.OTHER: 0.10,
}


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------

def _budgets(info: BenchmarkInfo, scale: float) -> Tuple[float, float]:
    """(parallel, sequential) dynamic-instruction budgets for one run."""
    whole = info.whole_minstr * 1e6 * scale
    par = info.targeted_minstr * 1e6 * scale
    return par, whole - par


def _estimate_instr(cfg: IterationCFG, n_samples: int = 32) -> float:
    """Expected dynamic instructions per CFG walk (deterministic sampling)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345)))
    return sum(cfg.walk(rng).n_instr for _ in range(n_samples)) / n_samples


def _iters(par_budget: float, cfg: IterationCFG, share: float = 1.0) -> int:
    """Iterations per invocation that spend ``share`` of the budget."""
    per_iter = _estimate_instr(cfg)
    return max(8, int(round(par_budget * share / N_INVOCATIONS / per_iter)))


def _chunks(seq_budget: float, cfg: IterationCFG) -> int:
    """Chunks per invocation for a sequential region."""
    per_chunk = _estimate_instr(cfg)
    return max(2, int(round(seq_budget / N_INVOCATIONS / per_chunk)))


def _wrap_size(ipi: int, per_iter: int, stride: int, wraps: float = 1.0) -> int:
    """Array size such that one invocation advances ``wraps`` times around.

    ``wraps=1`` → the structure is re-walked exactly once per invocation
    (reused across invocations, L2-warm after the first);
    ``wraps=1/N_INVOCATIONS`` → never wraps within a run (always cold).
    """
    if wraps <= 0:
        raise WorkloadError("wraps must be positive")
    size = int(ipi * per_iter * stride / wraps)
    return max(4 * KB, (size // 64) * 64)


def _chase_nodes(ipi: int, per_iter: int, wraps: float = 1.0) -> int:
    """Node count for a pointer chase with the given wrap structure."""
    if wraps <= 0:
        raise WorkloadError("wraps must be positive")
    return max(64, int(ipi * per_iter / wraps))



def _densify(
    blocks: List[BlockSpec],
    every: int = 12,
    bias: float = 0.9,
    noise: float = 0.05,
) -> List[BlockSpec]:
    """Split large basic blocks to a realistic branch density.

    Real integer code carries a conditional branch every ~8–15
    instructions; the coarse hand-written blocks above would otherwise
    understate misprediction *episode* volume — and wrong-path load
    injection happens per episode.  Each oversized block becomes a chain
    of ``~every``-instruction sub-blocks separated by biased hammock
    branches (both arms reconverge on the next sub-block, so control
    flow and memory slots are unchanged); the original terminator stays
    on the last sub-block.  Memory slots are distributed round-robin.
    """
    out: List[BlockSpec] = []
    for b in blocks:
        n_parts = max(1, b.n_instr // every)
        if n_parts == 1:
            out.append(b)
            continue
        per = b.n_instr // n_parts
        slots = list(b.mem_slots)
        for i in range(n_parts):
            sub_name = b.name if i == 0 else f"{b.name}.{i}"
            sub_slots = tuple(
                slots[j] for j in range(len(slots)) if j % n_parts == i
            )
            if i < n_parts - 1:
                nxt = f"{b.name}.{i + 1}"
                out.append(
                    BlockSpec(
                        sub_name,
                        per,
                        b.mix_weights,
                        sub_slots,
                        branch=BranchSpec(bias, nxt, nxt, noise=noise),
                    )
                )
            else:
                out.append(
                    BlockSpec(
                        sub_name,
                        b.n_instr - per * (n_parts - 1),
                        b.mix_weights,
                        sub_slots,
                        branch=b.branch,
                        next_block=b.next_block,
                    )
                )
    return out


def _seq_region(
    name: str,
    base: int,
    seq_budget: float,
    mix: Dict[InstrClass, float],
    ilp: float = 2.0,
    hot_size: int = 6 * KB,
    wrong_exec: WrongExecProfile = WrongExecProfile(
        wp_mean_loads=2.0, wp_max_loads=6, p_convergent=0.45, wp_lookahead=18
    ),
    stream_wraps: float = 1.0,
) -> SequentialRegionSpec:
    """A generic sequential section between parallelized loops.

    Real glue code is dominated by a *hot* working set (locals, small
    tables) with high L1 residency, plus a trickle of result stores —
    not by streaming, which would hand next-line prefetching an
    unrealistic feast.  The hot set is sized near the L1 so the region
    has some reuse misses, the occasional stores exercise the
    sequential-mode update bus, and a single moderately biased branch
    gives the head thread realistic wrong-path episodes.
    """
    patterns: Dict[str, AddressPattern] = {
        f"{name}.hot": RandomPattern(
            f"{name}.hot", base, hot_size, granule=32, salt=61
        ),
        f"{name}.out": SequentialPattern(
            f"{name}.out", base + 2 * MB, 16 * KB, stride=8, per_iter=1
        ),
    }
    cfg = IterationCFG(
        entry="head",
        blocks=_densify([
            BlockSpec(
                "head",
                n_instr=90,
                mix_weights=mix,
                mem_slots=tuple(MemSlot(f"{name}.hot") for _ in range(5))
                + (MemSlot(f"{name}.stream"), MemSlot(f"{name}.stream")),
                # (stream pattern is sized after the chunk count below)
                branch=BranchSpec(0.92, "tail", "slow", noise=0.04),
            ),
            BlockSpec(
                "slow",
                n_instr=30,
                mix_weights=mix,
                mem_slots=(MemSlot(f"{name}.hot"), MemSlot(f"{name}.hot")),
                next_block="tail",
            ),
            BlockSpec(
                "tail",
                n_instr=40,
                mix_weights=mix,
                mem_slots=(
                    MemSlot(f"{name}.hot"),
                    MemSlot(f"{name}.stream"),
                    MemSlot(f"{name}.out", is_store=True),
                ),
            ),
        ]),
        pc_base=0x500000,
    )
    chunks = _chunks(seq_budget, cfg)
    # A working stream walked on one TU (no round-robin striping here):
    # sized to wrap once per invocation, so it is L2-warm after the
    # first pass — both prefetching schemes can chain on it.
    stream_advance = 2 * 32  # per_iter * stride
    patterns[f"{name}.stream"] = SequentialPattern(
        f"{name}.stream", base + 1 * MB,
        max(4 * KB, int(chunks * stream_advance / stream_wraps) // 64 * 64),
        stride=32, per_iter=2,
    )
    return SequentialRegionSpec(
        name=name,
        cfg=cfg,
        patterns=patterns,
        chunks_per_invocation=chunks,
        ilp=ilp,
        wrong_exec=wrong_exec,
        pollution_pattern=f"{name}.hot",
    )


# ---------------------------------------------------------------------------
# 175.vpr — FPGA place & route: small footprint, ILP-rich, TLP-poor
# ---------------------------------------------------------------------------

def _build_vpr(scale: float) -> Program:
    info = BENCHMARK_INFO["175.vpr"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 0 * _HEAP_STRIDE
    cfg = IterationCFG(
        entry="try_swap",
        blocks=_densify([
            BlockSpec(
                "try_swap",
                n_instr=30,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("grid"), MemSlot("nets"), MemSlot("grid")),
                # Simulated-annealing accept/reject: essentially a coin
                # flip the predictor cannot learn (vpr's hallmark).
                branch=BranchSpec(0.5, "accept", "reject", noise=0.9),
            ),
            BlockSpec(
                "accept",
                n_instr=35,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("grid"),
                    MemSlot("cost"),
                    MemSlot("grid", is_store=True, is_target_store=True),
                ),
                next_block="cost_upd",
            ),
            BlockSpec(
                "reject",
                n_instr=15,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("cost"),),
                next_block="cost_upd",
            ),
            BlockSpec(
                "cost_upd",
                n_instr=45,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("nets"),
                    MemSlot("cost"),
                    MemSlot("grid"),
                    MemSlot("cost", is_store=True),
                ),
                # Bounding-box recompute needed only occasionally.
                branch=BranchSpec(0.92, None, "bbox", noise=0.02),
            ),
            BlockSpec(
                "bbox",
                n_instr=18,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("nets"), MemSlot("grid")),
            ),
        ]),
    )
    ipi = _iters(par_budget, cfg)
    # vpr's structures: a placement grid + net list + cost arrays, all
    # modest; combined hot footprint ~2.5x the 8K L1.
    patterns: Dict[str, AddressPattern] = {
        "grid": RandomPattern("grid", base, 9 * KB, granule=32, salt=7),
        "nets": SequentialPattern(
            "nets", base + 64 * KB,
            _wrap_size(ipi, 6, 16, wraps=4.0), stride=16, per_iter=6,
        ),
        "cost": RandomPattern("cost", base + 256 * KB, 6 * KB, granule=16, salt=11),
        # Off-path loads still touch the same small placement structures.
        "wp_pollute": RandomPattern(
            "wp_pollute", base, 20 * KB, granule=64, salt=13
        ),
    }
    region = ParallelRegionSpec(
        name="vpr.place_loop",
        cfg=cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.08, 0.07, 0.77, 0.08),
        n_forward_values=4,
        ilp=10.0,
        dep_coupling=0.88,
        code_footprint=6 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=3.5, wp_max_loads=8, p_convergent=0.30,
            wp_lookahead=6, wth_fraction=0.5, wth_max_iters=1,
        ),
    )
    seq = _seq_region(
        "vpr.seq", base + 4 * MB, seq_budget, _INT_MIX, ilp=4.0,
        hot_size=8 * KB,
        wrong_exec=WrongExecProfile(
            wp_mean_loads=3.5, wp_max_loads=8, p_convergent=0.4, wp_lookahead=18
        ),
    )
    return Program("175.vpr", [seq, region], N_INVOCATIONS, info)


# ---------------------------------------------------------------------------
# 164.gzip — compression: hot/cold tables, near-perfect TLP
# ---------------------------------------------------------------------------

def _build_gzip(scale: float) -> Program:
    info = BENCHMARK_INFO["164.gzip"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 1 * _HEAP_STRIDE
    cfg = IterationCFG(
        entry="fill",
        blocks=_densify([
            BlockSpec(
                "fill",
                n_instr=45,
                mix_weights=_INT_MIX,
                mem_slots=tuple(MemSlot("input") for _ in range(8)),
                next_block="match",
            ),
            BlockSpec(
                "match",
                n_instr=40,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("hashtab"), MemSlot("window"), MemSlot("window")),
                # Match/no-match: biased but data dependent.
                branch=BranchSpec(0.86, "emit_match", "emit_literal", noise=0.1),
            ),
            BlockSpec(
                "emit_match",
                n_instr=50,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("window"),
                    MemSlot("window"),
                    MemSlot("output", is_store=True),
                    MemSlot("hashtab", is_store=True, is_target_store=True),
                ),
                branch=BranchSpec(0.12, "match", None, noise=0.03),
            ),
            BlockSpec(
                "emit_literal",
                n_instr=25,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("output", is_store=True),),
                branch=BranchSpec(0.12, "match", None, noise=0.03),
            ),
        ]),
    )
    ipi = _iters(par_budget, cfg)
    patterns: Dict[str, AddressPattern] = {
        # The input stream is consumed once: never wraps.
        "input": SequentialPattern(
            "input", base,
            _wrap_size(ipi, 8, 64, wraps=1.0 / N_INVOCATIONS), stride=64, per_iter=8,
        ),
        # Sliding window + hash chains: hot head, cold tail.
        "window": HotColdPattern(
            "window", base + 64 * MB, hot_size=7 * KB, cold_size=96 * KB,
            p_hot=0.9, granule=8, salt=3,
        ),
        "hashtab": RandomPattern("hashtab", base + 80 * MB, 32 * KB, granule=8, salt=5),
        "output": SequentialPattern(
            "output", base + 96 * MB,
            _wrap_size(ipi, 2, 64, wraps=1.0), stride=64, per_iter=2,
        ),
        "wp_pollute": RandomPattern(
            "wp_pollute", base + 112 * MB, 48 * KB, granule=64, salt=17
        ),
    }
    region = ParallelRegionSpec(
        name="gzip.deflate_loop",
        cfg=cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.03, 0.03, 0.91, 0.03),
        n_forward_values=2,
        ilp=3.0,
        dep_coupling=0.02,
        code_footprint=8 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=4.0, wp_max_loads=8, p_convergent=0.7,
            wp_lookahead=8, wth_fraction=0.55, wth_max_iters=1,
        ),
    )
    seq = _seq_region("gzip.seq", base + 128 * MB, seq_budget, _INT_MIX, ilp=2.5,
                      hot_size=6 * KB)
    return Program("164.gzip", [seq, region], N_INVOCATIONS, info)


# ---------------------------------------------------------------------------
# 181.mcf — network simplex: giant pointer chase, memory bound
# ---------------------------------------------------------------------------

def _build_mcf(scale: float) -> Program:
    info = BENCHMARK_INFO["181.mcf"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 2 * _HEAP_STRIDE
    cfg = IterationCFG(
        entry="price",
        blocks=_densify([
            BlockSpec(
                "price",
                n_instr=25,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("arcs"), MemSlot("arcs"), MemSlot("arcs"),
                    MemSlot("hot"),
                ),
                # Reduced-cost test: data dependent, moderately biased.
                branch=BranchSpec(0.8, "chase", "basis", noise=0.22),
            ),
            BlockSpec(
                "chase",
                n_instr=20,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("arcs"), MemSlot("arcs"),
                    MemSlot("hot"), MemSlot("costs"),
                ),
                branch=BranchSpec(0.15, "chase", "basis", noise=0.08),
            ),
            BlockSpec(
                "basis",
                n_instr=22,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("arcs"), MemSlot("hot"),
                    MemSlot("hot", is_store=True, is_target_store=True),
                ),
            ),
        ]),
    )
    ipi = _iters(par_budget, cfg)
    patterns: Dict[str, AddressPattern] = {
        # The arc network: never re-visited within a run — every chase
        # step is a cold, memory-serviced miss (mcf's signature).
        "arcs": PointerChasePattern(
            "arcs", base,
            n_nodes=_chase_nodes(ipi, 7, wraps=1.0 / N_INVOCATIONS),
            node_size=128, per_iter=7, seed=101,
        ),
        # Node headers / locals: hot, slightly exceeding the L1.
        "hot": RandomPattern("hot", base + 64 * MB, 7 * KB, granule=32, salt=19),
        "costs": SequentialPattern(
            "costs", base + 80 * MB,
            _wrap_size(ipi, 3, 8, wraps=1.0), stride=8, per_iter=3,
        ),
        "wp_pollute": RandomPattern(
            "wp_pollute", base + 96 * MB, 48 * KB, granule=64, salt=23
        ),
    }
    region = ParallelRegionSpec(
        name="mcf.arc_loop",
        cfg=cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.05, 0.06, 0.83, 0.06),
        n_forward_values=3,
        ilp=1.6,
        dep_coupling=0.12,
        code_footprint=4 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            # Loop-exit mispredictions validly continue the same chase:
            # convergence is high and reaches deep (§6 of DESIGN.md).
            wp_mean_loads=2.8, wp_max_loads=7, p_convergent=0.62,
            wp_lookahead=10, wth_fraction=0.8, wth_max_iters=1,
        ),
    )
    # mcf's sequential phases (refresh, price-out) chase the same arc
    # structures: the sequential region is memory bound too, and its
    # wrong paths validly chase ahead into upcoming chunks.
    seq_cfg = IterationCFG(
        entry="head",
        blocks=_densify([
            BlockSpec(
                "head",
                n_instr=80,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("mcf.seq.hot"), MemSlot("mcf.seq.hot"),
                    MemSlot("mcf.seq.chase"), MemSlot("mcf.seq.chase"),
                    MemSlot("mcf.seq.hot"),
                ),
                branch=BranchSpec(0.86, "tail", "slow", noise=0.08),
            ),
            BlockSpec(
                "slow",
                n_instr=30,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("mcf.seq.chase"), MemSlot("mcf.seq.hot")),
                next_block="tail",
            ),
            BlockSpec(
                "tail",
                n_instr=40,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("mcf.seq.chase"),
                    MemSlot("mcf.seq.hot"),
                    MemSlot("mcf.seq.out", is_store=True),
                ),
            ),
        ]),
        pc_base=0x500000,
    )
    seq_chunks = _chunks(seq_budget, seq_cfg)
    seq_patterns: Dict[str, AddressPattern] = {
        "mcf.seq.hot": RandomPattern(
            "mcf.seq.hot", base + 128 * MB, 6 * KB, granule=32, salt=61
        ),
        "mcf.seq.chase": PointerChasePattern(
            "mcf.seq.chase", base + 160 * MB,
            n_nodes=max(64, seq_chunks * 3 * (N_INVOCATIONS + 1)),
            node_size=128, per_iter=3, seed=107,
        ),
        "mcf.seq.out": SequentialPattern(
            "mcf.seq.out", base + 192 * MB, 16 * KB, stride=8, per_iter=1
        ),
    }
    seq = SequentialRegionSpec(
        name="mcf.seq",
        cfg=seq_cfg,
        patterns=seq_patterns,
        chunks_per_invocation=seq_chunks,
        ilp=1.5,
        wrong_exec=WrongExecProfile(
            wp_mean_loads=3.2, wp_max_loads=8, p_convergent=0.68,
            wp_lookahead=24,
        ),
        pollution_pattern="mcf.seq.hot",
    )
    return Program("181.mcf", [seq, region], N_INVOCATIONS, info)


# ---------------------------------------------------------------------------
# 197.parser — link grammar: dictionary chases with noisy decisions
# ---------------------------------------------------------------------------

def _build_parser(scale: float) -> Program:
    info = BENCHMARK_INFO["197.parser"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 3 * _HEAP_STRIDE
    cfg = IterationCFG(
        entry="nextword",
        blocks=_densify([
            BlockSpec(
                "nextword",
                n_instr=30,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("sentence"), MemSlot("sentence"), MemSlot("dict")),
                next_block="lookup",
            ),
            BlockSpec(
                "lookup",
                n_instr=28,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("dict"), MemSlot("dict"), MemSlot("links")),
                next_block="lookup2",
            ),
            BlockSpec(
                "lookup2",
                n_instr=28,
                mix_weights=_INT_MIX,
                mem_slots=(MemSlot("dict"), MemSlot("dict"), MemSlot("links")),
                # Occasional deep lookup; parse decisions stay noisy.
                branch=BranchSpec(0.22, "lookup", "connect", noise=0.12),
            ),
            BlockSpec(
                "connect",
                n_instr=35,
                mix_weights=_INT_MIX,
                mem_slots=(
                    MemSlot("links"),
                    MemSlot("links", is_store=True, is_target_store=True),
                    MemSlot("hot"),
                ),
                branch=BranchSpec(0.13, "nextword", None, noise=0.05),
            ),
        ]),
    )
    ipi = _iters(par_budget, cfg)
    patterns: Dict[str, AddressPattern] = {
        # Dictionary tries: partially re-visited (wraps every other
        # invocation) — between gzip's hot reuse and mcf's cold chase.
        "dict": PointerChasePattern(
            "dict", base,
            n_nodes=_chase_nodes(ipi, 6, wraps=0.25),
            node_size=128, per_iter=6, seed=201,
        ),
        "sentence": SequentialPattern(
            "sentence", base + 64 * MB,
            _wrap_size(ipi, 3, 64, wraps=1.0 / N_INVOCATIONS), stride=64, per_iter=3,
        ),
        "links": HotColdPattern(
            "links", base + 80 * MB, hot_size=6 * KB, cold_size=96 * KB,
            p_hot=0.75, granule=16, salt=29,
        ),
        "hot": RandomPattern("hot", base + 96 * MB, 6 * KB, granule=32, salt=37),
        "wp_pollute": RandomPattern(
            "wp_pollute", base + 112 * MB, 48 * KB, granule=64, salt=31
        ),
    }
    region = ParallelRegionSpec(
        name="parser.parse_loop",
        cfg=cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.06, 0.06, 0.82, 0.06),
        n_forward_values=3,
        ilp=2.2,
        dep_coupling=0.28,
        code_footprint=10 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=1.8, wp_max_loads=5, p_convergent=0.45,
            wp_lookahead=8, wth_fraction=0.55, wth_max_iters=1,
        ),
    )
    seq = _seq_region("parser.seq", base + 128 * MB, seq_budget, _INT_MIX, ilp=2.0,
                      hot_size=6 * KB)
    return Program("197.parser", [seq, region], N_INVOCATIONS, info)


# ---------------------------------------------------------------------------
# 183.equake — earthquake FEM: sparse MVP (stream + gather)
# ---------------------------------------------------------------------------

def _build_equake(scale: float) -> Program:
    info = BENCHMARK_INFO["183.equake"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 4 * _HEAP_STRIDE
    smvp_cfg = IterationCFG(
        entry="row",
        blocks=_densify([
            BlockSpec(
                "row",
                n_instr=15,
                mix_weights=_FP_MIX,
                mem_slots=(MemSlot("colidx"),),
                next_block="elems",
            ),
            BlockSpec(
                "elems",
                n_instr=30,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("matval"), MemSlot("matval"),
                    MemSlot("colidx"), MemSlot("vec"), MemSlot("vec"),
                ),
                next_block="elems2",
            ),
            BlockSpec(
                "elems2",
                n_instr=30,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("matval"), MemSlot("matval"),
                    MemSlot("colidx"), MemSlot("vec"), MemSlot("vec"),
                ),
                # FEM rows are near-constant length: rare long rows only.
                branch=BranchSpec(0.1, "elems", "reduce", noise=0.03),
            ),
            BlockSpec(
                "reduce",
                n_instr=20,
                mix_weights=_FP_MIX,
                mem_slots=(MemSlot("result", is_store=True, is_target_store=True),),
            ),
        ]),
    )
    ipi = _iters(par_budget, smvp_cfg, share=0.7)
    time_cfg = IterationCFG(
        entry="disp",
        blocks=_densify([
            BlockSpec(
                "disp",
                n_instr=60,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("result"), MemSlot("result"),
                    MemSlot("vec"), MemSlot("result", is_store=True),
                ),
                branch=BranchSpec(0.08, "disp", None, noise=0.02),
            ),
        ]),
        pc_base=0x600000,
    )
    ipi_t = _iters(par_budget, time_cfg, share=0.3)
    patterns: Dict[str, AddressPattern] = {
        # Matrix values/indices: re-streamed every timestep (invocation).
        "matval": SequentialPattern(
            "matval", base,
            _wrap_size(ipi, 6, 64, wraps=1.0 / N_INVOCATIONS), stride=64, per_iter=6,
        ),
        "colidx": SequentialPattern(
            "colidx", base + 64 * MB,
            _wrap_size(ipi, 4, 8, wraps=1.0), stride=8, per_iter=4,
        ),
        "vec": RandomPattern("vec", base + 80 * MB, 12 * KB, granule=8, salt=41),
        "result": SequentialPattern(
            "result", base + 96 * MB,
            _wrap_size(max(ipi, ipi_t), 3, 8, wraps=1.0), stride=8, per_iter=3,
        ),
        "wp_pollute": RandomPattern(
            "wp_pollute", base + 112 * MB, 48 * KB, granule=64, salt=43
        ),
    }
    smvp = ParallelRegionSpec(
        name="equake.smvp",
        cfg=smvp_cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.04, 0.05, 0.86, 0.05),
        n_forward_values=2,
        ilp=3.5,
        dep_coupling=0.08,
        code_footprint=5 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=3.2, wp_max_loads=8, p_convergent=0.7,
            wp_lookahead=10, wth_fraction=0.4, wth_max_iters=1,
        ),
    )
    timeint = ParallelRegionSpec(
        name="equake.time_integration",
        cfg=time_cfg,
        patterns=patterns,
        iters_per_invocation=ipi_t,
        stage_split=StageSplit(0.05, 0.04, 0.86, 0.05),
        n_forward_values=2,
        ilp=4.0,
        dep_coupling=0.06,
        code_footprint=3 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=2.4, wp_max_loads=6, p_convergent=0.7,
            wp_lookahead=6, wth_fraction=0.6, wth_max_iters=1,
        ),
    )
    seq = _seq_region(
        "equake.seq", base + 128 * MB, seq_budget, _FP_MIX, ilp=3.0,
        hot_size=6 * KB,
        wrong_exec=WrongExecProfile(
            wp_mean_loads=2.4, wp_max_loads=6, p_convergent=0.65, wp_lookahead=18
        ),
        stream_wraps=1.0 / N_INVOCATIONS,
    )
    return Program("183.equake", [seq, smvp, timeint], N_INVOCATIONS, info)


# ---------------------------------------------------------------------------
# 177.mesa — 3D rasterization: dense FP streams, high spatial locality
# ---------------------------------------------------------------------------

def _build_mesa(scale: float) -> Program:
    info = BENCHMARK_INFO["177.mesa"]
    par_budget, seq_budget = _budgets(info, scale)
    base = _HEAP_BASE + 5 * _HEAP_STRIDE
    cfg = IterationCFG(
        entry="xform",
        blocks=_densify([
            BlockSpec(
                "xform",
                n_instr=55,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("verts"), MemSlot("verts"), MemSlot("verts"),
                    MemSlot("state"),
                ),
                next_block="shade",
            ),
            BlockSpec(
                "shade",
                n_instr=45,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("texture"), MemSlot("texture"),
                    MemSlot("verts"),
                ),
                # Backface/clip test: strongly biased.
                branch=BranchSpec(0.88, "raster", "skip", noise=0.06),
            ),
            BlockSpec(
                "raster",
                n_instr=60,
                mix_weights=_FP_MIX,
                mem_slots=(
                    MemSlot("fb"), MemSlot("fb", is_store=True),
                    MemSlot("texture"),
                    MemSlot("fb", is_store=True, is_target_store=True),
                ),
                # Spans per triangle are near constant: rare long spans.
                branch=BranchSpec(0.1, "raster", None, noise=0.03),
            ),
            BlockSpec("skip", n_instr=8, mix_weights=_INT_MIX),
        ]),
    )
    ipi = _iters(par_budget, cfg)
    patterns: Dict[str, AddressPattern] = {
        # Vertex/texture/framebuffer streams: one pass per frame
        # (invocation); high spatial locality within a block.
        "verts": SequentialPattern(
            "verts", base, _wrap_size(ipi, 4, 64, wraps=1.0 / N_INVOCATIONS), stride=64, per_iter=4,
        ),
        "texture": SequentialPattern(
            "texture", base + 64 * MB,
            _wrap_size(ipi, 3, 64, wraps=1.0), stride=64, per_iter=3,
        ),
        "fb": SequentialPattern(
            "fb", base + 96 * MB,
            _wrap_size(ipi, 4, 64, wraps=1.0 / N_INVOCATIONS), stride=64, per_iter=4,
        ),
        "state": RandomPattern("state", base + 128 * MB, 6 * KB, granule=32, salt=53),
        "wp_pollute": RandomPattern(
            "wp_pollute", base + 160 * MB, 48 * KB, granule=64, salt=59
        ),
    }
    region = ParallelRegionSpec(
        name="mesa.raster_loop",
        cfg=cfg,
        patterns=patterns,
        iters_per_invocation=ipi,
        stage_split=StageSplit(0.03, 0.04, 0.90, 0.03),
        n_forward_values=2,
        ilp=4.0,
        dep_coupling=0.05,
        code_footprint=9 * KB,
        pollution_pattern="wp_pollute",
        wrong_exec=WrongExecProfile(
            wp_mean_loads=2.2, wp_max_loads=6, p_convergent=0.8,
            wp_lookahead=10, wth_fraction=0.55, wth_max_iters=1,
        ),
    )
    seq = _seq_region(
        "mesa.seq", base + 192 * MB, seq_budget, _FP_MIX, ilp=3.5,
        hot_size=6 * KB,
        wrong_exec=WrongExecProfile(
            wp_mean_loads=2.2, wp_max_loads=6, p_convergent=0.7, wp_lookahead=18
        ),
        stream_wraps=0.5,
    )
    return Program("177.mesa", [seq, region], N_INVOCATIONS, info)


_BUILDERS: Dict[str, Callable[[float], Program]] = {
    "175.vpr": _build_vpr,
    "164.gzip": _build_gzip,
    "181.mcf": _build_mcf,
    "197.parser": _build_parser,
    "183.equake": _build_equake,
    "177.mesa": _build_mesa,
}


def build_benchmark(name: str, scale: float = 2e-4) -> Program:
    """Build the named benchmark model at the given instruction scale.

    ``name`` accepts either the full SPEC id (``"181.mcf"``) or the bare
    short name (``"mcf"``).
    """
    if name not in _BUILDERS:
        matches = [k for k in _BUILDERS if k.split(".", 1)[-1] == name]
        if len(matches) == 1:
            name = matches[0]
        else:
            raise WorkloadError(
                f"unknown benchmark {name!r}; choose from {sorted(_BUILDERS)}"
            )
    if not 0.0 < scale <= 1.0:
        raise WorkloadError(f"scale {scale} outside (0, 1]")
    return _BUILDERS[name](scale)

