"""Shared machinery for the tensor-core kernels (TC-GNN, DTC, Acc-SpMM).

All three TC kernels share the RowWindow/TC-block structure, so they share

* :func:`execute_tiled` — the numeric path.  It routes through the
  prepared executor (:mod:`repro.kernels.executor`), which compiles the
  B-invariant half of the computation once per plan — tile
  decompression + TF32 rounding of A, SparseAToB gather positions and
  pad masks, the fold order of each chunk's blocks, the output
  permutation — and replays it per call.  Only the B-dependent work
  (one TF32 rounding of B, the gather, the MMAs, the fold) runs per
  multiply;
* :func:`execute_tiled_reference` — the pre-executor path that re-derives
  every B-invariant artifact inside the call.  Kept as the bit-for-bit
  oracle the executor is tested against (and as the "unprepared" arm of
  the hot-path benchmark);
* :func:`simulate_tc` — the timing path: per-block stage times (A-tile
  copy, B-tile load priced through the cache hierarchy, MMA), the chosen
  pipeline schedule per TB, write-backs, and list scheduling over SMs.

What differentiates the kernels is entirely declarative: which reordering
ran first, the per-block A-tile byte cost of their format, the pipeline
mode, the TB schedule, and whether cache-policy control (.wt for C) is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.balance.scheduler import TBAssignment
from repro.formats.tiling import RowWindowTiling
from repro.gpusim.cache import CachePolicy, simulate_hierarchy
from repro.gpusim.counters import KernelProfile
from repro.gpusim.engine import Machine
from repro.gpusim.pipeline import PipelineMode, StageTimes, simulate_pipeline
from repro.gpusim.specs import DeviceSpec
from repro.gpusim.tensorcore import batched_tile_mma
from repro.reorder.base import ReorderResult


@dataclass
class TCPlan:
    """Planned representation shared by the tensor-core kernels."""

    name: str
    csr_reordered: "object"  # CSRMatrix after row relabeling
    tiling: RowWindowTiling
    vals_packed: np.ndarray  # float32[nnz] in block order
    schedule: TBAssignment
    reorder: ReorderResult
    bytes_a_per_block: np.ndarray  # format-specific A-tile traffic
    pipeline_mode: PipelineMode
    cache_policy_control: bool
    n_rows_original: int
    meta: dict = field(default_factory=dict)
    #: lazily-built prepared executors: a tier-keyed dict
    #: ``{tier: TCExecPlan}`` so one cached plan serves every numerics
    #: tier at once (see :func:`~repro.kernels.executor.get_executor`).
    #: ``init=False`` so ``dataclasses.replace`` — the value-refresh path
    #: — resets it to ``None``: executors bake in ``vals_packed`` and
    #: must never survive a value swap.
    exec_cache: object = field(
        default=None, init=False, repr=False, compare=False
    )


# ----------------------------------------------------------------------
# numeric path
# ----------------------------------------------------------------------
def execute_tiled(
    plan: TCPlan, B: np.ndarray, numerics=None, backend=None
) -> np.ndarray:
    """Numeric SpMM over the tiled representation (TF32 inputs, fp32 acc).

    ``B`` may be a single ``(K, N)`` right-hand side or a batched
    ``(batch, K, N)`` stack.  The call is served by the plan's prepared
    executor — built lazily on the first multiply and cached on the plan
    — so steady-state calls only pay for the B-dependent work; under the
    default ``exact`` numerics tier, results are bit-for-bit identical to
    :func:`execute_tiled_reference`, which re-derives all B-invariant
    state per call.  ``numerics`` selects a different tier (see
    :mod:`repro.tune.policy`) with its documented error bound; ``backend``
    selects the execution arm (see :mod:`repro.backend`).

    The output rows are returned in the *original* ordering — the planner
    undoes the row relabeling, matching a real kernel writing through the
    permuted RowWindow layout.
    """
    from repro.kernels.executor import get_executor

    return get_executor(plan, numerics=numerics).execute(B, backend=backend)


def execute_tiled_reference(
    plan: TCPlan, B: np.ndarray, blocks_per_chunk: int | None = None
) -> np.ndarray:
    """The pre-executor numeric path: re-derive everything per call.

    Decompresses tiles, computes the SparseAToB gather indices and the
    window segmentation inside the call, and TF32-rounds each gathered
    slab.  This is the bit-for-bit oracle for the prepared executor and
    the "unprepared" baseline of ``benchmarks/bench_exec_hotpath.py``;
    ``blocks_per_chunk`` overrides the slab chunking so tests can force
    multi-chunk execution on small matrices.
    """
    single = B.ndim == 2
    if single:
        B = B[None]
    batch, _, N = B.shape
    t = plan.tiling
    n_win = t.n_windows
    wr, bc = t.window_rows, t.block_cols
    acc = np.zeros((batch, n_win, wr, N), dtype=np.float32)
    if t.n_blocks:
        slots = t.sparse_a_to_b.reshape(t.n_blocks, bc)
        counts = t.nnz_per_block()
        # chunk so each member's gathered B slab stays ~64 MB (chunk
        # boundaries match the single-B path, keeping results bit-for-bit)
        if blocks_per_chunk is None:
            blocks_per_chunk = max(1, (16 << 20) // max(1, bc * N))
        for b0 in range(0, t.n_blocks, blocks_per_chunk):
            b1 = min(b0 + blocks_per_chunk, t.n_blocks)
            k = b1 - b0
            # decompress tiles (shared by every right-hand side)
            c = counts[b0:b1]
            lo, hi = t.tc_offset[b0], t.tc_offset[b1]
            tile_ids = np.repeat(np.arange(k, dtype=np.int64), c)
            tiles = np.zeros((k, wr, bc), dtype=np.float32)
            tiles[
                tile_ids,
                t.local_rows[lo:hi].astype(np.int64),
                t.local_cols[lo:hi].astype(np.int64),
            ] = plan.vals_packed[lo:hi]
            # gather indices through SparseAToB (padding slots -> zero
            # rows) and window segmentation are B-invariant: computed once
            # for the whole batch
            cols = slots[b0:b1]
            pos = np.maximum(cols, 0)
            pad = cols < 0
            w = t.block_window[b0:b1]
            uniq_w, first = np.unique(w, return_index=True)
            # per-member gather + MMA keeps each working set cache-sized
            # (one big (batch*k, ...) stack measures ~7x slower) and is
            # bit-for-bit the single-B computation
            for i in range(batch):
                gathered = B[i][pos]  # (k, bc, N)
                gathered[pad] = 0.0
                part = batched_tile_mma(gathered, tiles)
                acc[i, uniq_w] += np.add.reduceat(part, first, axis=0)
    C_perm = acc.reshape(batch, n_win * wr, N)[:, : t.n_rows]
    # undo the row relabeling: original row r lives at rank[r]
    out = C_perm[:, plan.reorder.row_perm.rank[: plan.n_rows_original]]
    return out[0] if single else out


# ----------------------------------------------------------------------
# timing path
# ----------------------------------------------------------------------
def simulate_tc(
    plan: TCPlan, feature_dim: int, spec: DeviceSpec
) -> KernelProfile:
    """Simulate one launch of a tensor-core SpMM kernel."""
    t = plan.tiling
    N = feature_dim
    sched = plan.schedule
    n_tbs = sched.n_tbs
    prof = KernelProfile(kernel=plan.name, device=spec.name)
    prof.useful_flops = 2.0 * t.nnz * N
    prof.issued_flops = 2.0 * t.n_blocks * t.window_rows * t.block_cols * N
    prof.mma_count = t.n_blocks * max(1, N // 16)
    prof.n_thread_blocks = n_tbs
    if t.n_blocks == 0 or n_tbs == 0:
        prof.time_s = spec.launch_overhead_us * 1e-6
        return prof

    from repro.kernels.base import SpMMKernel

    conc, resident = SpMMKernel.concurrency(spec, n_tbs)
    eff = spec.tc_kernel_efficiency
    per_tb_bw = spec.mem_bw * eff / conc
    per_tb_tc = spec.tf32_flops / (spec.n_sms * resident)

    # ---- B-tile loads priced through the cache hierarchy -------------
    slots = t.sparse_a_to_b.reshape(t.n_blocks, t.block_cols)
    valid = slots >= 0
    stream = slots[valid]
    accesses_per_block = valid.sum(axis=1).astype(np.int64)
    block_of_access = np.repeat(
        np.arange(t.n_blocks, dtype=np.int64), accesses_per_block
    )
    tb_of_block = (
        np.searchsorted(
            sched.tb_start, np.arange(t.n_blocks, dtype=np.int64), side="right"
        )
        - 1
    )
    sm_of_access = tb_of_block[block_of_access] % spec.n_sms

    row_bytes = N * 4
    l1_rows = max(1, spec.l1_bytes_per_sm // (row_bytes * resident))
    l2_capacity = spec.l2_bytes
    if not plan.cache_policy_control:
        # Without .wt on C, the write-allocated C tiles evict B lines;
        # reserve their share of L2 (bounded write-allocate pollution).
        c_bytes = t.n_rows * row_bytes
        pollution = min(0.45, c_bytes / (c_bytes + max(1, stream.size) * row_bytes))
        l2_capacity = int(l2_capacity * (1.0 - pollution))
    l2_rows = max(1, l2_capacity // row_bytes)
    hier = simulate_hierarchy(
        stream, sm_of_access, l1_rows, l2_rows, CachePolicy.CA
    )

    # expand L2 flags (defined on the L1 miss stream) back to all accesses
    l1_hit = hier.l1.hit_flags
    l2_hit_full = np.zeros(stream.size, dtype=bool)
    l2_hit_full[~l1_hit] = hier.l2.hit_flags
    t_access = np.where(
        l1_hit,
        row_bytes / (per_tb_bw * spec.l1_bw_scale),
        np.where(
            l2_hit_full,
            row_bytes / (per_tb_bw * spec.l2_bw_scale),
            row_bytes / per_tb_bw,
        ),
    )
    # per-block B load time (padding slots are free: masked ldg)
    t_load_b = np.zeros(t.n_blocks, dtype=np.float64)
    if stream.size:
        starts = np.zeros(t.n_blocks, dtype=np.int64)
        np.cumsum(accesses_per_block[:-1], out=starts[1:])
        nz_blocks = accesses_per_block > 0
        sums = np.add.reduceat(t_access, starts[nz_blocks])
        t_load_b[nz_blocks] = sums
        # Contiguity discount: consecutive column ids inside a block load
        # as wide vector transactions with DRAM row-buffer locality (this
        # is the §6 benefit of column reordering; without it blocks of
        # scattered columns pay full gather cost).
        adj = (np.diff(np.where(slots >= 0, slots, -(2 ** 40)), axis=1) == 1)
        pairs = adj.sum(axis=1).astype(np.float64)
        denom = np.maximum(accesses_per_block - 1, 1).astype(np.float64)
        contiguity = np.where(accesses_per_block > 1, pairs / denom, 0.0)
        t_load_b *= 1.0 - 0.25 * contiguity

    # ---- A-tile copies and MMA ----------------------------------------
    t_load_a = plan.bytes_a_per_block / per_tb_bw
    mma_per_block = max(1, N // 16)
    t_mma = np.full(
        t.n_blocks, mma_per_block * 2048.0 / per_tb_tc, dtype=np.float64
    )
    sync = spec.sync_overhead_ns * 1e-9

    # ---- per-TB pipeline + write-back ----------------------------------
    # Each TB's time is decomposed into a bandwidth-scalable part (memory
    # stages at the fair share) and a fixed part (sync, latency, MMA issue,
    # TB prologue).  The kernel time is the larger of the slot-occupancy
    # bound and the rate-capped fluid drain (see Machine.drain_makespan) —
    # the latter is where load imbalance hurts and balancing helps.
    wb_bytes_per_seg = t.window_rows * row_bytes
    durations = np.empty(n_tbs, dtype=np.float64)
    fixed = np.empty(n_tbs, dtype=np.float64)
    busy_total = 0.0
    bubble_total = 0.0
    tb_fixed = spec.tb_overhead_ns * 1e-9
    latency = spec.dram_latency_ns * 1e-9
    zeros_cache: dict[int, np.ndarray] = {}
    for i in range(n_tbs):
        s, e = int(sched.tb_start[i]), int(sched.tb_end[i])
        wb_shared = sched.segments_per_tb[i] * wb_bytes_per_seg / per_tb_bw
        stages = StageTimes(
            load_a=t_load_a[s:e],
            load_b=t_load_b[s:e],
            mma=t_mma[s:e],
            sync=sync,
            writeback=wb_shared,
            latency=latency,
        )
        res = simulate_pipeline(stages, plan.pipeline_mode)
        durations[i] = res.total_s + tb_fixed
        busy_total += res.busy_s
        bubble_total += res.bubble_s
        k = e - s
        if k not in zeros_cache:
            zeros_cache[k] = np.zeros(k, dtype=np.float64)
        fixed_stages = StageTimes(
            load_a=zeros_cache[k],
            load_b=zeros_cache[k],
            mma=t_mma[s:e],
            sync=sync,
            writeback=0.0,
            latency=latency,
        )
        fixed[i] = (
            simulate_pipeline(fixed_stages, plan.pipeline_mode).total_s
            + tb_fixed
        )

    machine = Machine(spec)
    # memory work per TB converted to seconds at full effective bandwidth
    mem_work_full = np.maximum(durations - fixed, 0.0) / conc
    slot_bound = float(durations.sum()) / conc
    makespan = max(slot_bound, machine.drain_makespan(mem_work_full, fixed))
    prof.time_s = makespan + spec.launch_overhead_us * 1e-6
    prof.makespan_s = makespan
    prof.pipeline_cycles = busy_total + bubble_total
    prof.bubble_cycles = bubble_total
    sres = machine.schedule(durations)

    # ---- byte accounting ------------------------------------------------
    bytes_b_requested = float(stream.size) * row_bytes
    bytes_b_l1 = float(hier.l1.hits) * row_bytes
    bytes_b_l2 = float(hier.l2.hits) * row_bytes
    bytes_a = float(plan.bytes_a_per_block.sum())
    bytes_c = float(sched.segments_per_tb.sum()) * wb_bytes_per_seg
    prof.bytes_requested = bytes_b_requested + bytes_a + bytes_c
    prof.bytes_from_l1 = bytes_b_l1
    prof.bytes_from_l2 = bytes_b_l2
    prof.bytes_from_dram = (
        (bytes_b_requested - bytes_b_l1 - bytes_b_l2) + bytes_a + bytes_c
    )
    prof.l1_accesses = hier.l1.accesses
    prof.l1_hits = hier.l1.hits
    prof.l2_accesses = hier.l2.accesses
    prof.l2_hits = hier.l2.hits
    prof.extra = {
        "strategy": sched.strategy,
        "n_blocks": t.n_blocks,
        "mean_nnz_tc": t.mean_nnz_per_block(),
        "sm_imbalance": sres.imbalance,
    }
    return prof


# ----------------------------------------------------------------------
# format byte models
# ----------------------------------------------------------------------
def bittcf_bytes_per_block(tiling: RowWindowTiling) -> np.ndarray:
    """A-tile traffic per block for BitTCF: cols + bitmask + offset + vals."""
    per_nnz = 4.0  # packed values
    fixed = tiling.block_cols * 4.0 + 8.0 + 4.0  # SparseAToB + TCLocalBit + TCOffset
    return fixed + per_nnz * tiling.nnz_per_block()


def metcf_bytes_per_block(tiling: RowWindowTiling) -> np.ndarray:
    """ME-TCF: cols + offset + per-nnz (int8 local id + fp32 value)."""
    fixed = tiling.block_cols * 4.0 + 4.0
    return fixed + 5.0 * tiling.nnz_per_block()


def tcf_bytes_per_block(tiling: RowWindowTiling) -> np.ndarray:
    """TCF loads the dense tile: 64 words regardless of the nnz count."""
    fixed = tiling.block_cols * 4.0 + 4.0
    dense = tiling.window_rows * tiling.block_cols * 4.0
    return np.full(tiling.n_blocks, fixed + dense, dtype=np.float64)
