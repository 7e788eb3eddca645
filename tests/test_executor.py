"""Tests for the prepared-executor subsystem (repro.kernels.executor).

The load-bearing property is *bit-for-bit equivalence* with the
pre-refactor reference path: the executor may precompute and reorganise
as much B-invariant state as it likes, but every multiply must produce
exactly the bits :func:`execute_tiled_reference` produces.
"""

import threading

import numpy as np
import pytest

import repro
from repro.core import plan
from repro.errors import ValidationError
from repro.gpusim.specs import get_device
from repro.gpusim.tensorcore import batched_tile_mma, tf32_round
from repro.kernels.accspmm import AccSpMMKernel
from repro.kernels.dtc import DTCKernel
from repro.kernels.executor import (
    DEFAULT_MAX_MATERIALIZED_BYTES,
    TCExecPlan,
    get_executor,
)
from repro.kernels.tcgnn import TCGNNKernel
from repro.kernels.tc_common import execute_tiled, execute_tiled_reference
from repro.serve import SpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix

from tests.conftest import bits_equal, hub_csr, random_csr, rhs


DEVICE = get_device("a800")


class TestBitForBit:
    @pytest.mark.parametrize(
        "kernel_cls", [AccSpMMKernel, TCGNNKernel, DTCKernel]
    )
    def test_all_tc_kernels_match_reference(self, kernel_cls):
        csr = random_csr(96, 80, 0.12, seed=21)
        B = rhs(80)
        k = kernel_cls()
        tc = k.plan(csr, 16, DEVICE)
        assert bits_equal(execute_tiled(tc, B), execute_tiled_reference(tc, B))

    @pytest.mark.parametrize("seed,density", [(1, 0.02), (2, 0.15), (3, 0.5)])
    def test_density_sweep(self, seed, density):
        csr = random_csr(120, 96, density, seed=seed)
        B = rhs(96, seed=seed)
        p = plan(csr, feature_dim=16)
        assert bits_equal(p.multiply(B), execute_tiled_reference(p.tc_plan, B))

    def test_long_segments_via_hub_rows(self):
        csr = hub_csr()
        p = plan(csr, feature_dim=16)
        B = rhs(csr.n_cols)
        C = p.multiply(B)
        assert bits_equal(C, execute_tiled_reference(p.tc_plan, B))
        ex = get_executor(p.tc_plan)
        assert ex.stats.strategies == {"stepped": 1}
        # the hub's windows (> 8 blocks) follow the slabs, one reduceat
        # segment each
        cp = ex._programs[ex._blocks_per_chunk(16)][0]
        assert cp.long_first is not None and cp.long_first.size >= 1

    def test_batched_matches_looped_reference(self):
        csr = random_csr(100, 64, 0.1, seed=41)
        Bs = rhs(64, batch=4, seed=13)
        p = plan(csr, feature_dim=16)
        batched = p.multiply_many(Bs)
        for i in range(Bs.shape[0]):
            assert bits_equal(
                batched[i], execute_tiled_reference(p.tc_plan, Bs[i])
            )

    def test_multi_chunk_boundaries(self):
        """Force several chunks on a small matrix; windows straddling a
        chunk boundary must accumulate in the same order as the
        reference with the same chunking."""
        csr = random_csr(96, 96, 0.2, seed=5)
        p = plan(csr, feature_dim=16)
        n = 16
        bc = p.tc_plan.tiling.block_cols
        # ~7 blocks per chunk
        p.tc_plan.meta["exec_chunk_elems"] = 7 * bc * n
        B = rhs(96)
        ref = execute_tiled_reference(p.tc_plan, B, blocks_per_chunk=7)
        assert bits_equal(p.multiply(B), ref)
        ex = get_executor(p.tc_plan)
        assert len(ex._programs[7]) > 1

    def test_multiple_feature_dims_share_executor(self):
        csr = random_csr(80, 80, 0.1, seed=6)
        p = plan(csr, feature_dim=8)
        for n in (8, 16, 32):
            B = rhs(80, n=n, seed=n)
            assert bits_equal(
                p.multiply(B), execute_tiled_reference(p.tc_plan, B)
            )
        ex = get_executor(p.tc_plan)
        assert ex.stats.calls == 3

    def test_empty_matrix(self):
        # all-zero matrix: no blocks, but the shape contract holds
        empty = coo_to_csr(
            COOMatrix.from_dense(np.zeros((16, 12), dtype=np.float32))
        )
        p = plan(empty, feature_dim=8)
        B = rhs(12, n=8)
        C = p.multiply(B)
        assert C.shape == (16, 8) and not C.any()
        assert bits_equal(C, execute_tiled_reference(p.tc_plan, B))

    @pytest.mark.parametrize(
        "kernel_cls", [AccSpMMKernel, TCGNNKernel, DTCKernel]
    )
    @pytest.mark.parametrize("dk", [-1, 1])
    def test_wrong_height_b_raises(self, kernel_cls, dk):
        # the gather clamps out-of-range rows instead of raising, so a B
        # whose height is not A's column count must be refused up front
        csr = random_csr(96, 80, 0.12, seed=21)
        k = kernel_cls()
        tc = k.plan(csr, 16, DEVICE)
        with pytest.raises(ValidationError):
            k.execute(tc, rhs(80 + dk))
        with pytest.raises(ValidationError):
            execute_tiled(tc, rhs(80 + dk, batch=2))
        with pytest.raises(ValidationError):
            get_executor(tc).execute(rhs(80 + dk), backend="cpu")

    def test_padding_slots_zeroed(self):
        # a 1-nnz matrix guarantees 7 padding slots in its only block
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[2, 5] = 3.0
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        p = plan(csr, feature_dim=8)
        B = rhs(8, n=8)
        assert bits_equal(p.multiply(B), execute_tiled_reference(p.tc_plan, B))


class TestMaterializationBudget:
    def test_over_budget_falls_back_to_lazy(self):
        csr = random_csr(96, 80, 0.12, seed=21)
        B = rhs(80)
        eager = plan(csr, feature_dim=16)
        lazy = plan(csr, feature_dim=16).prepare(max_bytes=0)
        ex = get_executor(lazy.tc_plan)
        assert not ex.materialized and ex.tiles_all is None
        # lazy decompression must still be bit-for-bit
        assert bits_equal(lazy.multiply(B), eager.multiply(B))
        assert get_executor(eager.tc_plan).materialized
        assert bits_equal(
            lazy.multiply(B), execute_tiled_reference(lazy.tc_plan, B)
        )

    def test_budget_shrinks_footprint(self):
        csr = random_csr(128, 128, 0.2, seed=9)
        eager = plan(csr, feature_dim=16).prepare()
        lazy = plan(csr, feature_dim=16).prepare(max_bytes=0)
        assert get_executor(eager.tc_plan).materialized
        assert (
            get_executor(lazy.tc_plan).nbytes
            < get_executor(eager.tc_plan).nbytes
        )

    def test_default_budget_materializes_small(self):
        csr = random_csr(64, 64, 0.1, seed=10)
        p = plan(csr, feature_dim=16).prepare()
        ex = get_executor(p.tc_plan)
        assert ex.materialized
        assert ex.max_bytes == DEFAULT_MAX_MATERIALIZED_BYTES


class TestAdaptiveMode:
    def test_fused_close_but_reassociated(self):
        csr = random_csr(96, 96, 0.5, seed=12)  # dense tiles -> fused
        exact = plan(csr, feature_dim=16)
        tf32 = plan(csr, feature_dim=16).prepare(numerics="tf32")
        ex = get_executor(tf32.tc_plan, numerics="tf32")
        assert "fused" in ex.stats.strategies
        B = rhs(96)
        ref = exact.multiply(B)
        C = tf32.multiply(B, numerics="tf32")
        assert np.allclose(C, ref, rtol=1e-4, atol=1e-5)

    def test_sparse_chunks_stay_exact_in_adaptive(self):
        csr = random_csr(256, 256, 0.005, seed=13)  # low MeanNNZTC
        p = plan(csr, feature_dim=16).prepare(numerics="tf32")
        strategies = get_executor(p.tc_plan, numerics="tf32").stats.strategies
        assert "fused" not in strategies
        B = rhs(256)
        assert bits_equal(
            p.multiply(B, numerics="tf32"),
            execute_tiled_reference(p.tc_plan, B),
        )

    def test_invalid_mode_rejected(self):
        p = plan(random_csr(64, 64, 0.1, seed=14), feature_dim=16)
        with pytest.raises(ValidationError, match="numerics tier"):
            p.prepare(numerics="sloppy")


class TestExecutorLifecycle:
    def test_executor_cached_on_plan(self):
        p = plan(random_csr(64, 64, 0.1, seed=15), feature_dim=16)
        assert p.executor is None
        p.multiply(rhs(64))
        ex = p.executor
        assert isinstance(ex, TCExecPlan)
        p.multiply(rhs(64, seed=2))
        assert p.executor is ex  # reused, not rebuilt

    def test_value_refresh_invalidates_executor(self):
        csr = random_csr(96, 80, 0.12, seed=21)
        B = rhs(80)
        eng = SpMMEngine()
        eng.spmm(csr, B)  # builds plan + executor
        csr2 = repro.CSRMatrix(
            csr.n_rows, csr.n_cols, csr.indptr, csr.indices,
            (csr.vals * 3.0).astype(np.float32),
        )
        C = eng.spmm(csr2, B)  # value refresh must not reuse stale tiles
        fresh = plan(csr2, feature_dim=16)
        assert bits_equal(C, execute_tiled_reference(fresh.tc_plan, B))

    def test_stale_vals_detected_by_identity(self):
        p = plan(random_csr(64, 64, 0.1, seed=16), feature_dim=16)
        p.multiply(rhs(64))
        ex = p.executor
        p.tc_plan.vals_packed = p.tc_plan.vals_packed.copy()
        assert get_executor(p.tc_plan) is not ex

    def test_prep_hit_stats(self):
        p = plan(random_csr(64, 64, 0.1, seed=17), feature_dim=16)
        for _ in range(3):
            p.multiply(rhs(64))
        p.multiply(rhs(64, n=32))  # same chunk class for tiny matrices
        ex = get_executor(p.tc_plan)
        assert ex.stats.calls == 4
        assert ex.stats.prep_misses >= 1
        assert ex.stats.prep_hits + ex.stats.prep_misses == 4
        s = p.stats["executor"]
        assert s["calls"] == 4 and s["materialized"]

    def test_program_cache_collapses_single_chunk_classes(self):
        # every bpc >= n_blocks is the same single-chunk program; varying
        # feature dims must not accumulate duplicate programs
        p = plan(random_csr(64, 64, 0.1, seed=19), feature_dim=8)
        for n in (8, 16, 32, 64, 128):
            p.multiply(rhs(64, n=n, seed=n))
        ex = get_executor(p.tc_plan)
        assert len(ex._programs) == 1
        assert ex.stats.prep_misses == 1 and ex.stats.prep_hits == 4

    def test_program_cache_bounded(self):
        p = plan(random_csr(96, 96, 0.2, seed=20), feature_dim=8)
        bc = p.tc_plan.tiling.block_cols
        ex = get_executor(p.tc_plan)
        ex._MAX_PROGRAMS = 2
        for bpc_target in (2, 3, 5):  # three distinct chunk classes
            p.tc_plan.meta["exec_chunk_elems"] = bpc_target * bc * 8
            ex.chunk_elems = bpc_target * bc * 8
            B = rhs(96, n=8, seed=bpc_target)
            assert bits_equal(
                p.multiply(B),
                execute_tiled_reference(
                    p.tc_plan, B, blocks_per_chunk=bpc_target
                ),
            )
        assert len(ex._programs) <= 2

    def test_materialized_drops_scatter_descriptors(self):
        p = plan(random_csr(64, 64, 0.1, seed=22), feature_dim=16).prepare()
        ex = get_executor(p.tc_plan)
        assert ex.materialized
        assert ex.scatter_flat is None and ex.vals_rounded is None
        lazy = plan(random_csr(64, 64, 0.1, seed=22), feature_dim=16)
        lazy.prepare(max_bytes=0)
        lex = get_executor(lazy.tc_plan)
        assert lex.scatter_flat is not None and lex.vals_rounded is not None

    def test_nbytes_counts_stepped_programs(self):
        p = plan(random_csr(96, 80, 0.12, seed=23), feature_dim=16)
        ex = get_executor(p.tc_plan)
        before = ex.nbytes
        p.multiply(rhs(80))  # compiles the chunk program
        assert ex.nbytes > before

    def test_thread_safety_same_plan(self):
        csr = random_csr(128, 96, 0.15, seed=18)
        p = plan(csr, feature_dim=16)
        B = rhs(96)
        expected = execute_tiled_reference(p.tc_plan, B)
        results, errors = [None] * 8, []

        def work(i):
            try:
                results[i] = p.multiply(B)
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert bits_equal(r, expected)


class TestTF32Primitives:
    def test_round_idempotent(self):
        x = np.random.default_rng(0).standard_normal(4096).astype(np.float32)
        once = tf32_round(x)
        assert bits_equal(once, tf32_round(once))

    def test_round_matches_previous_formula(self):
        # the pre-optimisation implementation, kept as the oracle
        def reference(x):
            x = np.asarray(x, dtype=np.float32)
            bits = x.view(np.uint32).copy()
            finite = np.isfinite(x)
            lsb = (bits >> np.uint32(13)) & np.uint32(1)
            rounding = np.uint32(0xFFF) + lsb
            bits_rounded = (bits + rounding) & np.uint32(0xFFFFE000)
            return np.where(finite, bits_rounded, bits).view(np.float32)

        rng = np.random.default_rng(1)
        x = np.concatenate(
            [
                rng.standard_normal(1000).astype(np.float32),
                np.array(
                    [0.0, -0.0, np.nan, np.inf, -np.inf, 3.4e38, 1e-40],
                    dtype=np.float32,
                ),
            ]
        )
        assert bits_equal(tf32_round(x), reference(x))

    def test_round_preserves_scalar_shape(self):
        out = tf32_round(np.float32(1.5000001))
        assert np.shape(out) == ()
        assert tf32_round(np.ones((3, 2), np.float32)[:, 0:1]).shape == (3, 1)

    def test_round_preserves_specials(self):
        x = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
        out = tf32_round(x)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

    def test_round_does_not_mutate_input(self):
        x = np.full(16, 1.0000001, dtype=np.float32)
        keep = x.copy()
        tf32_round(x)
        assert bits_equal(x, keep)

    def test_mma_assume_rounded_matches_default(self):
        rng = np.random.default_rng(2)
        a = tf32_round(rng.standard_normal((5, 8, 8)).astype(np.float32))
        b = tf32_round(rng.standard_normal((5, 8, 16)).astype(np.float32))
        assert bits_equal(
            batched_tile_mma(b, a, assume_rounded=True),
            batched_tile_mma(b, a),
        )
