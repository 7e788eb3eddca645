"""Unit tests for the reordering algorithms and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.reorder import (
    REORDERERS,
    bfs_reorder,
    data_affinity_reorder,
    degree_reorder,
    dtc_lsh_reorder,
    identity_reorder,
    lsh64_reorder,
    mean_nnz_per_tc_block,
    metis_reorder,
    rabbit_reorder,
    reorder_bilateral,
    reorder_quality,
    sgt_reorder,
)
from repro.reorder.base import Permutation

from tests.conftest import random_csr


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(5)
        assert p.is_identity()
        np.testing.assert_array_equal(p.order, p.rank)

    def test_rank_inverts_order(self):
        p = Permutation.from_order(np.array([2, 0, 3, 1]))
        for new_pos, old in enumerate(p.order):
            assert p.rank[old] == new_pos

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            Permutation.from_order(np.array([0, 0, 1]))
        with pytest.raises(ValidationError):
            Permutation.from_order(np.array([0, 3]))

    def test_inverse_composes_to_identity(self):
        p = Permutation.from_order(np.array([3, 1, 0, 2]))
        assert p.compose(p.inverse()).is_identity()

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_property_rank_order_inverse(self, n, seed):
        order = np.random.default_rng(seed).permutation(n)
        p = Permutation.from_order(order)
        np.testing.assert_array_equal(p.order[p.rank], np.arange(n))
        np.testing.assert_array_equal(p.rank[p.order], np.arange(n))


ALL_METHODS = sorted(REORDERERS)


class TestAllReorderers:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_valid_permutation(self, method, medium_graph_csr):
        res = REORDERERS[method](medium_graph_csr, 0)
        assert res.row_perm.n == medium_graph_csr.n_rows

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_apply_preserves_content(self, method, medium_graph_csr):
        res = REORDERERS[method](medium_graph_csr, 0)
        out = res.apply(medium_graph_csr)
        assert out.nnz == medium_graph_csr.nnz
        # row i of original appears (as the same multiset of columns)
        # at rank[i] of the reordered matrix
        i = medium_graph_csr.n_rows // 2
        old_cols, old_vals = medium_graph_csr.row(i)
        new_cols, new_vals = out.row(int(res.row_perm.rank[i]))
        np.testing.assert_array_equal(new_cols, old_cols)
        np.testing.assert_allclose(new_vals, old_vals)

    @pytest.mark.parametrize("method", ["affinity", "rabbit", "louvain"])
    def test_community_methods_beat_original(self, method, medium_graph_csr):
        res = REORDERERS[method](medium_graph_csr, 0)
        assert mean_nnz_per_tc_block(medium_graph_csr, res) > (
            mean_nnz_per_tc_block(medium_graph_csr)
        )

    def test_affinity_beats_lsh_on_community_graph(self, medium_graph_csr):
        aff = mean_nnz_per_tc_block(
            medium_graph_csr, data_affinity_reorder(medium_graph_csr)
        )
        lsh = mean_nnz_per_tc_block(
            medium_graph_csr, lsh64_reorder(medium_graph_csr, seed=0)
        )
        assert aff > lsh

    def test_sgt_is_identity_rows(self, small_csr):
        res = sgt_reorder(small_csr)
        assert res.row_perm.is_identity()

    def test_degree_reorder_sorts(self, skewed_csr):
        res = degree_reorder(skewed_csr)
        lengths = skewed_csr.row_lengths()[res.row_perm.order]
        assert (np.diff(lengths) <= 0).all()

    def test_bfs_reorder_valid(self, medium_graph_csr):
        res = bfs_reorder(medium_graph_csr)
        assert np.unique(res.row_perm.order).size == medium_graph_csr.n_rows

    def test_rectangular_matrix_supported(self):
        csr = random_csr(48, 32, 0.15, seed=7)
        res = data_affinity_reorder(csr)
        assert res.row_perm.n == 48
        out = res.apply(csr)
        assert out.nnz == csr.nnz

    def test_lsh_deterministic_per_seed(self, skewed_csr):
        a = lsh64_reorder(skewed_csr, seed=5)
        b = lsh64_reorder(skewed_csr, seed=5)
        np.testing.assert_array_equal(a.row_perm.order, b.row_perm.order)

    def test_dtc_lsh_groups_identical_rows(self):
        # two groups of rows with identical column sets must end adjacent
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        rows, cols = [], []
        for r in range(16):
            group = r % 2
            for c in (group * 8 + np.arange(4)):
                rows.append(r)
                cols.append(int(c))
        csr = coo_to_csr(
            COOMatrix(16, 16, rows, cols, np.ones(len(rows), np.float32))
        )
        res = dtc_lsh_reorder(csr, seed=0)
        order_groups = (res.row_perm.order % 2).tolist()
        # all even rows contiguous, all odd rows contiguous
        assert order_groups == sorted(order_groups) or order_groups == sorted(
            order_groups, reverse=True
        )


class TestBilateral:
    def test_bilateral_sets_col_perm(self, medium_graph_csr):
        res = reorder_bilateral(medium_graph_csr)
        assert res.col_perm is not None
        assert res.col_perm is res.row_perm

    def test_bilateral_rect_falls_back(self):
        csr = random_csr(24, 16, 0.2, seed=8)
        res = reorder_bilateral(csr)
        assert res.col_perm is None


class TestMetrics:
    def test_identity_matches_no_reorder(self, small_csr):
        res = identity_reorder(small_csr)
        assert mean_nnz_per_tc_block(small_csr, res) == pytest.approx(
            mean_nnz_per_tc_block(small_csr)
        )

    def test_metric_equals_tiling_mean(self, small_csr):
        from repro.formats.tiling import build_tiling

        t = build_tiling(small_csr)
        assert mean_nnz_per_tc_block(small_csr) == pytest.approx(
            t.mean_nnz_per_block()
        )

    def test_quality_reduction_ratio(self, medium_graph_csr):
        res = data_affinity_reorder(medium_graph_csr)
        q = reorder_quality(medium_graph_csr, res)
        assert q.nnz == medium_graph_csr.nnz
        assert q.block_reduction_vs_original > 1.0
        assert q.mean_nnz_tc == pytest.approx(
            medium_graph_csr.nnz / q.n_blocks
        )

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_metric_bounded(self, method, medium_graph_csr):
        res = REORDERERS[method](medium_graph_csr, 0)
        m = mean_nnz_per_tc_block(medium_graph_csr, res)
        assert 1.0 <= m <= 64.0


class TestMetisInternals:
    def test_parts_balanced_ish(self, medium_graph_csr):
        res = metis_reorder(medium_graph_csr, leaf_size=64)
        assert np.unique(res.row_perm.order).size == medium_graph_csr.n_rows

    def test_tiny_graph_no_split(self):
        csr = random_csr(16, 16, 0.3, seed=9)
        res = metis_reorder(csr, leaf_size=128)
        assert res.row_perm.is_identity()  # below leaf size: DFS order


class TestRabbitVsAffinity:
    def test_affinity_at_least_rabbit_on_average(self):
        """Fig 10: affinity ordering >= rabbit over a basket of graphs."""
        wins = 0
        total = 0
        from repro.sparse.convert import coo_to_csr
        from repro.sparse.random import block_community_graph

        for seed in range(3):
            csr = coo_to_csr(
                block_community_graph(384, 12, 5.0, seed=seed)
            )
            aff = mean_nnz_per_tc_block(csr, data_affinity_reorder(csr))
            rab = mean_nnz_per_tc_block(csr, rabbit_reorder(csr))
            wins += aff >= rab * 0.98
            total += 1
        assert wins >= 2  # allow one statistical loss
