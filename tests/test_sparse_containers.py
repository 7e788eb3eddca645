"""Unit tests for COO/CSR containers and conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ValidationError
from repro.sparse.convert import (
    coo_to_csr,
    csr_to_coo,
    from_scipy,
    permute_csr,
    to_scipy,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_csr


class TestCOO:
    def test_basic_construction(self):
        c = COOMatrix(3, 4, [0, 2], [1, 3], [1.0, 2.0])
        assert c.shape == (3, 4)
        assert c.nnz == 2

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValidationError):
            COOMatrix(2, 2, [2], [0], [1.0])

    def test_rejects_out_of_range_cols(self):
        with pytest.raises(ValidationError):
            COOMatrix(2, 2, [0], [-1], [1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            COOMatrix(2, 2, [0, 1], [0], [1.0])

    def test_canonical_sums_duplicates(self):
        c = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0]).canonical()
        assert c.nnz == 2
        dense = c.to_dense()
        assert dense[0, 1] == 3.0
        assert dense[1, 0] == 3.0

    def test_canonical_sorts_row_major(self):
        c = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1, 2, 3]).canonical()
        keys = c.rows * 3 + c.cols
        assert (np.diff(keys) > 0).all()

    def test_transpose(self):
        c = COOMatrix(2, 3, [0, 1], [2, 0], [5.0, 7.0])
        t = c.transpose()
        assert t.shape == (3, 2)
        np.testing.assert_allclose(t.to_dense(), c.to_dense().T)

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = np.where(rng.random((10, 12)) < 0.3, rng.random((10, 12)), 0)
        c = COOMatrix.from_dense(dense.astype(np.float32))
        np.testing.assert_allclose(c.to_dense(), dense, atol=1e-6)

    def test_permuted_rows(self):
        c = COOMatrix(3, 3, [0, 1, 2], [0, 1, 2], [1, 2, 3])
        perm = np.array([2, 0, 1])  # old i -> new perm[i]
        p = c.permuted(row_perm=perm)
        dense = p.to_dense()
        assert dense[2, 0] == 1
        assert dense[0, 1] == 2

    def test_permuted_rejects_non_permutation(self):
        c = COOMatrix(3, 3, [0], [0], [1.0])
        with pytest.raises(ValidationError):
            c.permuted(row_perm=np.array([0, 0, 1]))


class TestCSR:
    def test_row_access(self, small_csr):
        for i in range(small_csr.n_rows):
            idx, vals = small_csr.row(i)
            assert idx.size == vals.size
            assert (np.diff(idx) > 0).all()  # sorted, unique

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(ValidationError):
            CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                np.array([1.0, 2.0]),
            )

    def test_rejects_indptr_nnz_mismatch(self):
        with pytest.raises(FormatError):
            CSRMatrix(2, 2, np.array([0, 1, 3]), np.array([0, 1]),
                      np.array([1.0, 2.0]))

    def test_matvec_matches_dense(self, small_csr):
        x = np.random.default_rng(0).random(small_csr.n_cols)
        np.testing.assert_allclose(
            small_csr.matvec(x), small_csr.to_dense() @ x, rtol=1e-12
        )

    def test_matmat_matches_dense(self, small_csr, dense_b):
        np.testing.assert_allclose(
            small_csr.matmat(dense_b),
            small_csr.to_dense() @ dense_b.astype(np.float64),
            rtol=1e-10,
        )

    def test_matmat_chunked_consistency(self, small_csr, dense_b):
        full = small_csr.matmat(dense_b)
        chunked = small_csr.matmat(dense_b, row_chunk=7)
        np.testing.assert_allclose(full, chunked, rtol=1e-14)

    def test_matmat_rejects_bad_shape(self, small_csr):
        with pytest.raises(ValidationError):
            small_csr.matmat(np.ones((small_csr.n_cols + 1, 4)))

    def test_empty_rows_handled(self):
        csr = CSRMatrix(
            3, 3, np.array([0, 0, 1, 1]), np.array([2]), np.array([4.0])
        )
        out = csr.matmat(np.eye(3))
        assert out[0].sum() == 0 and out[2].sum() == 0
        assert out[1, 2] == 4.0

    def test_metadata_bytes(self):
        csr = random_csr(16, 16, 0.2, seed=2)
        assert csr.metadata_bytes() == 4 * (17 + csr.nnz)
        assert csr.total_bytes() == csr.metadata_bytes() + 4 * csr.nnz


class TestConversions:
    def test_coo_csr_roundtrip(self, small_csr):
        back = coo_to_csr(csr_to_coo(small_csr))
        np.testing.assert_array_equal(back.indptr, small_csr.indptr)
        np.testing.assert_array_equal(back.indices, small_csr.indices)
        np.testing.assert_allclose(back.vals, small_csr.vals)

    def test_scipy_roundtrip(self, small_csr):
        back = from_scipy(to_scipy(small_csr))
        np.testing.assert_array_equal(back.indices, small_csr.indices)
        np.testing.assert_allclose(back.vals, small_csr.vals)

    def test_duplicates_preserved_when_asked(self):
        coo = COOMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])
        kept = coo_to_csr(coo, sum_duplicates=False)
        assert kept.nnz == 2
        summed = coo_to_csr(coo)
        assert summed.nnz == 1
        assert summed.vals[0] == 3.0

    @pytest.mark.parametrize("relabel_cols", [False, True])
    def test_permute_csr_matches_the_coo_route(self, relabel_cols):
        rng = np.random.default_rng(3)
        # row 1 holds a duplicate (1, 2): both routes must sum it
        csr = CSRMatrix(
            4, 5, [0, 2, 5, 5, 7], [0, 4, 2, 2, 1, 3, 0],
            rng.uniform(-1, 1, 7).astype(np.float32),
        )
        r, c = rng.permutation(4), rng.permutation(5)
        c = c if relabel_cols else None
        got = permute_csr(csr, r, c)
        want = coo_to_csr(csr_to_coo(csr).permuted(row_perm=r, col_perm=c))
        for name in ("indptr", "indices", "vals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # new A[r[i], c[j]] = old A[i, j], duplicates summed
        cols = csr.indices if c is None else c[csr.indices]
        dense = np.zeros((4, 5), dtype=np.float32)
        np.add.at(dense, (r[csr_to_coo(csr).rows], cols), csr.vals)
        np.testing.assert_array_equal(got.to_dense(), dense)
        with pytest.raises(ValidationError):
            permute_csr(csr, r[:3], c)

    @given(
        n=st.integers(min_value=1, max_value=24),
        density=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_preserves_dense(self, n, density, seed):
        rng = np.random.default_rng(seed)
        dense = np.where(
            rng.random((n, n)) < density, rng.uniform(0.5, 2.0, (n, n)), 0.0
        ).astype(np.float32)
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        np.testing.assert_allclose(csr.to_dense(), dense, rtol=1e-6)
