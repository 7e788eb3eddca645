"""Conversions between sparse containers (and to/from SciPy for testing)."""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix, _check_perm, row_major
from repro.sparse.csr import CSRMatrix


def coo_to_csr(coo: COOMatrix, sum_duplicates: bool = True) -> CSRMatrix:
    """Convert COO to CSR with sorted columns per row.

    Duplicate coordinates are summed unless ``sum_duplicates`` is False, in
    which case they are kept side by side (useful for stress-testing the
    tiled-format builders against malformed input).

    The summed form is stored on ``coo`` (its arrays are read-only), so
    later calls return the same matrix — with any fingerprint already
    stored on it — without converting again.  Threads racing on a first
    call each store an equal matrix, so the memo needs no lock.
    """
    entries = (coo.n_rows, coo.n_cols, coo.rows, coo.cols, coo.vals)
    if not sum_duplicates:
        return _entries_to_csr(*entries, sum_duplicates=False)
    if coo._csr is None:
        object.__setattr__(coo, "_csr", _entries_to_csr(*entries))
    return coo._csr


def permute_csr(
    csr: CSRMatrix, row_rank: np.ndarray, col_rank: np.ndarray | None = None
) -> CSRMatrix:
    """Relabel ``csr``: entry ``(i, j)`` moves to ``(row_rank[i],
    col_rank[j])`` (``col_rank=None`` keeps the columns).  The result is
    what :func:`coo_to_csr` of the relabelled COO gives, built without
    the intermediate COO matrices."""
    rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.row_lengths())
    rows = _check_perm(row_rank, csr.n_rows, "row_perm")[rows]
    cols = csr.indices
    if col_rank is not None:
        cols = _check_perm(col_rank, csr.n_cols, "col_perm")[cols]
    return _entries_to_csr(csr.n_rows, csr.n_cols, rows, cols, csr.vals)


def _entries_to_csr(
    n_rows, n_cols, rows, cols, vals, sum_duplicates: bool = True
) -> CSRMatrix:
    """The CSR matrix of the entries ``(rows[k], cols[k], vals[k])``
    (see :func:`~repro.sparse.coo.row_major`)."""
    if rows.size:
        rows, cols, vals = row_major(n_cols, rows, cols, vals, sum_duplicates)
    counts = np.bincount(rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(n_rows, n_cols, indptr, cols, vals)


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert CSR back to canonical COO."""
    rows = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.row_lengths())
    return COOMatrix(csr.n_rows, csr.n_cols, rows, csr.indices, csr.vals)


def from_scipy(mat) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from any SciPy sparse matrix."""
    m = mat.tocsr().sorted_indices()
    m.sum_duplicates()
    return CSRMatrix(
        m.shape[0],
        m.shape[1],
        m.indptr.astype(np.int64),
        m.indices.astype(np.int64),
        m.data.astype(np.float32),
    )


def to_scipy(csr: CSRMatrix):
    """Export to :class:`scipy.sparse.csr_matrix` (lazy import)."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (csr.vals, csr.indices, csr.indptr), shape=(csr.n_rows, csr.n_cols)
    )
