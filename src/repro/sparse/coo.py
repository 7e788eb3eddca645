"""Coordinate-format sparse matrix container.

The COO container is the interchange format of the library: generators emit
COO, the Matrix-Market reader produces COO, and conversions to CSR (and from
there to the tensor-core tiled formats) start here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import _read_only


@dataclass(frozen=True)
class COOMatrix:
    """An ``n_rows x n_cols`` sparse matrix in coordinate format.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix shape.
    rows, cols:
        ``int64`` index arrays of equal length ``nnz``.
    vals:
        ``float32`` value array, same length.

    Duplicate coordinates are allowed in a raw COO and are summed during
    canonicalisation (:meth:`canonical`), matching what every sparse toolkit
    (cuSPARSE included) does at format-build time.

    The three arrays are read-only, adopted or copied exactly as
    :class:`~repro.sparse.csr.CSRMatrix` adopts or copies its own, so a
    matrix never changes after construction and its CSR form can be
    computed once and kept on the instance
    (:func:`repro.sparse.convert.coo_to_csr`).
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        rows = _read_only(np.ascontiguousarray(self.rows, dtype=np.int64))
        cols = _read_only(np.ascontiguousarray(self.cols, dtype=np.int64))
        vals = _read_only(np.ascontiguousarray(self.vals, dtype=np.float32))
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValidationError(
                "rows, cols, vals must be 1-D arrays of identical length"
            )
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n_rows:
                raise ValidationError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValidationError("column index out of range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        # duplicate-summed CSR form, stored by coo_to_csr on first use;
        # sound because the arrays above never change
        object.__setattr__(self, "_csr", None)

    def __reduce__(self):
        # as CSRMatrix: a pickled or deep-copied matrix is read-only
        # again and starts without the stored CSR form
        return (
            type(self),
            (self.n_rows, self.n_cols, self.rows, self.cols, self.vals),
        )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted individually)."""
        return int(self.rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    # ------------------------------------------------------------------
    def canonical(self) -> "COOMatrix":
        """Return a duplicate-summed, row-major-sorted copy of this matrix."""
        if self.nnz == 0:
            return self
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            *row_major(self.n_cols, self.rows, self.cols, self.vals),
        )

    def transpose(self) -> "COOMatrix":
        """Return the transpose (indices swapped, values shared)."""
        return COOMatrix(self.n_cols, self.n_rows, self.cols, self.rows, self.vals)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float64`` array (testing / references)."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.vals.astype(np.float64))
        return out

    def permuted(
        self,
        row_perm: np.ndarray | None = None,
        col_perm: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Apply ``new_index = perm[old_index]`` relabelings to rows/cols.

        ``perm`` must be a valid permutation of the corresponding dimension;
        this is the operation a reordering algorithm's output feeds into.
        """
        rows, cols = self.rows, self.cols
        if row_perm is not None:
            row_perm = _check_perm(row_perm, self.n_rows, "row_perm")
            rows = row_perm[rows]
        if col_perm is not None:
            col_perm = _check_perm(col_perm, self.n_cols, "col_perm")
            cols = col_perm[cols]
        return COOMatrix(self.n_rows, self.n_cols, rows, cols, self.vals)

    # ------------------------------------------------------------------
    @staticmethod
    def from_dense(dense: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        """Extract entries with ``|value| > tol`` from a dense array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValidationError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return COOMatrix(
            dense.shape[0],
            dense.shape[1],
            rows.astype(np.int64),
            cols.astype(np.int64),
            dense[rows, cols].astype(np.float32),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cells = self.n_rows * self.n_cols
        density = self.nnz / cells if cells else 0.0
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={density:.2e})"
        )


def row_major(n_cols: int, rows, cols, vals, sum_duplicates: bool = True):
    """The entries ``(rows[k], cols[k], vals[k])`` as three arrays sorted
    row-major (a stable sort), with duplicate coordinates summed unless
    ``sum_duplicates`` is False.  ``rows`` must not be empty."""
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    if not sum_duplicates:
        return rows[order], cols[order], vals[order]
    uniq_key, start = np.unique(key[order], return_index=True)
    summed = np.add.reduceat(vals[order], start).astype(np.float32)
    return uniq_key // n_cols, uniq_key % n_cols, summed


def _check_perm(perm: np.ndarray, n: int, name: str) -> np.ndarray:
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise ValidationError(f"{name} must have length {n}")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValidationError(f"{name} is not a permutation of 0..{n - 1}")
    return perm
