"""Compressed Sparse Row container.

CSR is both a baseline storage format in the paper's Figure 12 comparison and
the canonical input to every tiled-format conversion, so the container tracks
its byte-level footprint explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, ValidationError


def _read_only_all_the_way_down(obj) -> bool:
    """True when nothing can write to the memory under ``obj``: every
    array and memoryview on its base chain is read-only and the chain
    ends in an object whose buffer is read-only.  An array that owns its
    memory fails even when flagged read-only — its holder can flip the
    flag back."""
    while True:
        if isinstance(obj, np.ndarray):
            if obj.flags.writeable:
                return False
            obj = obj.base
        elif isinstance(obj, memoryview):
            if not obj.readonly:
                return False
            obj = obj.obj
        else:
            break
    if obj is None:
        return False
    try:
        with memoryview(obj) as view:
            return view.readonly
    except TypeError:
        return False


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only all the way down, else a copy resting on
    an immutable ``bytes`` object, which the next matrix adopts as is."""
    if _read_only_all_the_way_down(arr):
        return arr
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


@dataclass(frozen=True)
class CSRMatrix:
    """An ``n_rows x n_cols`` sparse matrix in CSR format.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``i`` owns the slice
        ``indptr[i]:indptr[i+1]`` of ``indices``/``vals``.
    indices:
        ``int64`` column indices, sorted within each row.
    vals:
        ``float32`` values aligned with ``indices``.

    Zero-dimension matrices (0 rows and/or 0 columns) are legal — an empty
    row/column selection produces one — and necessarily hold no entries.

    The three arrays are read-only, so a matrix never changes after
    construction and its content fingerprint can be computed once and
    kept on the instance (:func:`repro.serve.fingerprint.fingerprint`).
    An input array is adopted without a copy only when it is read-only all
    the way down: not writeable, no writeable ndarray on its ``.base``
    chain, and a chain ending in a read-only buffer — ``bytes``, or the
    read-only ``mmap`` a plan-store load maps an entry file into.  Every
    other input (a freshly computed array, a view of a writable buffer, an
    array that owns its memory and could be flagged writeable again) is
    copied once.
    Arrays of another ``CSRMatrix`` qualify, so derived matrices share
    them.  Changing values means building a new matrix; the serving engine
    serves one with the same structure through its value-refresh path.
    Pickling and ``copy.deepcopy`` rebuild through the constructor, so a
    copy is read-only too and carries no fingerprint.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        # frozen before validation, so the checks below see what is stored
        indptr = _read_only(np.ascontiguousarray(self.indptr, dtype=np.int64))
        indices = _read_only(np.ascontiguousarray(self.indices, dtype=np.int64))
        vals = _read_only(np.ascontiguousarray(self.vals, dtype=np.float32))
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if indptr.shape != (self.n_rows + 1,):
            raise ValidationError(
                f"indptr must have length n_rows+1={self.n_rows + 1}, "
                f"got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise FormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if indices.shape != vals.shape or indices.ndim != 1:
            raise ValidationError("indices and vals must be 1-D, equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_cols):
            raise ValidationError("column index out of range")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "vals", vals)
        # content fingerprint, stored by repro.serve.fingerprint.fingerprint
        # on first use; sound because the arrays above never change
        object.__setattr__(self, "_fingerprint", None)

    def __reduce__(self):
        # numpy unpickles arrays writable: rebuild through the constructor
        # so a pickled or deep-copied matrix is read-only again and starts
        # without the fingerprint memo
        return (
            type(self),
            (self.n_rows, self.n_cols, self.indptr, self.indices, self.vals),
        )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_lengths(self) -> np.ndarray:
        """nnz count per row (``AvgL`` in the paper is its mean)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` as views."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.vals[lo:hi]

    # ------------------------------------------------------------------
    def metadata_bytes(self, index_width: int = 4) -> int:
        """Bytes of index structure (excludes values), Figure-12 accounting.

        The paper counts 4-byte indices; ``indptr`` has ``n_rows + 1``
        entries and ``indices`` has ``nnz`` entries.
        """
        return index_width * (self.n_rows + 1 + self.nnz)

    def total_bytes(self, index_width: int = 4, value_width: int = 4) -> int:
        """Metadata plus value payload bytes."""
        return self.metadata_bytes(index_width) + value_width * self.nnz

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact float64 sparse matrix-vector product (reference helper)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValidationError(f"x must have shape ({self.n_cols},)")
        prod = self.vals.astype(np.float64) * x[self.indices]
        # Segment-sum by row via reduceat at each non-empty row's start.
        out = np.zeros(self.n_rows, dtype=np.float64)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(prod, self.indptr[nonempty])
        return out

    def matmat(self, B: np.ndarray, row_chunk: int = 16384) -> np.ndarray:
        """Exact float64 SpMM reference: ``C = A @ B``.

        Processes rows in chunks so the ``(nnz_chunk, N)`` gather buffer
        stays bounded regardless of matrix size.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.n_cols:
            raise ValidationError(
                f"B must be 2-D with {self.n_cols} rows, got {B.shape}"
            )
        n = B.shape[1]
        out = np.zeros((self.n_rows, n), dtype=np.float64)
        vals64 = self.vals.astype(np.float64)
        for r0 in range(0, self.n_rows, row_chunk):
            r1 = min(r0 + row_chunk, self.n_rows)
            lo, hi = self.indptr[r0], self.indptr[r1]
            if lo == hi:
                continue
            gathered = vals64[lo:hi, None] * B[self.indices[lo:hi]]
            lengths = np.diff(self.indptr[r0 : r1 + 1])
            nonempty = np.flatnonzero(lengths > 0)
            starts = (self.indptr[r0:r1][nonempty] - lo).astype(np.int64)
            out[r0 + nonempty] = np.add.reduceat(gathered, starts, axis=0)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), self.row_lengths())
        out[row_ids, self.indices] = self.vals.astype(np.float64)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
