"""Symmetric CSR adjacency view of a sparse matrix.

All the reordering algorithms need an *undirected* view: the paper builds
the graph from the sparse matrix "where each node corresponds to an index of
a row or a column" with unit weight per non-zero.  For a square matrix we
symmetrise ``A + A^T`` (dropping the numeric values, keeping multiplicity as
the edge weight); rectangular matrices are handled by the callers via their
row-projection ``A A^T`` when needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class Adjacency:
    """Undirected weighted graph in CSR form.

    Attributes
    ----------
    indptr, indices:
        CSR neighbour lists; symmetric by construction (if ``v`` appears in
        ``neighbors(u)`` then ``u`` appears in ``neighbors(v)``), with
        parallel arcs merged, so no neighbour is listed twice.
    weights:
        ``float64`` edge weights aligned with ``indices``.
    degree:
        Weighted degree per vertex (sum of incident edge weights; self loops
        count twice, the modularity convention).
    total_weight:
        ``m`` in Equation (1): half the sum of all weighted degrees.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degree: np.ndarray
    total_weight: float

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v`` (view, sorted ascending)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    @property
    def n_edges(self) -> int:
        """Number of stored directed arcs (2x undirected edge count)."""
        return int(self.indices.size)


def adjacency_from_csr(csr: CSRMatrix, self_loops: bool = False) -> Adjacency:
    """Build the symmetrised unit-weight adjacency of a square matrix.

    Parallel arcs arising from ``A + A^T`` are merged with summed weight, so
    a symmetric non-zero pair contributes weight 2 to one undirected edge —
    consistent with treating nnz multiplicity as affinity strength.
    """
    if csr.n_rows != csr.n_cols:
        raise ValidationError(
            "adjacency_from_csr requires a square matrix; project rectangular "
            "matrices first"
        )
    n = csr.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), csr.row_lengths())
    cols = csr.indices
    # Symmetrise: stack both directions, then merge duplicates.
    u = np.concatenate([rows, cols])
    v = np.concatenate([cols, rows])
    if not self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    key = u * np.int64(n) + v
    order = np.argsort(key, kind="stable")
    key = key[order]
    uniq, start, counts = np.unique(key, return_index=True, return_counts=True)
    uu = (uniq // n).astype(np.int64)
    vv = (uniq % n).astype(np.int64)
    w = counts.astype(np.float64)

    deg_count = np.bincount(uu, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg_count, out=indptr[1:])
    # A self loop appears as two stacked (v, v) arcs and is merged to a
    # single arc of weight 2, so degree already counts it twice — the
    # standard modularity convention.
    degree = np.zeros(n, dtype=np.float64)
    np.add.at(degree, uu, w)
    total = degree.sum() / 2.0
    return Adjacency(
        n=n,
        indptr=indptr,
        indices=vv,
        weights=w,
        degree=degree,
        total_weight=float(total),
    )


def contract_by_labels(
    adj: Adjacency, labels: np.ndarray, keep_self_loops: bool = True
) -> tuple[Adjacency, np.ndarray]:
    """Collapse label groups into super-vertices, merging parallel arcs.

    Returns the contracted graph and the compact label array (original
    vertex -> contracted vertex id).  Internal edges become self loops
    (weight preserved) so modularity quantities stay exact across levels —
    both the Louvain phase-2 step and the multi-level dendrogram
    construction use this.
    """
    labels = np.asarray(labels, dtype=np.int64)
    uniq, compact = np.unique(labels, return_inverse=True)
    k = uniq.size
    src = np.repeat(np.arange(adj.n, dtype=np.int64), np.diff(adj.indptr))
    cu = compact[src]
    cv = compact[adj.indices]
    if not keep_self_loops:
        keep = cu != cv
        cu, cv, w = cu[keep], cv[keep], adj.weights[keep]
    else:
        w = adj.weights
    key = cu * np.int64(k) + cv
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    w_sorted = w[order]
    uniq_key, start = np.unique(key_sorted, return_index=True)
    w_merged = (
        np.add.reduceat(w_sorted, start) if uniq_key.size else w_sorted[:0]
    )
    uu = (uniq_key // k).astype(np.int64)
    vv = (uniq_key % k).astype(np.int64)
    counts = np.bincount(uu, minlength=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    degree = np.zeros(k, dtype=np.float64)
    np.add.at(degree, uu, w_merged)
    contracted = Adjacency(
        n=k,
        indptr=indptr,
        indices=vv,
        weights=w_merged,
        degree=degree,
        total_weight=float(degree.sum() / 2.0),
    )
    return contracted, compact
