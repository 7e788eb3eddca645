"""Permutation types shared by all reordering algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.sparse.convert import permute_csr
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class Permutation:
    """A vertex/row permutation with both directions precomputed.

    Attributes
    ----------
    order:
        ``order[k]`` = old index placed at new position ``k``
        (the "visit order" a traversal produces).
    rank:
        Inverse: ``rank[old]`` = new position of ``old`` — the array
        matrix relabeling consumes (``new_row = rank[old_row]``).
    """

    order: np.ndarray
    rank: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        order = np.ascontiguousarray(self.order, dtype=np.int64)
        n = order.size
        seen = np.zeros(n, dtype=bool)
        if n:
            if order.min() < 0 or order.max() >= n:
                raise ValidationError("order contains out-of-range indices")
            seen[order] = True
            if not seen.all():
                raise ValidationError("order is not a permutation")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        return int(self.order.size)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n, dtype=np.int64))

    @staticmethod
    def from_order(order: np.ndarray) -> "Permutation":
        return Permutation(np.asarray(order, dtype=np.int64))

    def compose(self, inner: "Permutation") -> "Permutation":
        """Permutation equal to applying ``inner`` first, then ``self``."""
        if inner.n != self.n:
            raise ValidationError("cannot compose permutations of unequal size")
        # rank_total[old] = self.rank[inner.rank[old]]
        return Permutation(inner.order[self.order])

    def inverse(self) -> "Permutation":
        return Permutation(self.rank)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.order, np.arange(self.n)))


@dataclass(frozen=True)
class ReorderResult:
    """Output of a reordering algorithm.

    ``row_perm`` always exists; ``col_perm`` is set when the algorithm also
    relabels columns (the symmetric graph orderings do, so that the graph
    structure is preserved; SGT/LSH row sorts do not).
    """

    name: str
    row_perm: Permutation
    col_perm: Permutation | None = None
    meta: dict = field(default_factory=dict)

    def apply(self, csr: CSRMatrix) -> CSRMatrix:
        """Relabel the matrix: new A[rank[i], crank[j]] = old A[i, j]."""
        col_rank = self.col_perm.rank if self.col_perm is not None else None
        return permute_csr(csr, self.row_perm.rank, col_rank)


def apply_symmetric(csr: CSRMatrix, perm: Permutation) -> CSRMatrix:
    """Relabel rows and columns by the same permutation (square matrices).

    This is how the graph-based orderings are applied in the paper's
    pipeline: the sparse adjacency is relabelled on both sides while the
    dense matrix keeps its original row order (§4.3.1 note).

    For SpMM correctness the library compensates inside the planner: when
    columns are relabelled, the kernel gathers B rows through the *original*
    column ids stored in SparseAToB, so the result C only needs its row
    order restored.
    """
    return permute_csr(csr, perm.rank, perm.rank)
