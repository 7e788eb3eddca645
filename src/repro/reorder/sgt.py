"""SGT baseline — TC-GNN's Sparse Graph Translation (Wang et al., ATC'23).

TC-GNN does not permute rows; its SGT pass *condenses columns within each
row window* so that the non-zeros of a window pack into as few TC blocks
as possible.  Our shared tiling engine performs exactly that condensation
for every format, so as a row ordering SGT is the identity — its
MeanNNZTC is whatever window-local column condensation alone achieves.
That makes it the "no reordering, condensation only" reference point of
Figure 10, and it is listed here under its paper name.
"""

from __future__ import annotations

from repro.reorder.base import Permutation, ReorderResult
from repro.sparse.csr import CSRMatrix


def sgt_reorder(csr: CSRMatrix) -> ReorderResult:
    """Identity row order; density comes from window column condensation."""
    return ReorderResult(
        name="sgt",
        row_perm=Permutation.identity(csr.n_rows),
        meta={"note": "column condensation happens in the shared tiling"},
    )
