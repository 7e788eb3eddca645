"""Rabbit Order baseline (Arai et al., IPDPS'16).

Rabbit Order performs just-in-time community coarsening — incremental
degree-ordered modularity merges — and then lays vertices out by a plain
DFS over the merge hierarchy.  That is exactly Step I of the paper's
Algorithm 1 *without* the common-neighbour chaining of Step II, which is
why the paper's affinity ordering beats it by ~1.10x MeanNNZTC on average:
both find the same communities, but Rabbit keeps the dendrogram's raw leaf
order inside each community.
"""

from __future__ import annotations

from repro.reorder.affinity import _graph_for, build_dendrogram
from repro.reorder.base import Permutation, ReorderResult
from repro.sparse.csr import CSRMatrix


def rabbit_reorder(csr: CSRMatrix) -> ReorderResult:
    """Community coarsening + DFS leaf order (no affinity chaining)."""
    adj = _graph_for(csr)
    dendro = build_dendrogram(adj)
    order = dendro.leaves_dfs()
    return ReorderResult(
        name="rabbit",
        row_perm=Permutation.from_order(order),
        meta={"n_merges": dendro.n_nodes - adj.n},
    )
