"""Data-affinity-based reordering — the paper's Algorithm 1 (§3.2).

Two steps:

**Step I — dendrogram construction.**  Visit vertices in ascending degree;
for each vertex ``v`` find the neighbour ``u`` whose community merge gives
the largest modularity improvement dQ (Equation 1) and merge when dQ > 0,
recording the merge in a dendrogram.  Communities are tracked with a
union-find; dQ between v's community and each candidate community uses the
standard agglomerative identity (see :mod:`repro.graph.modularity`).

**Step II — ordering generation.**  Walk the dendrogram leaves in DFS
order.  Each unvisited leaf starts a chain: repeatedly pick, among the
not-yet-visited candidates (graph neighbours of the chain head plus the
next leaves in DFS order), the vertex sharing the *most common neighbours*
with the head, assign it the next id, and advance the head.  This is the
paper's "u in DFS that has most common nbrs with v" loop; we bound the
candidate set (``chain_width``) so the whole pass stays O(n log n)-ish on
hub-heavy graphs instead of the naive O(n^2) scan.

Both steps are scalar loops over Python lists made once per graph (once
per level in Step I): per-vertex numpy calls on arrays of a handful of
elements would cost more in call overhead than the work they do.

Step II's DFS candidates are the first ``chain_width`` unvisited leaves
after the chain's source.  Every leaf before the source is already
visited, so that window is kept as a set whose end position moves forward
as its members are visited, instead of being rescanned on every step.
Common neighbours are counted one of two ways, chosen per head from
degree sums: walking the head's two-hop neighbourhood once (cost: the
summed degrees of its neighbours), or scanning each candidate's neighbour
list against the head's (cost: the candidates' summed degrees).  The walk
is used unless it costs more than scanning ``2 * chain_width`` candidates
of mean degree; a head next to a hub scans instead of walking the hub's
whole list.  The two agree because an :class:`Adjacency` is symmetric and
stores no arc twice: then ``w`` is reached from the head through ``u``
exactly when ``u`` is a common neighbour.  The winner is the largest count
with the earliest DFS position, so no result depends on the order a set or
dict is iterated in.

Rectangular matrices are reordered through their row-connectivity graph
(rows sharing a column become neighbours), built by
:func:`row_projection_graph`.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import ValidationError
from repro.graph.adjacency import Adjacency, adjacency_from_csr, contract_by_labels
from repro.graph.dendrogram import Dendrogram
from repro.graph.modularity import merge_gain
from repro.graph.unionfind import UnionFind
from repro.reorder.base import Permutation, ReorderResult
from repro.sparse.csr import CSRMatrix


def build_dendrogram(adj: Adjacency, max_levels: int = 12) -> Dendrogram:
    """Step I: multi-level greedy modularity merges in ascending-degree order.

    Each level performs one pass over the (contracted) graph's vertices in
    ascending degree, merging every vertex into the neighbouring community
    with the largest positive dQ (Equation 1) and recording the merge in
    the dendrogram; merged clusters are then contracted into super-vertices
    and the pass repeats until no merge improves modularity.  This is the
    just-in-time incremental aggregation of Rabbit Order, and it is what
    produces the nested hierarchy of Figure 2(b) (vertex 7 absorbing
    repeatedly as 7', 7'', 7''').

    A vertex's edge weight is summed per neighbouring community in CSR
    order, and the largest gain wins, ties going to the smallest community
    root (the first maximum in ascending root order).
    """
    n = adj.n
    dendro = Dendrogram(n)
    m = adj.total_weight
    if m <= 0:
        return dendro
    uf = UnionFind(n)

    work = adj
    # leaf representative of each work-graph vertex (level 0: itself)
    rep = np.arange(n, dtype=np.int64)
    for _level in range(max_levels):
        # per-arc values as flat 8-byte arrays: as fast to index as lists,
        # at a fifth of their memory
        indptr = work.indptr.tolist()
        indices = array("q", work.indices.astype(np.int64).tobytes())
        weights = array("d", work.weights.astype(np.float64).tobytes())
        comm_degree = work.degree.tolist()
        leaf_rep = rep.tolist()
        local_uf = UnionFind(work.n)
        find = local_uf.find
        merges = 0
        for v in np.argsort(work.degree, kind="stable").tolist():
            lo, hi = indptr[v], indptr[v + 1]
            if lo == hi:
                continue
            lr_v = find(v)
            # Group v's edge weight by the *community* of each neighbour.
            w_to: dict[int, float] = {}
            for k in range(lo, hi):
                root = find(indices[k])
                if root != lr_v:
                    w_to[root] = w_to.get(root, 0.0) + weights[k]
            if not w_to:
                continue
            # largest dQ (Equation 1); a tie goes to the smallest community root
            deg_v = comm_degree[lr_v]
            target = -1
            best = 0.0
            for root, w in w_to.items():
                gain = merge_gain(w, deg_v, comm_degree[root], m)
                if target < 0 or gain > best or (gain == best and root < target):
                    target, best = root, gain
            if best <= 0.0:
                continue
            # Record the merge (absorbing community first so its leaves
            # stay contiguous under DFS), then union both trackers.
            glob_v = uf.find(leaf_rep[lr_v])
            glob_u = uf.find(leaf_rep[target])
            node = dendro.merge(glob_u, glob_v)
            dendro.set_representative(uf.union(glob_v, glob_u), node)
            new_deg = deg_v + comm_degree[target]
            comm_degree[local_uf.union(lr_v, target)] = new_deg
            merges += 1
        if merges == 0 or work.n <= 2:
            break
        del indices, weights  # contraction allocates its own per-arc arrays
        labels = local_uf.components()
        new_work, compact = contract_by_labels(work, labels)
        # Representative leaf of each contracted vertex: every member of a
        # group shares the same local root, so any member's rep[root] works.
        new_rep = np.empty(new_work.n, dtype=np.int64)
        new_rep[compact] = rep[labels]
        work = new_work
        rep = new_rep
    return dendro


def generate_ordering(
    adj: Adjacency, dendro: Dendrogram, chain_width: int = 32
) -> np.ndarray:
    """Step II: common-neighbour-guided chain walk over the DFS leaves.

    Returns ``order``: ``order[k]`` is the vertex assigned new id ``k``.
    """
    if chain_width < 0:
        raise ValidationError(f"chain_width must be >= 0, got {chain_width}")
    n = adj.n
    leaves = dendro.leaves_dfs().tolist()
    dfs_pos = [0] * n
    for pos, leaf in enumerate(leaves):
        dfs_pos[leaf] = pos
    # Walk a head's two-hop neighbourhood unless that reads more arcs than
    # scanning 2 * chain_width candidates of mean degree would.
    arcs = np.diff(adj.indptr)
    reach = np.concatenate(([0], np.cumsum(arcs[adj.indices])))
    two_hop_arcs = reach[adj.indptr[1:]] - reach[adj.indptr[:-1]]
    walk = (two_hop_arcs <= 2 * chain_width * adj.indices.size / max(n, 1)).tolist()
    indptr = adj.indptr.tolist()
    indices = adj.indices.tolist()
    nbrs = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]

    visited = [False] * n
    order: list[int] = []
    # The DFS window: the first `chain_width` unvisited leaves.  `win_end`
    # is one past the last leaf it took in.
    window = set(leaves[:chain_width])
    win_end = len(window)

    def visit(u: int) -> None:
        nonlocal win_end
        order.append(u)
        visited[u] = True
        if dfs_pos[u] < win_end:
            window.remove(u)
            while win_end < n:
                leaf = leaves[win_end]
                win_end += 1
                if not visited[leaf]:
                    window.add(leaf)
                    break

    cursor = 0  # next DFS leaf to examine
    while len(order) < n:
        # outer loop: first unvisited leaf in DFS order becomes the source
        while visited[leaves[cursor]]:
            cursor += 1
        v = leaves[cursor]
        visit(v)

        # chain: follow maximal common-neighbour vertices
        while len(order) < n:
            cands = window.union([u for u in nbrs[v] if not visited[u]][:chain_width])
            counts: dict[int, int] = {}
            if walk[v]:
                # walk v's two-hop neighbourhood once
                for u in nbrs[v]:
                    for w in cands.intersection(nbrs[u]):
                        counts[w] = counts.get(w, 0) + 1
            else:
                # scan each candidate's neighbour list against v's
                head = set(nbrs[v])
                for u in cands:
                    counts[u] = len(head.intersection(nbrs[u]))
            # tie-break on earliest DFS position, per the paper's example
            best_u, best, best_pos = -1, 0, n
            for u, k in counts.items():
                if k > best or (k == best and dfs_pos[u] < best_pos):
                    best_u, best, best_pos = u, k, dfs_pos[u]
            if best <= 0:
                break
            visit(best_u)
            v = best_u
    return np.array(order, dtype=np.int64)


def row_projection_graph(csr: CSRMatrix, max_pairs_per_col: int = 64) -> Adjacency:
    """Row-connectivity graph for rectangular matrices.

    Rows become vertices; two rows are adjacent when they share a column.
    Columns touching more than ``max_pairs_per_col`` rows are subsampled
    (they would otherwise add O(deg^2) edges and no ordering signal).
    """
    n = csr.n_rows
    # Sort nnz by column: each column's rows become one ascending run.
    rows = np.repeat(np.arange(n, dtype=np.int64), csr.row_lengths())
    order = np.argsort(csr.indices, kind="stable")
    s_cols = csr.indices[order]
    s_rows = rows[order]
    col_start = np.searchsorted(s_cols, np.arange(csr.n_cols + 1))
    # A column of k > max_pairs_per_col rows keeps every
    # (k // max_pairs_per_col)-th of them — all columns at once.
    k = np.diff(col_start)[s_cols]
    step = np.where(k > max_pairs_per_col, np.maximum(1, k // max_pairs_per_col), 1)
    kept = np.flatnonzero((np.arange(s_cols.size) - col_start[s_cols]) % step == 0)
    # chain edges (consecutive kept rows of one column) keep it O(k)
    # instead of O(k^2)
    chained = s_cols[kept[:-1]] == s_cols[kept[1:]]
    u = s_rows[kept[:-1][chained]]
    v = s_rows[kept[1:][chained]]

    key = u * np.int64(n) + v
    both = np.concatenate([key, v * np.int64(n) + u])
    uniq = np.unique(both)
    uu = (uniq // n).astype(np.int64)
    vv = (uniq % n).astype(np.int64)
    keep = uu != vv
    uu, vv = uu[keep], vv[keep]
    counts = np.bincount(uu, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    w = np.ones(uu.size, dtype=np.float64)
    degree = counts.astype(np.float64)
    return Adjacency(
        n=n,
        indptr=indptr,
        indices=vv,
        weights=w,
        degree=degree,
        total_weight=float(degree.sum() / 2.0),
    )


def _graph_for(csr: CSRMatrix) -> Adjacency:
    if csr.n_rows == csr.n_cols:
        return adjacency_from_csr(csr)
    return row_projection_graph(csr)


def data_affinity_reorder(
    csr: CSRMatrix, chain_width: int = 32
) -> ReorderResult:
    """Run the full Algorithm 1 on a sparse matrix (rows only).

    Following §4.3.1, only the sparse matrix's rows are relabelled; column
    ids — and hence the dense matrix — stay put.
    """
    adj = _graph_for(csr)
    dendro = build_dendrogram(adj)
    order = generate_ordering(adj, dendro, chain_width=chain_width)
    return ReorderResult(
        name="affinity",
        row_perm=Permutation.from_order(order),
        meta={"chain_width": chain_width, "n_merges": dendro.n_nodes - adj.n},
    )


def reorder_bilateral(csr: CSRMatrix, chain_width: int = 32) -> ReorderResult:
    """Paper §6 future-work variant: relabel rows *and* columns.

    The same affinity permutation is applied to both sides of a square
    matrix; the planner then pairs it with a row permutation of the dense
    matrix so the product is preserved.
    """
    base = data_affinity_reorder(csr, chain_width=chain_width)
    if csr.n_rows != csr.n_cols:
        return base
    return ReorderResult(
        name="affinity-bilateral",
        row_perm=base.row_perm,
        col_perm=base.row_perm,
        meta=dict(base.meta),
    )
