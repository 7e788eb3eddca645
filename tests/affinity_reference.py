"""Frozen reference for the affinity reorder (paper §3.2, Algorithm 1).

These are the per-vertex numpy implementations of Step I
(``build_dendrogram``), Step II (``generate_ordering`` with
``_chain_candidates`` and ``common_neighbor_counts``) and the rectangular
row-projection graph, kept verbatim from before the library rewrote
their inner loops as scalar loops.  The union-find and the vectorised
merge gain they ran on are frozen here too, so the oracle shares no
tracker or gain code with the library.  Tests
assert the library reproduces these bit for bit: the same ``order``, the
same dendrogram merges, the same adjacency arrays.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency, contract_by_labels
from repro.graph.dendrogram import Dendrogram
from repro.sparse.csr import CSRMatrix


def modularity_gain_array(
    w_ab: np.ndarray, deg_a: float, deg_b: np.ndarray, m: float
) -> np.ndarray:
    """Vectorised merge gain (Equation 1) over candidate neighbour communities."""
    w_ab = np.asarray(w_ab, dtype=np.float64)
    deg_b = np.asarray(deg_b, dtype=np.float64)
    if m <= 0:
        return np.zeros_like(w_ab)
    return w_ab / m - (deg_a * deg_b) / (2.0 * m * m)


class UnionFind:
    """Array-backed union-find with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return ra

    def components(self) -> np.ndarray:
        return np.fromiter(
            (self.find(i) for i in range(self.parent.size)),
            dtype=np.int64,
            count=self.parent.size,
        )


def common_neighbor_counts(
    adj: Adjacency,
    v: int,
    candidates: np.ndarray,
    _marker: np.ndarray | None = None,
) -> np.ndarray:
    """Number of common neighbours between ``v`` and each candidate."""
    marker = _marker if _marker is not None else np.zeros(adj.n, dtype=bool)
    nv = adj.neighbors(v)
    marker[nv] = True
    candidates = np.asarray(candidates, dtype=np.int64)
    starts = adj.indptr[candidates]
    lens = adj.indptr[candidates + 1] - starts
    total = int(lens.sum())
    if total == 0:
        marker[nv] = False
        return np.zeros(candidates.size, dtype=np.int64)
    offsets = np.zeros(candidates.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    flat = np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
    )
    hits = marker[adj.indices[flat]].astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(hits)])
    counts = csum[offsets + lens] - csum[offsets]
    marker[nv] = False
    return counts


def build_dendrogram(
    adj: Adjacency, max_levels: int = 12
) -> tuple[Dendrogram, UnionFind]:
    """Step I: multi-level greedy modularity merges in ascending-degree order."""
    n = adj.n
    dendro = Dendrogram(n)
    uf = UnionFind(n)
    m = adj.total_weight
    if m <= 0:
        return dendro, uf

    work = adj
    rep = np.arange(n, dtype=np.int64)
    for _level in range(max_levels):
        comm_degree = work.degree.copy()
        local_uf = UnionFind(work.n)
        merges = 0
        visit = np.argsort(work.degree, kind="stable")
        for v in visit:
            v = int(v)
            nbrs = work.neighbors(v)
            if nbrs.size == 0:
                continue
            w = work.neighbor_weights(v)
            lr_v = local_uf.find(v)
            roots = np.fromiter(
                (local_uf.find(int(u)) for u in nbrs),
                dtype=np.int64,
                count=nbrs.size,
            )
            foreign = roots != lr_v
            if not foreign.any():
                continue
            cand_roots, inv = np.unique(roots[foreign], return_inverse=True)
            w_to = np.zeros(cand_roots.size, dtype=np.float64)
            np.add.at(w_to, inv, w[foreign])
            gains = modularity_gain_array(
                w_to, comm_degree[lr_v], comm_degree[cand_roots], m
            )
            best = int(np.argmax(gains))
            if gains[best] <= 0.0:
                continue
            target = int(cand_roots[best])
            glob_v = uf.find(int(rep[lr_v]))
            glob_u = uf.find(int(rep[target]))
            node = dendro.merge(glob_u, glob_v)
            surviving_glob = uf.union(glob_v, glob_u)
            dendro.set_representative(surviving_glob, node)
            new_deg = comm_degree[lr_v] + comm_degree[target]
            surviving_local = local_uf.union(lr_v, target)
            comm_degree[surviving_local] = new_deg
            merges += 1
        if merges == 0 or work.n <= 2:
            break
        labels = local_uf.components()
        new_work, compact = contract_by_labels(work, labels)
        new_rep = np.empty(new_work.n, dtype=np.int64)
        new_rep[compact] = rep[labels]
        work = new_work
        rep = new_rep
    return dendro, uf


def generate_ordering(
    adj: Adjacency, dendro: Dendrogram, chain_width: int = 32
) -> np.ndarray:
    """Step II: common-neighbour-guided chain walk over the DFS leaves."""
    n = adj.n
    leaves = dendro.leaves_dfs()
    dfs_pos = np.empty(n, dtype=np.int64)
    dfs_pos[leaves] = np.arange(n)

    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    marker = np.zeros(n, dtype=bool)
    new_vid = 0
    cursor = 0

    while new_vid < n:
        while cursor < n and visited[leaves[cursor]]:
            cursor += 1
        if cursor >= n:
            break
        v = int(leaves[cursor])
        order[new_vid] = v
        visited[v] = True
        new_vid += 1

        while new_vid < n:
            cands = _chain_candidates(
                adj, v, leaves, cursor, visited, chain_width
            )
            if cands.size == 0:
                break
            counts = common_neighbor_counts(adj, v, cands, _marker=marker)
            if counts.max() <= 0:
                break
            top = counts == counts.max()
            winners = cands[top]
            u = int(winners[np.argmin(dfs_pos[winners])])
            order[new_vid] = u
            visited[u] = True
            new_vid += 1
            v = u
    return order


def _chain_candidates(
    adj: Adjacency,
    v: int,
    leaves: np.ndarray,
    cursor: int,
    visited: np.ndarray,
    width: int,
) -> np.ndarray:
    """Unvisited candidates: v's neighbours + the next DFS-order leaves."""
    nbrs = adj.neighbors(v)
    unvisited_nbrs = nbrs[~visited[nbrs]]
    if unvisited_nbrs.size > width:
        unvisited_nbrs = unvisited_nbrs[:width]
    dfs_cands = []
    k = cursor
    found = 0
    n = leaves.size
    while k < n and found < width:
        leaf = leaves[k]
        if not visited[leaf]:
            dfs_cands.append(leaf)
            found += 1
        k += 1
    if dfs_cands:
        return np.unique(
            np.concatenate([unvisited_nbrs, np.asarray(dfs_cands, dtype=np.int64)])
        )
    return np.unique(unvisited_nbrs)


def row_projection_graph(csr: CSRMatrix, max_pairs_per_col: int = 64) -> Adjacency:
    """Row-connectivity graph for rectangular matrices (per-column loop)."""
    n = csr.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), csr.row_lengths())
    order = np.argsort(csr.indices, kind="stable")
    s_cols = csr.indices[order]
    s_rows = rows[order]
    col_start = np.searchsorted(s_cols, np.arange(csr.n_cols + 1))

    src_list, dst_list = [], []
    for c in range(csr.n_cols):
        lo, hi = col_start[c], col_start[c + 1]
        k = hi - lo
        if k < 2:
            continue
        members = s_rows[lo:hi]
        if k > max_pairs_per_col:
            members = members[:: max(1, k // max_pairs_per_col)]
            k = members.size
        src_list.append(members[:-1])
        dst_list.append(members[1:])
    if src_list:
        u = np.concatenate(src_list)
        v = np.concatenate(dst_list)
    else:
        u = v = np.empty(0, dtype=np.int64)

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

