"""Newman modularity and the merge gain of Equation (1).

The paper's dendrogram construction greedily merges a vertex ``v`` into the
neighbour ``u`` maximising

    dQ = (1 / 2m) * sum_ij (A_ij - k_i k_j / 2m) * delta(s_i, s_j)

restricted to the pair of communities being joined.  For two communities
``a`` and ``b`` this reduces to the classic agglomerative form

    dQ(a, b) = w_ab / m - (K_a * K_b) / (2 m^2)

where ``w_ab`` is the total edge weight between them and ``K_x`` the summed
degree of community ``x`` — the identity both Louvain and Rabbit Order use.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency


def merge_gain(w_ab: float, deg_a: float, deg_b: float, m: float) -> float:
    """dQ of merging communities with inter-weight ``w_ab`` (Equation 1)."""
    if m <= 0:
        return 0.0
    return w_ab / m - (deg_a * deg_b) / (2.0 * m * m)


def modularity(adj: Adjacency, labels: np.ndarray) -> float:
    """Total modularity Q of a community labelling.

    Q = (1/2m) * sum_ij (A_ij - k_i k_j / 2m) delta(s_i, s_j).

    Computed community-by-community via the internal-weight / degree-sum
    decomposition Q = sum_c [ w_in_c / m - (K_c / 2m)^2 ] where ``w_in_c``
    counts each internal undirected edge once (self loop weight fully).
    """
    labels = np.asarray(labels, dtype=np.int64)
    m = adj.total_weight
    if m <= 0:
        return 0.0
    src = np.repeat(np.arange(adj.n, dtype=np.int64), np.diff(adj.indptr))
    same = labels[src] == labels[adj.indices]
    # Each undirected edge is stored as two arcs; summing arc weights of
    # internal arcs and halving counts every internal edge once.
    w_in_double = np.bincount(
        labels[src][same], weights=adj.weights[same], minlength=labels.max() + 1
    )
    k_c = np.bincount(labels, weights=adj.degree, minlength=labels.max() + 1)
    q = (w_in_double / 2.0) / m - (k_c / (2.0 * m)) ** 2
    return float(q.sum())
