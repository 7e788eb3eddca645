"""Traversals and neighbourhood statistics."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.adjacency import Adjacency


def two_hop_candidates(
    adj: Adjacency, v: int, limit: int = 64
) -> np.ndarray:
    """Distinct vertices at distance exactly 1-2 from ``v`` (capped).

    The cap keeps the affinity ordering O(n log n)-ish on hub-heavy graphs:
    hubs would otherwise enumerate the whole graph as candidates.
    """
    nv = adj.neighbors(v)
    if nv.size == 0:
        return nv
    # Take neighbours plus neighbours-of-the-first-few-neighbours.
    pieces = [nv]
    budget = limit * 4
    for u in nv[: min(nv.size, 16)]:
        nb = adj.neighbors(int(u))
        pieces.append(nb[: max(0, budget)])
        budget -= nb.size
        if budget <= 0:
            break
    cand = np.unique(np.concatenate(pieces))
    cand = cand[cand != v]
    return cand[:limit] if cand.size > limit else cand


def bfs_order(adj: Adjacency, start: int = 0) -> np.ndarray:
    """Breadth-first vertex order covering every component (baseline order)."""
    n = adj.n
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    k = 0
    for seed in range(n):
        root = (start + seed) % n
        if visited[root]:
            continue
        queue = deque([root])
        visited[root] = True
        while queue:
            u = queue.popleft()
            order[k] = u
            k += 1
            for w in adj.neighbors(u):
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order
