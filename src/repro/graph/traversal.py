"""Graph traversals."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.adjacency import Adjacency


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
