"""List-backed union-find with path compression and union by size."""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Disjoint-set forest over ``0..n-1``.

    Used by the dendrogram construction to track which community each
    vertex currently belongs to while merges stream in.  Parents and
    sizes are Python lists: the callers make one ``find`` per neighbour
    visit, and list indexing costs a fraction of a numpy scalar access.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path compression)."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Compress the walked path.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the surviving root.

        The larger set's root survives; on equal sizes ``a``'s does.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        self.n_components -= 1
        return ra

    def components(self) -> np.ndarray:
        """Label array mapping each element to its component root."""
        find = self.find
        return np.array([find(i) for i in range(len(self.parent))], dtype=np.int64)
