"""Graph substrate for the reordering algorithms.

The data-affinity reordering (and the Rabbit/Louvain baselines) treat the
sparse matrix as the adjacency matrix of an undirected weighted graph
(§3.2): "each node in the graph corresponds to an index of a row or a
column" and edge weight 1 per non-zero.  This package provides the graph
views and primitives those algorithms need: symmetric CSR adjacency,
modularity gain (Equation 1), union-find community tracking, the merge
dendrogram with DFS leaf enumeration, and traversals.
"""

from repro.graph.adjacency import Adjacency, adjacency_from_csr
from repro.graph.dendrogram import Dendrogram
from repro.graph.modularity import modularity
from repro.graph.traversal import bfs_order
from repro.graph.unionfind import UnionFind

__all__ = [
    "Adjacency",
    "adjacency_from_csr",
    "Dendrogram",
    "modularity",
    "bfs_order",
    "UnionFind",
]
