"""Unit tests for the graph substrate (adjacency, modularity, dendrogram)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph.adjacency import adjacency_from_csr, contract_by_labels
from repro.graph.dendrogram import Dendrogram
from repro.graph.modularity import merge_gain, modularity
from repro.graph.traversal import bfs_order
from repro.graph.unionfind import UnionFind

from affinity_reference import common_neighbor_counts, modularity_gain_array
from tests.conftest import random_csr


class TestAdjacency:
    def test_symmetric_by_construction(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        # every arc has its reverse
        src = np.repeat(np.arange(adj.n), np.diff(adj.indptr))
        pairs = set(zip(src.tolist(), adj.indices.tolist()))
        assert all((v, u) in pairs for (u, v) in pairs)

    def test_degree_equals_weight_sum(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        for v in range(0, adj.n, 37):
            assert adj.degree[v] == pytest.approx(adj.neighbor_weights(v).sum())

    def test_total_weight_is_half_degree_sum(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        assert adj.total_weight == pytest.approx(adj.degree.sum() / 2)

    def test_rectangular_rejected(self):
        csr = random_csr(8, 12, 0.3, seed=0)
        with pytest.raises(ValidationError):
            adjacency_from_csr(csr)

    def test_symmetric_pair_weight_two(self):
        # A with both (0,1) and (1,0): one undirected edge of weight 2
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        csr = coo_to_csr(COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 1.0]))
        adj = adjacency_from_csr(csr)
        assert adj.neighbor_weights(0)[0] == 2.0


class TestContract:
    def test_contract_preserves_total_weight(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        labels = np.arange(adj.n) // 4
        small, compact = contract_by_labels(adj, labels)
        assert small.total_weight == pytest.approx(adj.total_weight)
        assert small.n == len(np.unique(labels))

    def test_contract_drops_internal_when_asked(self):
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        csr = coo_to_csr(
            COOMatrix(4, 4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        )
        adj = adjacency_from_csr(csr)
        labels = np.array([0, 0, 1, 1])
        small, _ = contract_by_labels(adj, labels, keep_self_loops=False)
        # only the 1-2 edge crosses the cut
        assert small.total_weight == pytest.approx(1.0)


class TestModularity:
    def test_merge_gain_sign(self):
        # strongly connected pair in a big graph: positive gain
        assert merge_gain(w_ab=10.0, deg_a=12.0, deg_b=11.0, m=1000.0) > 0
        # no connection: always negative
        assert merge_gain(w_ab=0.0, deg_a=12.0, deg_b=11.0, m=1000.0) < 0

    def test_gain_array_matches_scalar(self):
        w = np.array([1.0, 0.0, 5.0])
        deg_b = np.array([4.0, 8.0, 2.0])
        arr = modularity_gain_array(w, 3.0, deg_b, 100.0)
        for i in range(3):
            assert arr[i] == pytest.approx(merge_gain(w[i], 3.0, deg_b[i], 100.0))

    def test_modularity_bounds(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        q_all_one = modularity(adj, np.zeros(adj.n, dtype=np.int64))
        assert q_all_one == pytest.approx(0.0, abs=1e-9)
        q_singletons = modularity(adj, np.arange(adj.n))
        assert q_singletons <= 0.0

    def test_good_communities_beat_random(self, medium_graph_csr):
        from repro.reorder.louvain import louvain_communities

        adj = adjacency_from_csr(medium_graph_csr)
        rng = np.random.default_rng(0)
        q_rand = modularity(adj, rng.integers(0, 16, adj.n))
        q_louv = modularity(
            adj, louvain_communities(medium_graph_csr, seed=0)
        )
        assert q_louv > q_rand + 0.2


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.n_components == 3
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(2) not in (uf.find(0), uf.find(3))

    def test_union_idempotent(self):
        uf = UnionFind(3)
        r1 = uf.union(0, 1)
        r2 = uf.union(0, 1)
        assert r1 == r2
        assert uf.n_components == 2

    def test_components_labels(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        labels = uf.components()
        assert labels[0] == labels[2]
        assert labels[1] != labels[0]


class TestDendrogram:
    def test_requires_leaves(self):
        with pytest.raises(ValidationError):
            Dendrogram(0)

    def test_merge_and_dfs(self):
        d = Dendrogram(4)
        d.merge(0, 1)  # node 4
        d.merge(2, 3)  # node 5
        leaves = d.leaves_dfs()
        assert sorted(leaves.tolist()) == [0, 1, 2, 3]
        # 0,1 contiguous; 2,3 contiguous
        pos = {v: i for i, v in enumerate(leaves.tolist())}
        assert abs(pos[0] - pos[1]) == 1
        assert abs(pos[2] - pos[3]) == 1

    def test_self_merge_rejected(self):
        d = Dendrogram(3)
        d.merge(0, 1)
        with pytest.raises(ValidationError):
            d.merge(0, 0)

    def test_community_labels(self):
        d = Dendrogram(5)
        d.merge(0, 1)
        d.merge(3, 4)
        labels = d.community_of_leaves()
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[2] not in (labels[0], labels[3])

    def test_absorbing_cluster_first_in_dfs(self):
        d = Dendrogram(3)
        d.merge(1, 0)  # 0 merged INTO 1: 1's leaves come first
        order = d.leaves_dfs().tolist()
        assert order.index(1) < order.index(0)

    def test_deep_chain_no_recursion_error(self):
        n = 5000
        d = Dendrogram(n)
        rep = 0
        for v in range(1, n):
            d.merge(rep, v)
        leaves = d.leaves_dfs()
        assert leaves.size == n


class TestTraversal:
    def test_common_neighbors_counts(self):
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        # star: 0 connected to 1,2,3; 4 connected to 1,2
        coo = COOMatrix(
            5, 5, [0, 0, 0, 4, 4], [1, 2, 3, 1, 2], np.ones(5, np.float32)
        )
        adj = adjacency_from_csr(coo_to_csr(coo))
        counts = common_neighbor_counts(adj, 0, np.array([4]))
        assert counts[0] == 2  # shares 1 and 2

    def test_common_neighbors_empty_candidates(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        out = common_neighbor_counts(adj, 0, np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_bfs_covers_all_components(self, medium_graph_csr):
        adj = adjacency_from_csr(medium_graph_csr)
        order = bfs_order(adj)
        assert sorted(order.tolist()) == list(range(adj.n))
