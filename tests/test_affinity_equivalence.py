"""The affinity reorder reproduces its frozen reference bit for bit.

``tests/affinity_reference.py`` holds the per-vertex numpy version of
Algorithm 1 (§3.2) that the library replaced with scalar loops.  Every
ordering decision must survive that rewrite: the same dendrogram merges
in the same order, the same ``order`` from Step II, the same row
projection graph, and the same union-find roots — on random square and
rectangular matrices, degenerate shapes, hubs wider than the chain
window, tie-heavy regular graphs, every cold-start family and the
dataset twins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinity_reference as ref
import repro
from repro.errors import ValidationError
from repro.graph.adjacency import Adjacency, adjacency_from_csr
from repro.graph.unionfind import UnionFind
from repro.reorder import data_affinity_reorder, rabbit_reorder
from repro.reorder.affinity import (
    build_dendrogram,
    generate_ordering,
    row_projection_graph,
)
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import take_rows
from repro.sparse.random import (
    block_community_graph,
    erdos_renyi,
    powerlaw_graph,
    road_network,
)


def csr_from_pairs(n_rows, n_cols, rows, cols, sum_duplicates=True):
    coo = COOMatrix(
        n_rows, n_cols, np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64), np.ones(len(rows), dtype=np.float32),
    )
    return coo_to_csr(coo, sum_duplicates=sum_duplicates)


def assert_same_graph(adj: Adjacency, expected: Adjacency) -> None:
    assert adj.n == expected.n
    for name in ("indptr", "indices", "weights", "degree"):
        got, want = getattr(adj, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert adj.total_weight == expected.total_weight


def assert_matches_reference(csr, chain_width: int = 32) -> None:
    """Graph, dendrogram, Step II order and both reorderers agree."""
    if csr.n_rows == csr.n_cols:
        adj = expected_adj = adjacency_from_csr(csr)
    else:
        adj = row_projection_graph(csr)
        expected_adj = ref.row_projection_graph(csr)
        assert_same_graph(adj, expected_adj)
    dendro = build_dendrogram(adj)
    expected_dendro, _ = ref.build_dendrogram(expected_adj)
    assert dendro._left == expected_dendro._left
    assert dendro._right == expected_dendro._right
    order = generate_ordering(adj, dendro, chain_width=chain_width)
    expected = ref.generate_ordering(
        expected_adj, expected_dendro, chain_width=chain_width
    )
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, expected)

    res = data_affinity_reorder(csr, chain_width=chain_width)
    np.testing.assert_array_equal(res.row_perm.order, expected)
    assert res.meta["n_merges"] == expected_dendro.n_nodes - csr.n_rows
    np.testing.assert_array_equal(
        rabbit_reorder(csr).row_perm.order, expected_dendro.leaves_dfs()
    )


@st.composite
def matrices(draw, square: bool):
    n_rows = draw(st.integers(1, 40))
    n_cols = n_rows if square else draw(
        st.integers(1, 40).filter(lambda c: c != n_rows)
    )
    nnz = draw(st.integers(0, min(n_rows * n_cols, 240)))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    return csr_from_pairs(
        n_rows, n_cols, rows, cols, sum_duplicates=draw(st.booleans())
    )


WIDTHS = st.sampled_from([0, 1, 2, 3, 32])


class TestRandomMatrices:
    @given(matrices(square=True), WIDTHS)
    @settings(max_examples=150, deadline=None)
    def test_square(self, csr, width):
        assert_matches_reference(csr, chain_width=width)

    @given(matrices(square=False), WIDTHS)
    @settings(max_examples=150, deadline=None)
    def test_rectangular(self, csr, width):
        assert_matches_reference(csr, chain_width=width)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 120),
        st.integers(2, 90),
        st.floats(0.0, 0.5),
        WIDTHS,
    )
    @settings(max_examples=60, deadline=None)
    def test_denser_random(self, seed, n_rows, n_cols, density, width):
        # more vertices per community than the list strategy reaches
        r = np.random.default_rng(seed)
        mask = r.random((n_rows, n_cols)) < density
        rows, cols = np.nonzero(mask)
        csr = csr_from_pairs(n_rows, n_cols, rows, cols)
        assert_matches_reference(csr, chain_width=width)


class TestRowProjection:
    @given(matrices(square=False), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_subsampled_columns(self, csr, max_pairs):
        # small caps send most columns down the subsampling branch
        assert_same_graph(
            row_projection_graph(csr, max_pairs_per_col=max_pairs),
            ref.row_projection_graph(csr, max_pairs_per_col=max_pairs),
        )

    def test_dense_columns(self):
        r = np.random.default_rng(5)
        rows, cols = np.nonzero(r.random((400, 30)) < 0.4)
        csr = csr_from_pairs(400, 30, rows, cols)
        for cap in (1, 7, 64):
            assert_same_graph(
                row_projection_graph(csr, max_pairs_per_col=cap),
                ref.row_projection_graph(csr, max_pairs_per_col=cap),
            )


def ring(n):
    i = np.arange(n)
    return csr_from_pairs(n, n, i, (i + 1) % n)


def grid(side):
    idx = np.arange(side * side).reshape(side, side)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return csr_from_pairs(side * side, side * side, rows, cols)


class TestShapes:
    def test_single_vertex(self):
        assert_matches_reference(csr_from_pairs(1, 1, [], []))
        assert_matches_reference(csr_from_pairs(1, 1, [0], [0]))

    def test_edgeless(self):
        assert_matches_reference(csr_from_pairs(7, 7, [], []))
        assert_matches_reference(csr_from_pairs(5, 9, [], []))

    def test_isolated_vertices(self):
        # two triangles and a pendant among 12 vertices: 5 stay isolated
        rows = [0, 1, 2, 4, 5, 6, 2]
        cols = [1, 2, 0, 5, 6, 4, 9]
        assert_matches_reference(csr_from_pairs(12, 12, rows, cols))

    @pytest.mark.parametrize("width", [2, 5, 32])
    def test_hub_wider_than_chain(self, width):
        # a hub with 120 spokes plus sparse noise: the head's neighbour
        # candidates are cut at `width`
        r = np.random.default_rng(3)
        spokes = np.arange(1, 121)
        noise_r = r.integers(1, 200, 150)
        noise_c = r.integers(1, 200, 150)
        rows = np.concatenate([np.zeros(120, np.int64), noise_r])
        cols = np.concatenate([spokes, noise_c])
        assert_matches_reference(csr_from_pairs(200, 200, rows, cols), width)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_ring(self, n):
        assert_matches_reference(ring(n))

    @pytest.mark.parametrize("side", [2, 5, 12])
    def test_grid(self, side):
        assert_matches_reference(grid(side))

    def test_shuffled_ring(self):
        # ids permuted, so a vertex's neighbours in CSR order are not in
        # the ascending order of their community roots
        i = np.arange(64)
        p = np.random.default_rng(1).permutation(64)
        assert_matches_reference(csr_from_pairs(64, 64, p[i], p[(i + 1) % 64]))

    def test_negative_chain_width_rejected(self):
        adj = adjacency_from_csr(ring(5))
        with pytest.raises(ValidationError):
            generate_ordering(adj, build_dendrogram(adj), chain_width=-1)


def family(name: str, n: int, seed: int):
    """The cold-start stream's matrix families at ``n`` rows."""
    if name == "molecular":
        coo = block_community_graph(n, max(2, n // 26), 5.0, seed=seed)
    elif name == "road":
        coo = road_network(n, seed=seed)
    elif name == "powerlaw":
        coo = powerlaw_graph(n, 8.0, community_blocks=max(2, n // 200), seed=seed)
    elif name == "uniform":
        coo = erdos_renyi(n, 6.0, seed=seed, values="uniform")
    else:  # rect: a row sample of a molecular graph, twice as wide
        src = coo_to_csr(block_community_graph(2 * n, max(2, n // 13), 5.0, seed=seed))
        keep = np.sort(np.random.default_rng(seed).choice(2 * n, n, replace=False))
        return take_rows(src, keep)
    return coo_to_csr(coo)


class TestWorkloadFamilies:
    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize(
        "name", ["molecular", "road", "powerlaw", "uniform", "rect"]
    )
    def test_family(self, name, seed):
        assert_matches_reference(family(name, 1500, seed))

    @pytest.mark.parametrize("abbr", ["DD", "rCA"])
    def test_dataset_twin(self, abbr):
        assert_matches_reference(repro.load_dataset(abbr))


class TestUnionFind:
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_same_roots_as_reference(self, case):
        n, ops = case
        uf, expected = UnionFind(n), ref.UnionFind(n)
        for a, b in ops:
            assert uf.union(a, b) == expected.union(a, b)
            assert uf.n_components == expected.n_components
        for x in range(n):
            assert uf.find(x) == expected.find(x)
        np.testing.assert_array_equal(uf.components(), expected.components())
