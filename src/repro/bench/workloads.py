"""Workloads for the experiment drivers.

Two sources:

* the 10 Table-2 dataset twins (:func:`table2_matrices`), and
* a seeded "SuiteSparse-like" collection (:func:`suitesparse_like_collection`)
  standing in for the paper's 414-matrix SuiteSparse sweep: a structured
  sample over the generator families and parameter ranges that span the
  collection's regimes (banded PDE stencils, road meshes, molecule
  batches, uniform random, power-law webs, Kronecker graphs).

Reorderings are expensive (seconds per matrix), and several figures reuse
them, so :func:`cached_reorder` memoises permutations on disk next to the
dataset cache.
"""

from __future__ import annotations

import numpy as np

from repro.reorder import REORDERERS
from repro.reorder.base import Permutation, ReorderResult
from repro.sparse.csr import CSRMatrix
from repro.sparse.datasets import DEFAULT_SEED, _cache_dir, list_datasets, load_dataset
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import (
    banded_matrix,
    block_community_graph,
    erdos_renyi,
    kronecker_graph,
    powerlaw_graph,
    road_network,
)


def table2_matrices(seed: int = DEFAULT_SEED) -> dict[str, CSRMatrix]:
    """All 10 Table-2 twins, keyed by abbreviation (build-cached)."""
    return {abbr: load_dataset(abbr, seed) for abbr in list_datasets()}


# ----------------------------------------------------------------------
def suitesparse_like_collection(
    n_matrices: int = 40, seed: int = DEFAULT_SEED
) -> dict[str, CSRMatrix]:
    """A seeded, heterogeneous stand-in for the 414-matrix SuiteSparse set.

    Cycles through six structural families at several sizes; matrix names
    encode the recipe so failures are reproducible in isolation.
    """
    rng = np.random.default_rng(seed)
    recipes = []
    sizes = [2048, 4096, 8192, 16384]
    for n in sizes:
        recipes.append((f"band-{n}", lambda n=n, s=0: banded_matrix(
            n, bandwidth=6, fill=0.7, seed=s)))
        recipes.append((f"road-{n}", lambda n=n, s=0: road_network(n, seed=s)))
        recipes.append((f"mol-{n}", lambda n=n, s=0: block_community_graph(
            n, n_blocks=max(2, n // 30), avg_block_degree=3.0, seed=s)))
        recipes.append((f"uni-{n}", lambda n=n, s=0: erdos_renyi(
            n, avg_degree=8.0, seed=s)))
        recipes.append((f"web-{n}", lambda n=n, s=0: powerlaw_graph(
            n, avg_degree=16.0, exponent=2.1,
            community_blocks=max(2, n // 96), intra_fraction=0.7, seed=s)))
        recipes.append((f"kron-{int(np.log2(n))}", lambda n=n, s=0: kronecker_graph(
            int(np.log2(n)), edge_factor=12, seed=s)))
    # a few dense-row social-style matrices round out the type-2 regime
    for n in (3072, 6144):
        recipes.append((f"social-{n}", lambda n=n, s=0: powerlaw_graph(
            n, avg_degree=64.0, exponent=2.4,
            community_blocks=max(2, n // 64), intra_fraction=0.8, seed=s)))

    out: dict[str, CSRMatrix] = {}
    for name, build in recipes[:n_matrices]:
        out[name] = coo_to_csr(build(s=int(rng.integers(0, 2**31))))
    return out


# ----------------------------------------------------------------------
def cached_reorder(
    csr: CSRMatrix, method: str, key: str, seed: int = 0
) -> ReorderResult:
    """Run (or load from disk) one reordering for a named workload.

    ``key`` must uniquely identify the matrix (dataset abbreviation plus
    build seed); the permutation is stored as an ``.npy`` next to the
    dataset cache.
    """
    cache = _cache_dir()
    fname = cache / f"perm-{key}-{method}-{seed}-v2.npy" if cache else None
    if fname is not None and fname.exists():
        order = np.load(fname)
        if order.size == csr.n_rows:
            return ReorderResult(
                name=method, row_perm=Permutation.from_order(order)
            )
    result = REORDERERS[method](csr, seed)
    if fname is not None:
        np.save(fname, result.row_perm.order)
    return result
