"""Seeded workload inputs.

Every input is a pure function of the workload seed.  Sizes are
stratified — each run sees the same grid of row counts per family, and
the seed only draws the structure, the values and the order — so the
amount of work per run does not depend on the seed.
"""

from __future__ import annotations

import numpy as np

#: the five matrix families of the cold-start stream and the serving
#: working set; "rect" is a row sample of a molecular graph with twice
#: the columns, which sends the reorder down its row-projection path
FAMILIES = ("molecular", "road", "powerlaw", "uniform", "rect")


def sub_seed(seed: int, *tags: int) -> int:
    """A child seed for one input, independent of every other input."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def family_matrix(family: str, n: int, seed: int):
    """One ``n``-row matrix of a family (CSR, float32 values)."""
    from repro.sparse.convert import coo_to_csr
    from repro.sparse.ops import take_rows
    from repro.sparse.random import (
        block_community_graph,
        erdos_renyi,
        powerlaw_graph,
        road_network,
    )

    if family == "molecular":
        coo = block_community_graph(
            n, n_blocks=max(2, n // 26), avg_block_degree=5.0, seed=seed
        )
    elif family == "road":
        coo = road_network(n, seed=seed)
    elif family == "powerlaw":
        coo = powerlaw_graph(
            n, 8.0, community_blocks=max(2, n // 200), seed=seed
        )
    elif family == "uniform":
        coo = erdos_renyi(n, 6.0, seed=seed, values="uniform")
    elif family == "rect":
        src = coo_to_csr(
            block_community_graph(
                2 * n, n_blocks=max(2, n // 13), avg_block_degree=5.0,
                seed=seed,
            )
        )
        rows = np.sort(
            np.random.default_rng(seed).choice(2 * n, size=n, replace=False)
        )
        return take_rows(src, rows)
    else:
        raise ValueError(f"unknown family {family!r}")
    return coo_to_csr(coo)


def dense_twin(seed: int):
    """The serving working set's dense power-law twin: planted
    communities dense enough that its tiles hold >= 8 nonzeros on
    average, so ``fast`` requests run the fused executor strategy."""
    from repro.sparse.convert import coo_to_csr
    from repro.sparse.random import powerlaw_graph

    return coo_to_csr(
        powerlaw_graph(
            1536, 32.0, exponent=2.5, community_blocks=12,
            intra_fraction=0.9, seed=seed,
        )
    )


def dd_twin(seed: int):
    """The GCN-normalised DD twin (TC-GNN's DD dataset, scaled down)."""
    from repro.sparse.convert import coo_to_csr
    from repro.sparse.datasets import DATASETS
    from repro.sparse.ops import gcn_normalize

    return gcn_normalize(coo_to_csr(DATASETS["DD"].builder(seed)))


#: row counts of the cold-start stream, the same for every family
COLD_ROWS = (1500, 2250, 3000, 3750, 4500)


def cold_stream(seed: int):
    """Distinct matrices for the cold-start workload: every family at
    every row count, in a seeded order.  Returns ``[(label, csr), ...]``."""
    items = [
        (f"{family}-{n}", family_matrix(family, n, sub_seed(seed, 1, i, n)))
        for i, family in enumerate(FAMILIES)
        for n in COLD_ROWS
    ]
    order = np.random.default_rng(sub_seed(seed, 2)).permutation(len(items))
    return [items[i] for i in order]


#: row count of each family in the serving working set (fixed, so the
#: latency mix does not depend on the seed)
WORKING_SET_ROWS = {
    "molecular": 2400, "road": 2100, "powerlaw": 1800, "uniform": 2700,
    "rect": 1500,
}


def working_set(seed: int):
    """The serving working set: one matrix per family plus the dense
    power-law twin.  Returns ``[(label, csr), ...]`` with the dense twin
    last."""
    out = [
        (family, family_matrix(family, WORKING_SET_ROWS[family], sub_seed(seed, 4, i)))
        for i, family in enumerate(FAMILIES)
    ]
    out.append(("dense", dense_twin(sub_seed(seed, 5))))
    return out
