"""A GCN training loop served by the plan-reuse engine.

The paper's amortisation argument ("for iterative applications, the
overhead of this conversion is minimal") is exactly the training-loop
pattern: the same normalised adjacency is multiplied against fresh
activations every layer of every epoch.  This example drives that traffic
through :class:`repro.SpMMEngine` and shows

1. the plan is built **once** for the whole run (cache stats prove it);
2. an edge-reweighting step (same sparsity, new values) costs only a
   value *repack*, not a replan;
3. mini-batched inference uses ``multiply_many`` so the tiled A is
   decompressed once for all feature batches.

Run::

    python examples/gnn_training_loop.py
"""

import time

import numpy as np

import repro
from repro.sparse.convert import coo_to_csr
from repro.sparse.ops import gcn_normalize
from repro.sparse.random import block_community_graph


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def main() -> None:
    graph = coo_to_csr(
        block_community_graph(2048, n_blocks=32, avg_block_degree=8.0, seed=7)
    )
    A = gcn_normalize(graph)
    n = A.n_rows
    rng = np.random.default_rng(1)

    in_dim, hidden, out_dim = 64, 64, 16
    X = rng.standard_normal((n, in_dim)).astype(np.float32) * 0.1
    W1 = rng.standard_normal((in_dim, hidden)).astype(np.float32) * 0.1
    W2 = rng.standard_normal((hidden, out_dim)).astype(np.float32) * 0.1

    engine = repro.SpMMEngine(capacity=8, device="a800")

    # ---- "training": forward passes with evolving weights --------------
    epochs = 10
    t0 = time.perf_counter()
    for epoch in range(epochs):
        H = relu(engine.spmm(A, X) @ W1)   # layer 1 aggregation
        Z = engine.spmm(A, H) @ W2         # layer 2 aggregation
        # stand-in for backprop: nudge the dense weights
        W1 -= 1e-3 * np.sign(W1)
        W2 -= 1e-3 * np.sign(W2)
    t_train = time.perf_counter() - t0
    s = engine.stats
    print(f"{epochs} epochs x 2 layers in {t_train:.2f}s, output {Z.shape}  "
          f"(plans_built={s['plans_built']}, hits={s['hits']})")
    assert s["plans_built"] == 1, "the adjacency must plan exactly once"

    # ---- edge reweighting: same structure, new values ------------------
    A2 = repro.CSRMatrix(
        n, n, A.indptr, A.indices, (A.vals * 0.9).astype(np.float32)
    )
    engine.spmm(A2, X)
    s = engine.stats
    print(f"after edge reweighting: plans_built={s['plans_built']}, "
          f"value_refreshes={s['value_refreshes']} (repacked, not replanned)")
    assert s["plans_built"] == 1 and s["value_refreshes"] == 1

    # ---- mini-batched inference through the batched path ---------------
    Xs = rng.standard_normal((4, n, in_dim)).astype(np.float32) * 0.1
    t0 = time.perf_counter()
    Hs = engine.multiply_many(A, Xs)
    t_batched = time.perf_counter() - t0
    print(f"batched inference over {Xs.shape[0]} feature sets: "
          f"{t_batched:.2f}s, output {Hs.shape}")
    assert np.array_equal(Hs[0], engine.spmm(A, Xs[0]))

    print("final engine stats:", engine.stats)


if __name__ == "__main__":
    main()
