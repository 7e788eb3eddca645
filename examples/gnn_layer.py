"""A two-layer GCN forward pass built on the Acc-SpMM public API.

The paper's motivating application (§1, §6: "integrate the SpMM operator
into DGL"): GNN aggregation is SpMM between the graph adjacency and the
node-feature matrix.  This example runs a two-layer Graph Convolutional
Network forward pass on the reddit dataset twin, using one reusable
Acc-SpMM plan for both layers — the amortised-conversion pattern the
paper's overhead argument relies on.

Run::

    python examples/gnn_layer.py
"""

import time

import numpy as np

import repro
from repro.kernels import reference_spmm
from repro.tune.policy import relative_error


def normalize_adjacency(A: "repro.CSRMatrix") -> "repro.CSRMatrix":
    """Symmetric GCN normalisation: D^-1/2 (A + I) D^-1/2."""
    from repro.sparse.convert import coo_to_csr, csr_to_coo
    from repro.sparse.coo import COOMatrix

    coo = csr_to_coo(A)
    n = A.n_rows
    rows = np.concatenate([coo.rows, np.arange(n)])
    cols = np.concatenate([coo.cols, np.arange(n)])
    vals = np.concatenate([coo.vals, np.ones(n, np.float32)])
    a_hat = coo_to_csr(COOMatrix(n, n, rows, cols, vals))
    deg = a_hat.row_lengths().astype(np.float64)
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
    # scale values: v_ij * d_i^-1/2 * d_j^-1/2
    row_of = np.repeat(np.arange(n), a_hat.row_lengths())
    scaled = (
        a_hat.vals * d_inv_sqrt[row_of] * d_inv_sqrt[a_hat.indices]
    ).astype(np.float32)
    return repro.CSRMatrix(n, n, a_hat.indptr, a_hat.indices, scaled)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def main() -> None:
    A = normalize_adjacency(repro.load_dataset("reddit"))
    n = A.n_rows
    rng = np.random.default_rng(1)

    in_dim, hidden, out_dim = 128, 128, 32
    X = rng.standard_normal((n, in_dim)).astype(np.float32) * 0.1
    W1 = rng.standard_normal((in_dim, hidden)).astype(np.float32) * 0.1
    W2 = rng.standard_normal((hidden, out_dim)).astype(np.float32) * 0.1

    # plan once: the reordering + BitTCF conversion amortises over layers
    t0 = time.perf_counter()
    plan = repro.plan(A, feature_dim=hidden, device="a800")
    t_plan = time.perf_counter() - t0
    print(f"plan built in {t_plan:.2f}s: {plan.stats}")

    # layer 1: H = relu( (A_hat @ X) W1 )
    t0 = time.perf_counter()
    H = relu(plan.multiply(X) @ W1)
    # layer 2: Z = (A_hat @ H) W2
    Z = plan.multiply(H) @ W2
    t_fwd = time.perf_counter() - t0
    print(f"2-layer GCN forward on n={n}: {t_fwd:.2f}s, Z={Z.shape}")

    # verify the aggregation numerics of layer 2 against float64
    ref = reference_spmm(A, H)
    err = relative_error(plan.multiply(H), ref)
    print(f"aggregation error vs float64: {err:.2e} (TF32 level)")
    assert err < 5e-2

    # what would this cost on the paper's GPUs?
    for dev in ("rtx4090", "a800", "h100"):
        prof = repro.plan(A, hidden, dev).profile()
        print(f"  simulated {prof.device:9s}: {prof.time_s*1e3:7.3f} ms / "
              f"layer, {prof.gflops:7.0f} GFLOPS")


if __name__ == "__main__":
    main()
