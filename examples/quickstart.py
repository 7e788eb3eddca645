"""Quickstart: multiply a sparse matrix with Acc-SpMM in five lines.

Run::

    python examples/quickstart.py

Loads the DD molecular-graph dataset twin, multiplies it against a random
feature matrix, verifies the result against the exact reference, and
prints the simulated kernel profile on the three paper GPUs.
"""

import numpy as np

import repro
from repro.kernels import reference_spmm
from repro.tune.policy import relative_error


def main() -> None:
    # 1. a sparse matrix (any CSRMatrix/COOMatrix; here a Table-2 twin)
    A = repro.load_dataset("DD")
    print(f"A: {A.n_rows}x{A.n_cols}, nnz={A.nnz}")

    # 2. a dense feature matrix
    rng = np.random.default_rng(0)
    B = rng.uniform(0.0, 1.0, size=(A.n_cols, 128)).astype(np.float32)

    # 3. one-shot SpMM (plans + executes with TF32 numerics)
    C = repro.spmm(A, B, device="a800")
    print(f"C: {C.shape}, dtype={C.dtype}")

    # 4. verify against the exact float64 reference
    err = relative_error(C, reference_spmm(A, B))
    print(f"max relative error vs float64 reference: {err:.2e} (TF32 level)")
    assert err < 5e-3

    # 5. reuse one plan across many multiplications + inspect the profile
    plan = repro.plan(A, feature_dim=128, device="a800")
    print("\nplan:", plan.stats)
    for device in ("rtx4090", "a800", "h100"):
        prof = repro.plan(A, 128, device).profile()
        print(f"  {prof.device:9s}: {prof.time_s * 1e6:8.2f} us simulated, "
              f"{prof.gflops:8.1f} GFLOPS, "
              f"L2 hit {prof.l2_hit_rate:.1%}")


if __name__ == "__main__":
    main()
