"""Future-work demo: bilateral (row + column) reordering.

The paper's §6 roadmap: "reorder the columns of the sparse matrix while
simultaneously reordering the rows of the dense matrix, further improving
cache hit rates."  The library already implements that variant
(:func:`repro.reorder.reorder_bilateral`); this example shows the extra
cache-hit and runtime gains it buys on a community graph, and verifies
the product is preserved when B's rows are permuted to match.

Run::

    python examples/bilateral_reordering.py
"""

import numpy as np

import repro
from repro.kernels import reference_spmm
from repro.kernels.accspmm import AccSpMMKernel
from repro.tune.policy import relative_error
from repro.reorder import data_affinity_reorder, reorder_bilateral


def main() -> None:
    A = repro.load_dataset("DD")
    rng = np.random.default_rng(3)
    B = rng.uniform(0.1, 1.0, (A.n_cols, 128)).astype(np.float32)
    ref = reference_spmm(A, B)
    dev = repro.get_device("a800")

    # --- rows only (the paper's shipped configuration) -----------------
    row_only = data_affinity_reorder(A)
    k1 = AccSpMMKernel(reorder=row_only)
    res1 = k1.multiply(A, B, dev)
    print(f"row-only reorder: {res1.profile.time_s*1e6:8.2f} us, "
          f"L2 hit {res1.profile.l2_hit_rate:.1%}")
    assert relative_error(res1.C, ref) < 5e-3

    # --- bilateral: relabel A's columns AND B's rows ---------------------
    bilateral = reorder_bilateral(A)
    A_bi = bilateral.apply(A)          # rows and columns relabelled
    B_bi = B[bilateral.col_perm.order]  # B rows follow A's column relabel
    k2 = AccSpMMKernel(reorder=False)   # structure is already reordered
    res2 = k2.multiply(A_bi, B_bi, dev)
    # undo the row relabeling to compare against the original reference
    C2 = res2.C[bilateral.row_perm.rank]
    err = relative_error(C2, ref)
    print(f"bilateral reorder: {res2.profile.time_s*1e6:8.2f} us, "
          f"L2 hit {res2.profile.l2_hit_rate:.1%}")
    print(f"bilateral numeric error vs reference: {err:.2e}")
    assert err < 5e-3, "bilateral permutation must preserve the product"

    gain = res1.profile.time_s / res2.profile.time_s
    dl2 = res2.profile.l2_hit_rate - res1.profile.l2_hit_rate
    print(f"\nbilateral vs row-only: {gain:.3f}x runtime, "
          f"{dl2:+.2%} L2 hit rate")
    print("(the paper predicts further cache-hit improvement — §6)")


if __name__ == "__main__":
    main()
