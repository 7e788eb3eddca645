"""Steady-state multiply throughput: cold vs cached vs prepared vs batched.

PR 1 amortised *planning* (reorder + BitTCF + schedule); the prepared
executor amortises the remaining B-invariant half of execution (tile
decompression + TF32 rounding of A, gather geometry, window
segmentation).  This benchmark separates the four serving regimes:

* **cold** — plan + multiply per request (no reuse at all);
* **cached** — plan reused, but every multiply runs the pre-executor
  reference path (:func:`execute_tiled_reference`) — PR 1's steady state;
* **prepared** — plan reused *and* multiplies replay the compiled
  executor — this PR's steady state, bit-for-bit equal to ``cached``;
* **batched** — one ``multiply_many`` pass over all right-hand sides.

``python bench_exec_hotpath.py --smoke`` runs the CI guard: a small
synthetic matrix, best-of-N timings, asserting the prepared path is no
slower than the unprepared one (a structural invariant — it strictly
does less work — so no flaky speedup threshold is needed) and that the
two agree bit for bit.  It also forces the same matrix into several
chunk programs, so windows straddle chunk boundaries, and checks that
multiply bit for bit against the reference run with the same chunking.
"""

import sys
import time

import numpy as np

from repro.core import plan
from repro.kernels.tc_common import execute_tiled_reference
from repro.sparse.datasets import load_dataset

DATASETS = ("DD", "rCA")
FEATURE_DIM = 64
N_REQUESTS = 8
N_COLD = 2


def _traffic(A, n_requests=N_REQUESTS, n=FEATURE_DIM, seed=17):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n_requests, A.n_cols, n)).astype(np.float32)


def bench_dataset(name):
    A = load_dataset(name)
    Bs = _traffic(A)

    t0 = time.perf_counter()
    for i in range(N_COLD):
        cold = plan(A, feature_dim=FEATURE_DIM).multiply(Bs[i])
    t_cold = (time.perf_counter() - t0) / N_COLD

    p = plan(A, feature_dim=FEATURE_DIM)
    execute_tiled_reference(p.tc_plan, Bs[0])  # warm caches/allocator
    t0 = time.perf_counter()
    for i in range(N_REQUESTS):
        cached = execute_tiled_reference(p.tc_plan, Bs[i])
    t_cached = (time.perf_counter() - t0) / N_REQUESTS

    p.prepare()  # compile the executor outside the timed region
    t0 = time.perf_counter()
    for i in range(N_REQUESTS):
        prepared = p.multiply(Bs[i])
    t_prepared = (time.perf_counter() - t0) / N_REQUESTS

    t0 = time.perf_counter()
    batched = p.multiply_many(Bs)
    t_batched = (time.perf_counter() - t0) / N_REQUESTS

    # all four regimes agree bit-for-bit (cold ran a different request
    # index, so recompute its reference on the shared plan)
    assert np.array_equal(
        cold, execute_tiled_reference(p.tc_plan, Bs[N_COLD - 1])
    ), name
    assert np.array_equal(prepared.view(np.uint32), cached.view(np.uint32)), name
    assert np.array_equal(batched[-1], prepared), name
    return {
        "dataset": name,
        "n_rows": A.n_rows,
        "nnz": A.nnz,
        "cold_s": t_cold,
        "cached_s": t_cached,
        "prepared_s": t_prepared,
        "batched_s": t_batched,
        "exec": p.stats["executor"],
    }


def hotpath_comparison():
    return [bench_dataset(name) for name in DATASETS]


def render(rows):
    lines = [
        "Steady-state multiply throughput "
        f"(N={FEATURE_DIM}, {N_REQUESTS} requests; per-request ms)",
        "prepared = plan-cached + compiled executor (bit-for-bit equal "
        "to cached)",
        "",
        f"{'dataset':>8} {'rows':>7} {'nnz':>8} {'cold':>9} {'cached':>8} "
        f"{'prepared':>8} {'batched':>8} {'prep/cached':>11}",
    ]
    for r in rows:
        lines.append(
            f"{r['dataset']:>8} {r['n_rows']:>7} {r['nnz']:>8} "
            f"{r['cold_s']*1e3:>9.1f} {r['cached_s']*1e3:>8.1f} "
            f"{r['prepared_s']*1e3:>8.1f} {r['batched_s']*1e3:>8.1f} "
            f"{r['cached_s']/r['prepared_s']:>10.2f}x"
        )
    lines.append("")
    for r in rows:
        lines.append(f"{r['dataset']} executor: {r['exec']}")
    return "\n".join(lines) + "\n"


def test_exec_hotpath_throughput(benchmark):
    from _common import dump, once

    rows = once(benchmark, hotpath_comparison)
    for r in rows:
        # the executor must beat the per-call reference path outright,
        # and on every dataset; the headline DD speedup is recorded in
        # the dumped table
        assert r["prepared_s"] < r["cached_s"], r["dataset"]
        assert r["batched_s"] < r["cached_s"], r["dataset"]
    dump("exec_hotpath", render(rows))


# ----------------------------------------------------------------------
# CI perf smoke: structural "prepared does less work" guard
# ----------------------------------------------------------------------
def smoke():
    from repro.sparse.convert import coo_to_csr
    from repro.sparse.random import erdos_renyi

    A = coo_to_csr(erdos_renyi(2048, avg_degree=8.0, seed=3))
    B = np.random.default_rng(5).uniform(-1, 1, (A.n_cols, 32)).astype(
        np.float32
    )
    p = plan(A, feature_dim=32)
    p.prepare()
    prepared_out = p.multiply(B)
    reference_out = execute_tiled_reference(p.tc_plan, B)
    assert np.array_equal(
        prepared_out.view(np.uint32), reference_out.view(np.uint32)
    ), "prepared executor diverged from the reference path"

    # forced multi-chunk exact programs: later chunks add into the rows
    # of the windows earlier chunks opened
    bpc = 64
    chunked = plan(A, feature_dim=32)
    chunked.tc_plan.meta["exec_chunk_elems"] = (
        bpc * chunked.tc_plan.tiling.block_cols * 32
    )
    chunked_out = chunked.multiply(B)
    chunked_ref = execute_tiled_reference(
        chunked.tc_plan, B, blocks_per_chunk=bpc
    )
    n_chunks = len(chunked.executor._programs[bpc])
    assert n_chunks >= 3, n_chunks
    assert np.array_equal(
        chunked_out.view(np.uint32), chunked_ref.view(np.uint32)
    ), "multi-chunk executor diverged from the chunked reference path"
    print(f"perf smoke: {n_chunks}-chunk exact multiply bit for bit")

    def best_of(fn, repeats=5, calls=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_ref = best_of(lambda: execute_tiled_reference(p.tc_plan, B))
    t_prep = best_of(lambda: p.multiply(B))
    print(
        f"perf smoke: reference {t_ref*1e3:.2f} ms, "
        f"prepared {t_prep*1e3:.2f} ms ({t_ref/t_prep:.2f}x)"
    )
    assert t_prep <= t_ref, (
        f"prepared path ({t_prep*1e3:.2f} ms) slower than unprepared "
        f"({t_ref*1e3:.2f} ms)"
    )
    print("perf smoke: OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        rows = hotpath_comparison()
        print(render(rows))
        from _common import dump

        dump("exec_hotpath", render(rows))
