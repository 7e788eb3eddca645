"""Autotuned plans vs the untuned paper default, per numerics tier.

The tentpole claim of :mod:`repro.tune`: a plan tuned per matrix
(tile shape + kernel + exec strategy from sparsity stats and the gpusim
cost model) and served at the ``fast`` tier beats the untuned ``exact``
baseline on dense-ish matrices, while ``exact`` itself stays bit-for-bit
identical to the seed path whether or not the tuner ran.

Arms, per matrix (steady-state multiply, plan/tune cost excluded — it is
the one-time cost :class:`~repro.serve.store.PlanStore` amortises):

* **untuned-exact** — the seed behaviour: paper-default config, exact
  tier (the baseline every other arm is normalised against);
* **tuned-exact** — autotuned geometry/kernel, still bit-for-bit;
* **tuned-fast** — autotuned plan at the ``fast`` tier (fused dense
  chunks, no TF32 input rounding) — the headline arm;
* **kernel arms** — each kernel forced on the tuner's geometry, showing
  what the kernel choice alone is worth.

``python bench_autotune.py --smoke`` is the CI guard: on a dense-band
synthetic, autotuned-``fast`` must be >= 1.2x the untuned-``exact``
throughput, and ``exact``-on-tuned-plan must agree bit-for-bit with the
reference path (tuning must never change exact numerics).
"""

import sys
import time

import numpy as np

from repro.core import plan
from repro.kernels.tc_common import execute_tiled_reference
from repro.sparse.convert import coo_to_csr
from repro.sparse.datasets import load_dataset
from repro.sparse.random import banded_matrix
from repro.tune import TunedConfig, autotune
from repro.tune.space import KERNELS

FEATURE_DIM = 64
REPEATS = 5
CALLS = 3

#: 1.2x in CI (shared-runner noise headroom); the full run's dense-ish
#: matrices clear the issue's 1.5x target, recorded in the results dump
SMOKE_SPEEDUP = 1.2


def dense_synth():
    """Dense-banded synthetic: the fused strategy's best case."""
    return coo_to_csr(banded_matrix(4096, bandwidth=48, fill=0.9, seed=7))


def _b_for(A, seed=11):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, (A.n_cols, FEATURE_DIM)).astype(np.float32)


def best_of(fn, repeats=REPEATS, calls=CALLS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def bench_matrix(name, A):
    B = _b_for(A)
    tuned_cfg = autotune(A, feature_dim=FEATURE_DIM)

    p_untuned = plan(A, feature_dim=FEATURE_DIM)
    p_tuned = plan(A, feature_dim=FEATURE_DIM, tuned=tuned_cfg)

    # warm every executor outside the timed region (steady state)
    baseline = p_untuned.multiply(B)
    tuned_exact = p_tuned.multiply(B)
    p_tuned.multiply(B, numerics="fast")

    # tuning must never change exact numerics: both plans match their
    # own reference path bit-for-bit
    assert np.array_equal(
        baseline.view(np.uint32),
        execute_tiled_reference(p_untuned.tc_plan, B).view(np.uint32),
    ), name
    assert np.array_equal(
        tuned_exact.view(np.uint32),
        execute_tiled_reference(p_tuned.tc_plan, B).view(np.uint32),
    ), name

    row = {
        "matrix": name,
        "n_rows": A.n_rows,
        "nnz": A.nnz,
        "tuned": f"{tuned_cfg.kernel}@"
        f"{tuned_cfg.window_rows}x{tuned_cfg.block_cols}"
        + ("+fused" if tuned_cfg.fused else ""),
        "untuned_exact_s": best_of(lambda: p_untuned.multiply(B)),
        "tuned_exact_s": best_of(lambda: p_tuned.multiply(B)),
        "tuned_fast_s": best_of(
            lambda: p_tuned.multiply(B, numerics="fast")
        ),
    }
    # per-kernel arms on the tuner's geometry: the kernel choice alone
    for kernel in KERNELS:
        cfg = TunedConfig(
            window_rows=tuned_cfg.window_rows,
            block_cols=tuned_cfg.block_cols,
            kernel=kernel,
            fused=tuned_cfg.fused,
        )
        pk = plan(A, feature_dim=FEATURE_DIM, tuned=cfg)
        pk.multiply(B, numerics="fast")  # warm
        row[f"{kernel}_fast_s"] = best_of(
            lambda: pk.multiply(B, numerics="fast")
        )
    row["speedup_fast"] = row["untuned_exact_s"] / row["tuned_fast_s"]
    return row


def full_run():
    matrices = [
        ("DD", load_dataset("DD")),
        ("rCA", load_dataset("rCA")),
        ("band4k", dense_synth()),
    ]
    return [bench_matrix(name, A) for name, A in matrices]


def render(rows):
    lines = [
        "Autotuned vs untuned steady-state multiply "
        f"(N={FEATURE_DIM}, best of {REPEATS}x{CALLS}; per-call ms)",
        "tuned-fast = autotuned plan at the fast tier "
        "(fused chunks, no TF32 input rounding)",
        "",
        f"{'matrix':>8} {'rows':>7} {'nnz':>9} {'tuned':>16} "
        f"{'untuned':>8} {'tu-exact':>8} {'tu-fast':>8} "
        + " ".join(f"{k:>8}" for k in KERNELS)
        + f" {'speedup':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['matrix']:>8} {r['n_rows']:>7} {r['nnz']:>9} "
            f"{r['tuned']:>16} "
            f"{r['untuned_exact_s']*1e3:>8.2f} "
            f"{r['tuned_exact_s']*1e3:>8.2f} "
            f"{r['tuned_fast_s']*1e3:>8.2f} "
            + " ".join(
                f"{r[f'{k}_fast_s']*1e3:>8.2f}" for k in KERNELS
            )
            + f" {r['speedup_fast']:>7.2f}x"
        )
    return "\n".join(lines) + "\n"


def test_autotune_speedup(benchmark):
    from _common import dump, once

    rows = once(benchmark, full_run)
    by_name = {r["matrix"]: r for r in rows}
    # the issue's acceptance bar: >= 1.5x on at least one dense-ish
    # matrix (the banded synthetic is built to clear it)
    assert by_name["band4k"]["speedup_fast"] >= 1.5, by_name["band4k"]
    # tuning never makes the exact tier slower than ~noise
    for r in rows:
        assert r["tuned_exact_s"] <= r["untuned_exact_s"] * 1.25, r
    dump("autotune", render(rows))


# ----------------------------------------------------------------------
# CI perf smoke
# ----------------------------------------------------------------------
def smoke():
    A = dense_synth()
    B = _b_for(A)
    tuned_cfg = autotune(A, feature_dim=FEATURE_DIM)
    p_untuned = plan(A, feature_dim=FEATURE_DIM)
    p_tuned = plan(A, feature_dim=FEATURE_DIM, tuned=tuned_cfg)

    exact_untuned = p_untuned.multiply(B)  # warm + baseline output
    exact_tuned = p_tuned.multiply(B)
    p_tuned.multiply(B, numerics="fast")  # warm the fast executor

    # exact stays exact: both plans match their reference bit-for-bit
    for p, out in ((p_untuned, exact_untuned), (p_tuned, exact_tuned)):
        assert np.array_equal(
            out.view(np.uint32),
            execute_tiled_reference(p.tc_plan, B).view(np.uint32),
        ), "exact tier diverged from the reference path"

    t_untuned = best_of(lambda: p_untuned.multiply(B))
    t_fast = best_of(lambda: p_tuned.multiply(B, numerics="fast"))
    speedup = t_untuned / t_fast
    print(
        f"autotune smoke [{tuned_cfg.kernel}@{tuned_cfg.window_rows}x"
        f"{tuned_cfg.block_cols} fused={tuned_cfg.fused}]: "
        f"untuned-exact {t_untuned*1e3:.2f} ms, "
        f"tuned-fast {t_fast*1e3:.2f} ms ({speedup:.2f}x)"
    )
    assert speedup >= SMOKE_SPEEDUP, (
        f"autotuned fast path only {speedup:.2f}x over untuned exact "
        f"(need >= {SMOKE_SPEEDUP}x)"
    )
    # and the exact tier is within noise of the seed path on the same
    # tuned plan (tuning must not tax callers who stay exact)
    t_exact_tuned = best_of(lambda: p_tuned.multiply(B))
    assert t_exact_tuned <= t_untuned * 1.25, (
        f"exact-on-tuned ({t_exact_tuned*1e3:.2f} ms) off the seed path "
        f"({t_untuned*1e3:.2f} ms) by more than noise"
    )
    print("autotune smoke: OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        rows = full_run()
        print(render(rows))
        from _common import dump

        dump("autotune", render(rows))
