"""Streaming structural deltas: window-local patching vs full replan.

The streaming path's acceptance bar: for a small edit batch,
:meth:`~repro.core.planner.AccPlan.apply_delta` must beat planning the
edited matrix from scratch by a wide margin — the patch re-tiles only
the touched RowWindows and skips the data-affinity reorder and the
global nnz sort that dominate plan cost — while staying **bit-for-bit**
identical to a fresh plan built with the base plan's reordering pinned
(same tiling arrays, packed values, TB schedule, and multiply bits).

A store arm measures what persisting derived plans costs and buys,
through the public API alone (``SpMMEngine(store=)``, ``apply_delta``,
``PlanStore``): an engine persists a base plan and 5 successive 8-edit
derived plans, the arm records each derived entry's write time and
bytes, and a new ``PlanStore`` handle then times loads of the base and
of the depth-5 plan (median of 7, after one untimed load each).  The
depth-5 plan must multiply bit-for-bit and load within 3x of the base.

Two entry points:

* the pytest-benchmark experiment (DD dataset, edit batches of several
  sizes, then the store arm) dumps the full tables to
  ``results/streaming.txt``;
* ``python bench_streaming.py --smoke`` is the CI guard: a power-law
  synthetic, one small edit batch, asserting the >= 5x floor and exact
  equality, then the store arm and its 3x load ceiling.
"""

import statistics
import sys
import tempfile
import time

import numpy as np

import repro
from repro.kernels.tc_common import execute_tiled
from repro.sparse.convert import coo_to_csr
from repro.sparse.datasets import load_dataset
from repro.sparse.delta import GraphDelta
from repro.sparse.random import powerlaw_graph

from _common import dump, once

FEATURE_DIM = 64
SPEEDUP_FLOOR = 5.0
#: the store arm: successive derived plans, edits per delta, timed loads
STORE_DEPTH = 5
STORE_EDITS = 8
LOAD_REPEATS = 7
#: the deepest derived plan must load within this factor of its base
LOAD_RATIO_CEILING = 3.0


def _b_for(A, seed=23):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (A.n_cols, FEATURE_DIM)).astype(np.float32)


def small_edits(A, n_edits, seed=7):
    """An edit batch of ``n_edits`` upserts plus one real deletion,
    clustered so only a handful of RowWindows go dirty."""
    rng = np.random.default_rng(seed)
    row0 = int(rng.integers(0, max(1, A.n_rows - 64)))
    added = [
        (row0 + int(rng.integers(64)), int(rng.integers(A.n_cols)),
         float(rng.uniform(0.2, 1.0)))
        for _ in range(n_edits)
    ]
    removed = None
    for r in range(row0, min(row0 + 64, A.n_rows)):
        lo, hi = int(A.indptr[r]), int(A.indptr[r + 1])
        if hi > lo:
            removed = [(r, int(A.indices[lo]))]
            break
    return GraphDelta.from_edges(added=added, removed=removed)


def pinned_fresh(base, new_csr):
    """A from-scratch plan with ``base``'s reordering pinned — the
    reference ``apply_delta`` promises bit-equality with."""
    opts = dict(base.kernel.options)
    opts["reorder"] = base.tc_plan.reorder
    return type(base.kernel)(**opts).plan(
        new_csr, base.feature_dim, base.device
    )


def check_bitwise(patched, fresh_tc, B):
    tp, tf = patched.tc_plan.tiling, fresh_tc.tiling
    for name in type(tp).ARRAY_FIELDS:
        assert np.array_equal(getattr(tp, name), getattr(tf, name)), name
    assert (
        patched.tc_plan.vals_packed.tobytes() == fresh_tc.vals_packed.tobytes()
    )
    sp, sf = patched.tc_plan.schedule, fresh_tc.schedule
    assert np.array_equal(sp.tb_start, sf.tb_start)
    assert np.array_equal(sp.tb_end, sf.tb_end)
    assert np.array_equal(
        patched.multiply(B).view(np.uint32),
        execute_tiled(fresh_tc, B).view(np.uint32),
    ), "patched plan diverged from the pinned fresh plan"


def patch_vs_replan(A, delta, B):
    """One comparison: returns patch/replan seconds, verified exact."""
    base = repro.plan(A, feature_dim=FEATURE_DIM)
    t0 = time.perf_counter()
    patched = base.apply_delta(delta)
    t_patch = time.perf_counter() - t0
    new_csr = delta.apply_to(A)
    # the arm a deltaless deployment pays: full replan, reorder included
    t0 = time.perf_counter()
    replanned = repro.plan(new_csr, feature_dim=FEATURE_DIM)
    t_replan = time.perf_counter() - t0
    assert replanned.csr.nnz == patched.csr.nnz
    check_bitwise(patched, pinned_fresh(base, new_csr), B)
    return t_patch, t_replan


class _TimedWrites:
    """A plan-store handle that adds up the time of every ``put*`` call
    made through it, so the arm times persistence apart from the
    patch."""

    def __init__(self, store):
        self._store = store
        self.seconds = 0.0

    def __getattr__(self, name):
        attr = getattr(self._store, name)
        if not name.startswith("put"):
            return attr

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


def _median_load_s(store, fp, device, config):
    """Median time of ``store.get`` after one untimed load; returns
    ``(seconds, plan)``."""
    assert store.get(fp, device, config) is not None
    times = []
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        loaded = store.get(fp, device, config)
        times.append(time.perf_counter() - t0)
        assert loaded is not None
    return statistics.median(times), loaded


def store_arm(name, A, B):
    """Persist a base and ``STORE_DEPTH`` successive derived plans, then
    load the base and the deepest plan through a new store handle."""
    with tempfile.TemporaryDirectory(prefix="bench-streaming-") as root:
        writes = _TimedWrites(repro.PlanStore(root))
        eng = repro.SpMMEngine(store=writes)
        eng.spmm(A, B)  # builds and persists the base
        device, config = eng.default_device.name, eng.default_config
        base_fp = repro.fingerprint(A)
        fp, cur, puts = base_fp, A, []
        for depth in range(1, STORE_DEPTH + 1):
            before = writes.seconds
            fp, derived = eng.apply_delta(
                fp, small_edits(cur, STORE_EDITS, seed=depth)
            )
            path = writes.path_for(writes.digest(fp, device, config))
            puts.append({
                "depth": depth,
                "put_s": writes.seconds - before,
                "bytes": path.stat().st_size,
            })
            cur = derived.csr
        fresh = repro.PlanStore(root)
        base_s, _ = _median_load_s(fresh, base_fp, device, config)
        tip_s, tip = _median_load_s(fresh, fp, device, config)
        assert np.array_equal(
            tip.multiply(B).view(np.uint32),
            derived.multiply(B).view(np.uint32),
        ), "the stored depth-5 plan diverged from the one patched in memory"
    return {
        "matrix": name,
        "puts": puts,
        "base_load_s": base_s,
        "tip_load_s": tip_s,
        "ratio": tip_s / base_s,
    }


def check_store_arm(store):
    assert store["ratio"] <= LOAD_RATIO_CEILING, (
        f"depth-{STORE_DEPTH} plan loads in {store['tip_load_s']*1e3:.2f} ms, "
        f"{store['ratio']:.1f}x its base's {store['base_load_s']*1e3:.2f} ms "
        f"(need <= {LOAD_RATIO_CEILING}x)"
    )


def full_run():
    A = load_dataset("DD")
    B = _b_for(A)
    # the process's first patch carries one-time warm-up (on DD ~24 ms
    # against ~7 ms for a repeat): run one untimed, so the 1-edit row
    # times the patch itself
    repro.plan(A, feature_dim=FEATURE_DIM).apply_delta(small_edits(A, 1))
    rows = []
    for n_edits in (1, 8, 64):
        t_patch, t_replan = patch_vs_replan(A, small_edits(A, n_edits), B)
        rows.append({
            "matrix": "DD",
            "n_edits": n_edits,
            "patch_s": t_patch,
            "replan_s": t_replan,
            "speedup": t_replan / t_patch,
        })
    return rows, store_arm("DD", A, B)


def render_store(store):
    out = [
        f"Plan store: a base and {STORE_DEPTH} successive {STORE_EDITS}-edit "
        "derived plans through SpMMEngine(store=...); loads through a new "
        f"PlanStore handle (median of {LOAD_REPEATS} after one untimed load)",
        f"{'matrix':>8} {'depth':>6} {'put ms':>10} {'bytes':>10}",
    ]
    for r in store["puts"]:
        out.append(
            f"{store['matrix']:>8} {r['depth']:>6} {r['put_s']*1e3:>10.2f} "
            f"{r['bytes']:>10}"
        )
    out.append(
        f"{'matrix':>8} {'base load ms':>13} "
        f"{f'depth-{STORE_DEPTH} load ms':>16} {'ratio':>7}"
    )
    out.append(
        f"{store['matrix']:>8} {store['base_load_s']*1e3:>13.2f} "
        f"{store['tip_load_s']*1e3:>16.2f} {store['ratio']:>6.2f}x"
    )
    return "\n".join(out) + "\n"


def render(rows):
    out = [
        f"Streaming deltas: window-local patch vs full replan "
        f"(N={FEATURE_DIM}; patched plans verified bit-for-bit against "
        "pinned-reorder fresh plans)",
        f"{'matrix':>8} {'edits':>6} {'patch ms':>10} {'replan ms':>10} "
        f"{'speedup':>8}",
    ]
    for r in rows:
        out.append(
            f"{r['matrix']:>8} {r['n_edits']:>6} {r['patch_s']*1e3:>10.2f} "
            f"{r['replan_s']*1e3:>10.2f} {r['speedup']:>7.1f}x"
        )
    return "\n".join(out) + "\n"


def test_streaming_delta_speedup(benchmark):
    rows, store = once(benchmark, full_run)
    for r in rows:
        assert r["speedup"] >= SPEEDUP_FLOOR, (
            f"{r['n_edits']}-edit patch only {r['speedup']:.1f}x over "
            f"full replan (need >= {SPEEDUP_FLOOR}x)"
        )
    check_store_arm(store)
    dump("streaming", render(rows) + "\n" + render_store(store))


# ----------------------------------------------------------------------
# CI perf smoke
# ----------------------------------------------------------------------
def smoke():
    A = coo_to_csr(powerlaw_graph(8000, avg_degree=8.0, seed=3))
    B = _b_for(A)
    t_patch, t_replan = patch_vs_replan(A, small_edits(A, 8), B)
    speedup = t_replan / t_patch
    print(
        f"streaming smoke: patch {t_patch*1e3:.2f} ms, "
        f"full replan {t_replan*1e3:.2f} ms ({speedup:.1f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"delta patch only {speedup:.1f}x over full replan "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )
    store = store_arm("powerlaw", A, B)
    print(render_store(store), end="")
    check_store_arm(store)
    print("streaming smoke: OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        rows, store = full_run()
        text = render(rows) + "\n" + render_store(store)
        print(text)
        check_store_arm(store)
        dump("streaming", text)
