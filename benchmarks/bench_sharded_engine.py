"""Sharded vs single-lock serving under a 16-thread mixed-tenant load.

The scaling question behind ``repro.serve.sharded``: when concurrent
tenants hammer one process, what does partitioning the plan cache across
shards (each with its own lock and LRU) buy over the naive thread-safe
deployment — a single :class:`~repro.serve.engine.SpMMEngine` with one
big lock around every request?

Three arms serve the *identical* request schedule — 16 threads, each a
tenant with its own working set drawn from a shared pool of matrices,
plans prewarmed so steady-state throughput is measured:

* **single-locked** — one engine, one global request lock: requests
  serialize end to end (cache lookup *and* multiply).  The baseline a
  cautious deployment starts from.
* **single-unlocked** — one engine used concurrently (its internal lock
  only guards cache state; multiplies overlap).
* **sharded** — :class:`~repro.serve.sharded.ShardedSpMMEngine` with
  ``n_shards`` per-shard engines; neither locks nor LRU state shared
  across shards.

All arms must produce bit-for-bit identical results, and the
mixed-tenant phase must report exactly one plan build per distinct
matrix (the coalescing guarantee under simultaneous misses).

The throughput ratio depends on available cores: the multiply path
releases the GIL inside numpy, so on a multi-core host the unserialized
arms overlap real work and the sharded engine clears the >= 2x
acceptance floor against the locked baseline.  On fewer than 4 cores
there is no parallelism to harvest — every arm time-slices one CPU, and
*any* concurrent arm pays a GIL-switching tax the serialized baseline
does not — so the assertion degrades to "sharding costs nothing versus
the same concurrency unsharded" (sharded >= 0.85x single-unlocked), and
the results file records the core count alongside the numbers.

Under pytest the bench only prints its table, so a test run leaves the
work tree clean; run as a script (``python
benchmarks/bench_sharded_engine.py``) it also rewrites the tracked
``results/sharded_engine.txt``.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve import ShardedSpMMEngine, SpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import erdos_renyi, powerlaw_graph

from _common import dump, once

N_THREADS = 16
N_SHARDS = 4
FEATURE_DIM = 64
REQUESTS_PER_THREAD = 12


def make_workload():
    """A mixed-tenant matrix pool plus per-thread request schedules."""
    mats = [
        coo_to_csr(erdos_renyi(1024, avg_degree=16.0, seed=s))
        for s in range(4)
    ] + [
        coo_to_csr(powerlaw_graph(1024, avg_degree=12.0, seed=40 + s))
        for s in range(4)
    ]
    rng = np.random.default_rng(7)
    Bs = [
        rng.uniform(-1.0, 1.0, (m.n_cols, FEATURE_DIM)).astype(np.float32)
        for m in mats
    ]
    # every tenant favours 3 of the 8 matrices (overlapping working sets)
    schedules = []
    for tid in range(N_THREADS):
        favourites = [(tid + k) % len(mats) for k in range(3)]
        r = np.random.default_rng(100 + tid)
        schedules.append(
            [int(r.choice(favourites)) for _ in range(REQUESTS_PER_THREAD)]
        )
    return mats, Bs, schedules


def run_arm(engine, mats, Bs, schedules, lock=None, refs=None):
    """Drive the 16-thread schedule; returns (wall_seconds, mismatches)."""
    barrier = threading.Barrier(N_THREADS)
    mismatches = []

    def worker(tid):
        barrier.wait()
        for i in schedules[tid]:
            if lock is not None:
                with lock:
                    C = engine.spmm(mats[i], Bs[i], tenant=None) \
                        if isinstance(engine, ShardedSpMMEngine) \
                        else engine.spmm(mats[i], Bs[i])
            elif isinstance(engine, ShardedSpMMEngine):
                C = engine.spmm(mats[i], Bs[i], tenant=f"tenant-{tid}")
            else:
                C = engine.spmm(mats[i], Bs[i])
            if refs is not None and not np.array_equal(C, refs[i]):
                mismatches.append((tid, i))

    t0 = time.perf_counter()
    with ThreadPoolExecutor(N_THREADS) as pool:
        list(pool.map(worker, range(N_THREADS)))
    return time.perf_counter() - t0, mismatches


def sharded_engine_comparison():
    mats, Bs, schedules = make_workload()
    total_requests = sum(len(s) for s in schedules)

    # the bit-for-bit oracle: one unsharded engine, single-threaded
    oracle = SpMMEngine(capacity=len(mats))
    refs = [oracle.spmm(m, B) for m, B in zip(mats, Bs)]

    # cold mixed-tenant phase on the sharded engine: simultaneous
    # misses must coalesce to exactly one build per matrix
    cold = ShardedSpMMEngine(n_shards=N_SHARDS, capacity=4 * len(mats))
    _, bad = run_arm(cold, mats, Bs, schedules, refs=refs)
    assert not bad, f"sharded results diverged: {bad[:3]}"
    cold_stats = cold.stats
    assert cold_stats["plans_built"] == len(mats), (
        f"expected exactly {len(mats)} builds, got "
        f"{cold_stats['plans_built']}"
    )

    arms = {}
    # single engine + one global lock around every request
    locked = SpMMEngine(capacity=len(mats))
    for m, B in zip(mats, Bs):
        locked.spmm(m, B)  # prewarm: steady-state throughput
    t, bad = run_arm(
        locked, mats, Bs, schedules, lock=threading.Lock(), refs=refs
    )
    assert not bad
    arms["single-locked"] = t

    # the same engine driven concurrently (internal locking only)
    unlocked = SpMMEngine(capacity=len(mats))
    for m, B in zip(mats, Bs):
        unlocked.spmm(m, B)
    t, bad = run_arm(unlocked, mats, Bs, schedules, refs=refs)
    assert not bad
    arms["single-unlocked"] = t

    # the sharded engine, already warm from the cold phase
    t, bad = run_arm(cold, mats, Bs, schedules, refs=refs)
    assert not bad
    arms["sharded"] = t

    return {
        "arms": arms,
        "total_requests": total_requests,
        "n_matrices": len(mats),
        "cold_stats": cold_stats,
        "warm_stats": cold.stats,
        "cpus": os.cpu_count() or 1,
    }


def check(r) -> None:
    """The core-count-aware throughput floor (see the module doc)."""
    arms = r["arms"]
    speedup = arms["single-locked"] / arms["sharded"]
    if r["cpus"] >= 4:
        # acceptance: with cores to harvest, sharding must at least
        # double the locked baseline's throughput
        assert speedup >= 2.0, (
            f"sharded only {speedup:.2f}x vs single-locked "
            f"on {r['cpus']} cpus"
        )
    else:
        # starved of cores every concurrent arm pays the same GIL tax;
        # sharding itself must cost nothing vs unsharded concurrency
        vs_unlocked = arms["single-unlocked"] / arms["sharded"]
        assert vs_unlocked >= 0.85, (
            f"sharded {vs_unlocked:.2f}x vs single-unlocked "
            f"(sharding overhead on {r['cpus']} cpu(s))"
        )


def render(r) -> str:
    arms, n = r["arms"], r["total_requests"]
    lines = [
        f"Sharded serving under a {N_THREADS}-thread mixed-tenant workload",
        f"({r['n_matrices']} matrices, N={FEATURE_DIM}, {n} requests, "
        f"{N_SHARDS} shards, {r['cpus']} cpu(s) available)",
        "",
        "steady-state wall clock per arm (identical request schedule):",
    ]
    for name, t in r["arms"].items():
        lines.append(
            f"  {name:16} {t * 1e3:9.1f} ms   {n / t:9.1f} req/s   "
            f"{arms['single-locked'] / t:5.2f}x vs locked"
        )
    ws = r["warm_stats"]
    lines += [
        "",
        f"mixed-tenant cold phase: plans_built={r['cold_stats']['plans_built']} "
        f"(= matrix count: simultaneous misses coalesced), "
        f"requests={r['cold_stats']['requests']}",
        f"warm sharded stats: hits={ws['hits']}, hit_rate={ws['hit_rate']}, "
        f"shards used={sum(1 for p in ws['per_shard'] if p['cached_plans'])}"
        f"/{N_SHARDS}, tenants tracked={len(ws['tenants'])}",
        "results bit-for-bit identical across all arms (asserted)",
        "",
        "note: the >=2x acceptance floor vs the locked baseline applies on",
        "hosts with >=4 cpus, where concurrent multiplies overlap inside",
        "numpy (the GIL is released).  With fewer cpus every concurrent",
        "arm pays a GIL-switching tax the serialized baseline avoids, so",
        "the asserted floor is sharded >= 0.85x single-unlocked (sharding",
        "itself costs nothing; the parallel win needs cores).",
        "",
    ]
    return "\n".join(lines)


def test_sharded_engine_throughput(benchmark):
    r = once(benchmark, sharded_engine_comparison)
    check(r)
    print(render(r))


if __name__ == "__main__":
    result = sharded_engine_comparison()
    check(result)
    text = render(result)
    print(text)
    print(f"wrote {dump('sharded_engine', text)}")
