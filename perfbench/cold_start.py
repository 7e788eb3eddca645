"""cold-start: new matrices reach a new worker, then a warm worker.

One thread, in-process.  Cold phase: a fresh ``SpMMEngine`` over an
empty ``PlanStore`` serves one width-64 request per matrix of a seeded
stream of distinct matrices (five families, 1.5k-4.5k rows); each
request runs fingerprint, store miss, reorder, tiling + BitTCF,
schedule, executor compile, persist and multiply.  Warm phase, repeated
until the run's time is up: a new engine and store handle on the same
directory runs ``warm_start()`` and serves the same requests.  The
reorder is nearly all of a cold first result and absent everywhere
else; the store is written in one phase and read in the other.
"""

from __future__ import annotations

import gc
import tempfile
import time

import numpy as np

from common import Tally, digest, engine_deltas, median, peak_rss_mb, tail
from inputs import cold_stream, sub_seed

#: warm-phase repeats even when the cold phase used up the time
MIN_WARM_REPEATS = 3


def run(seed: int, seconds: float, tracer, yard, workdir: str) -> dict:
    from repro import PlanStore, SpMMEngine
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.fingerprint import fingerprint

    stream = cold_stream(seed)
    Bs = [
        np.random.default_rng(sub_seed(seed, 20, i))
        .standard_normal((A.n_cols, 64))
        .astype(np.float32)
        for i, (_, A) in enumerate(stream)
    ]
    capacity = 2 * len(stream)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
    tally = Tally()
    start = time.perf_counter()

    # cold phase: every request is a store miss and a full build
    engine = SpMMEngine(capacity=capacity, store=PlanStore(store_dir))
    cold_ms, rel, cold_digests, timed_ops = [], [], {}, []
    for i, (label, A) in enumerate(stream):
        try:
            with tracer.op("cold") as op:
                t0 = time.perf_counter()
                C = engine.spmm(A, Bs[i])
                dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            tally.error(exc)
            continue
        timed_ops.append(op)
        cold_ms.append(dt * 1e3)
        tally.ok()
        plan = engine.lookup(fingerprint(A))
        ref = execute_tiled_reference(plan.tc_plan, Bs[i])
        if C.tobytes() != ref.tobytes():
            tally.mismatch("exact_vs_reference")
        cold_digests[label] = digest(C)
        yard.sample()
        rel.append(cold_ms[-1] / yard.samples_ms[-1])
    counters = engine_deltas({}, engine.stats)
    del engine
    gc.collect()

    # warm phase: a new worker on the same store, repeated
    setup_s, warm_ms = [], []
    repeats = 0
    while repeats < MIN_WARM_REPEATS or time.perf_counter() - start < seconds:
        with tracer.op("warm_start") as op:
            t0 = time.perf_counter()
            worker = SpMMEngine(capacity=capacity, store=PlanStore(store_dir))
            loaded = worker.warm_start()
            setup_s.append(time.perf_counter() - t0)
        timed_ops.append(op)
        if loaded != len(cold_digests):
            tally.mismatch("warm_start_loaded")
        first_ms = []
        for i, (label, A) in enumerate(stream):
            try:
                with tracer.op("warm") as op:
                    t0 = time.perf_counter()
                    C = worker.spmm(A, Bs[i])
                    dt = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                tally.error(exc)
                continue
            timed_ops.append(op)
            first_ms.append(dt * 1e3)
            tally.ok()
            if cold_digests.get(label) != digest(C):
                tally.mismatch("warm_vs_cold")
        if worker.stats["plans_built"] != 0:
            tally.mismatch("warm_worker_built_plans")
        warm_ms.append(sum(first_ms) / len(first_ms))
        del worker
        gc.collect()  # one worker at a time, so peak_rss_mb repeats
        yard.sample()
        repeats += 1

    p90, v90 = tail(cold_ms, 90.0)
    p99, v99 = tail(cold_ms, 99.0)
    p50 = median(cold_ms)
    n = len(cold_ms)
    return {
        "e2e": {
            "latency_ms_p50": p50,
            "latency_ms_p90": v90,
            "latency_ms_p99": v99,
            "latency_rel_p50": median(rel),
            "ops_per_s": n / (sum(cold_ms) / 1e3),
            "warm_ms_p50": median(warm_ms),
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": tally.ok_share,
        },
        "notes": {
            "latency_ms_p50": f"cold first result, n={n}",
            "latency_ms_p90": f"cold first result p{p90:g}, n={n}",
            "latency_ms_p99": f"cold first result p{p99:g}, n={n}",
            "latency_rel_p50": "cold first result / the yardstick timed right after it",
            "ops_per_s": "cold first results per second of request time",
            "warm_ms_p50": f"mean first result after warm_start, {len(warm_ms)} repeats",
            "setup_s": f"new worker's warm_start(), n={len(setup_s)}",
        },
        "tally": tally,
        "digests": cold_digests,
        "timed_ops": timed_ops,
        "counters": counters,
    }
