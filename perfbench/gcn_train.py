"""gcn-train: a two-layer GCN trained over the GCN-normalised DD twin.

Closed loop, one thread, in-process, one ``SpMMEngine`` at the ``exact``
tier.  One operation is one epoch: the forward pass multiplies at
widths 64 and 16, the backward pass at 16 and 64, each time with the
activations that epoch produced, around the small dense transforms.
Whole epochs are timed — single SpMMs at the two widths would mix two
modes into one median.  The steady-state executor does most of the
work, fingerprinting is about a tenth of it, and the reorder runs only
in set-up.
"""

from __future__ import annotations

import time

import numpy as np

from common import Tally, digest, engine_deltas, median, peak_rss_mb, tail
from inputs import dd_twin, sub_seed

HIDDEN, CLASSES = 64, 16
#: every this-many-th epoch is checked bit-for-bit against the reference
CHECK_EVERY = 32


def _softmax(o: np.ndarray) -> np.ndarray:
    e = np.exp(o - o.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class _Model:
    def __init__(self, seed: int, n: int) -> None:
        rng = np.random.default_rng(sub_seed(seed, 10))
        self.X = rng.standard_normal((n, HIDDEN)).astype(np.float32)
        labels = rng.integers(0, CLASSES, size=n)
        self.Y = np.eye(CLASSES, dtype=np.float32)[labels]
        self.W1 = (rng.standard_normal((HIDDEN, HIDDEN)) * 0.1).astype(np.float32)
        self.W2 = (rng.standard_normal((HIDDEN, CLASSES)) * 0.1).astype(np.float32)
        self.lr = np.float32(1.0)

    def epoch(self, engine, A, tracer, spmm64_ms: list) -> list:
        """One training epoch; returns its four ``(B, C)`` SpMM pairs and
        appends the latency of its two width-64 SpMMs to ``spmm64_ms``."""
        n = A.n_rows
        with tracer.region("gcn.dense"):
            Z1 = self.X @ self.W1
        H1pre = _timed_spmm(engine, A, Z1, spmm64_ms)
        with tracer.region("gcn.dense"):
            H1 = np.maximum(H1pre, np.float32(0.0))
            Z2 = H1 @ self.W2
        O = engine.spmm(A, Z2)
        with tracer.region("gcn.dense"):
            G_O = (_softmax(O) - self.Y) / np.float32(n)
        # A is symmetric, so A^T @ G is served by the same plan
        G_Z2 = engine.spmm(A, G_O)
        with tracer.region("gcn.dense"):
            dW2 = H1.T @ G_Z2
            G_H1 = (G_Z2 @ self.W2.T) * (H1pre > 0)
        G_Z1 = _timed_spmm(engine, A, G_H1, spmm64_ms)
        with tracer.region("gcn.dense"):
            dW1 = self.X.T @ G_Z1
            self.W1 -= self.lr * dW1
            self.W2 -= self.lr * dW2
        return [(Z1, H1pre), (Z2, O), (G_O, G_Z2), (G_H1, G_Z1)]


def _timed_spmm(engine, A, B, log: list):
    t0 = time.perf_counter()
    C = engine.spmm(A, B)
    log.append((time.perf_counter() - t0) * 1e3)
    return C


def _setup(A, B64, B16, tracer, setup_s: list):
    """Empty engine -> both widths compiled; appends the seconds taken."""
    from repro import SpMMEngine

    with tracer.op("setup"):
        t0 = time.perf_counter()
        engine = SpMMEngine(numerics="exact")
        engine.spmm(A, B64)
        engine.spmm(A, B16)
        setup_s.append(time.perf_counter() - t0)
    return engine


def run(seed: int, seconds: float, tracer, setups: int, yard) -> dict:
    from repro.kernels.tc_common import execute_tiled_reference
    from repro.serve.fingerprint import fingerprint

    A = dd_twin(seed)
    model = _Model(seed, A.n_rows)
    B64 = model.X @ model.W1
    B16 = np.ascontiguousarray(B64[:, :CLASSES])
    tally = Tally()

    # set-up, median over repeats: the first builds the training engine;
    # the others, on throwaway engines, are spread evenly over the timed
    # phase (between epochs, outside their timing), so the median samples
    # the host's speed across the run rather than over one few-second
    # stretch of it
    setup_s = []
    engine = _setup(A, B64, B16, tracer, setup_s)
    plan = engine.lookup(fingerprint(A))
    before = engine.stats

    epoch_ms, spmm64_ms, rel, digests, timed_ops = [], [], [], {}, []
    start = time.perf_counter()
    e = 0
    while (now := time.perf_counter() - start) < seconds:
        if now >= len(setup_s) * seconds / setups:
            _setup(A, B64, B16, tracer, setup_s)
            continue
        try:
            with tracer.op("epoch") as op:
                t0 = time.perf_counter()
                pairs = model.epoch(engine, A, tracer, spmm64_ms)
                dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            tally.error(exc)
            break
        timed_ops.append(op)
        epoch_ms.append(dt * 1e3)
        tally.ok()
        if e % CHECK_EVERY == 0:
            for k, (B, C) in enumerate(pairs):
                ref = execute_tiled_reference(plan.tc_plan, B)
                if C.dtype != ref.dtype or C.tobytes() != ref.tobytes():
                    tally.mismatch("exact_vs_reference")
                digests[f"epoch{e}.{k}"] = digest(C)
        yard.sample()
        rel.append(epoch_ms[-1] / yard.samples_ms[-1])
        e += 1
    after = engine.stats

    p90, v90 = tail(epoch_ms, 90.0)
    p99, v99 = tail(epoch_ms, 99.0)
    p50 = median(epoch_ms)
    n = len(epoch_ms)
    return {
        "e2e": {
            "latency_ms_p50": p50,
            "latency_ms_p90": v90,
            "latency_ms_p99": v99,
            "latency_rel_p50": median(rel),
            "ops_per_s": 4 * n / (sum(epoch_ms) / 1e3),
            "warm_ms_p50": median(spmm64_ms),
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": tally.ok_share,
        },
        "notes": {
            "latency_ms_p50": f"epoch, n={n}",
            "latency_ms_p90": f"epoch p{p90:g}, n={n}",
            "latency_ms_p99": f"epoch p{p99:g}, n={n}",
            "ops_per_s": "SpMMs per second of epoch time",
            "latency_rel_p50": "epoch / the yardstick timed right after it",
            "warm_ms_p50": f"width-64 SpMM inside the timed epochs, n={len(spmm64_ms)}",
            "setup_s": f"empty engine -> both widths compiled, n={len(setup_s)}",
        },
        "tally": tally,
        "digests": digests,
        "timed_ops": timed_ops,
        "counters": engine_deltas(before, after),
    }

