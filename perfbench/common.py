"""Statistics, drift yardstick, outcome tally and result printing.

Everything here is plain Python + numpy so the harness tests can import
it without the library under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

#: percentiles a tail may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def supported_percentile(n: int, requested: float) -> float:
    """The highest ladder percentile <= ``requested`` that has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it.

    The median is the floor: it is reported even for tiny samples, so a
    workload with too few samples for any tail reports its median under
    the tail's name (the printed table names the percentile used).
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if p > requested:
            break
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail(values, requested: float) -> tuple[float, float]:
    """``(percentile used, value)`` of a tail under the 10-beyond rule."""
    p = supported_percentile(len(values), requested)
    return p, percentile(values, p)


def median(values) -> float:
    return percentile(values, 50.0)


class Tally:
    """Attempted and failed operations of one run.

    Every failure counts: a wrong result, an error response (retryable
    ones included — the client still did not get its answer) and a
    dropped request.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def error(self, exc: BaseException) -> None:
        """Count an operation that raised ``exc`` (any error is a failure;
        a server error is keyed by its code, retryable or not)."""
        code = getattr(exc, "code", None)
        self.fail(f"error:{code}" if code else f"error:{type(exc).__name__}")

    def mismatch(self, what: str) -> None:
        """A result checked after the fact turned out wrong: the operation
        was already counted as attempted, so only the failure is added."""
        self.failed += 1
        self.reasons[what] = self.reasons.get(what, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed_share


def digest(arr: np.ndarray) -> str:
    """Content hash of an array's dtype, shape and bytes (bitwise identity)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB: of this process, or of ``pid`` (read
    from its ``VmHWM`` while it is still running)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class Yardstick:
    """scipy's fp32 CSR SpMM of the DD twin at width 64.

    A fixed computation outside the library under test, timed between
    the workload's operations: when the host slows down, this slows
    with it, so ``latency_rel_p50`` (latency over this) separates host
    drift from program regressions.  The matrix and B do not depend on
    the workload seed.
    """

    SEED = 20250301

    def __init__(self) -> None:
        import scipy.sparse as sp

        from inputs import dd_twin

        A = dd_twin(self.SEED)
        self._A = sp.csr_matrix(
            (A.vals.astype(np.float32), A.indices, A.indptr), shape=A.shape
        )
        rng = np.random.default_rng(self.SEED)
        self._B = rng.standard_normal((A.n_cols, 64)).astype(np.float32)
        self.samples_ms: list[float] = []
        self.sample(3)  # first touches are not representative
        self.samples_ms.clear()

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            self._A @ self._B
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    @property
    def median_ms(self) -> float:
        return median(self.samples_ms)


def load_catalogue() -> dict:
    """The metric catalogue, keyed by metric name."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalogue.json")
    with open(path) as fh:
        data = json.load(fh)
    return {m["name"]: m for m in data["metrics"]}


def engine_deltas(before: dict, after: dict) -> dict:
    """Per-layer engine counters over a phase, from two ``engine.stats``
    snapshots (``before`` may be ``{}`` for a fresh engine)."""

    def delta(key: str) -> int:
        return after[key] - before.get(key, 0)

    requests = delta("hits") + delta("misses")
    return {
        "serve.engine.hit_ratio": delta("hits") / requests if requests else 0.0,
        "serve.engine.evictions": delta("evictions"),
        "serve.engine.plans_built": delta("plans_built"),
    }


def print_table(title: str, rows) -> None:
    """Human-readable ``name value unit  note`` lines (never the last line
    of stdout: the result JSON follows)."""
    print(f"== {title}")
    for name, value, unit, note in rows:
        if isinstance(value, float) and math.isfinite(value):
            shown = f"{value:.6g}"
        else:
            shown = str(value)
        print(f"  {name:34s} {shown:>14s} {unit:8s} {note}")
    sys.stdout.flush()
