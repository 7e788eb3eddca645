"""serve-mixed: two waiting clients against a server subprocess.

A closed loop of 2 clients in this load-generator process, one
``SpMMClient`` connection each, against ``python -m repro.serve.server``
started with no store and one plan-cache shard.  The working set is one matrix per family plus
the dense power-law twin, on which ``fast`` requests run the fused
executor strategy and ``exact`` requests run the stepped one.  The mix:
multiplies at widths 16 and 64 with ``exact`` and ``fast`` at 3:1; value
refreshes (client 0 owns one matrix and sends it with new values, which
its later requests use); structural deltas with a bundled B (client 1
owns one matrix and edits a small cluster of its rows).  Each mutable
matrix lives on one connection, so nothing reaches the server before
the edit it depends on.  Frames, fingerprint, the async engine,
micro-batching and cache resolution sit on every request; refreshes and
deltas write the plan cache beside the reads.

The load runs in slices; between slices the clients wait while the
drift yardstick runs on an idle host.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import Tally, digest, engine_deltas, median, peak_rss_mb, tail
from inputs import working_set

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: load between two yardstick pauses, seconds
SLICE_S = 2.0
YARD_REPS = 3
# The request mix.  Only exact:fast = 3:1 is given; the other shares are
# assumptions, since no recorded trace of value-refresh or structural-
# update rates for a served SpMM was available.  With them every request
# kind occurs often enough in a 30 s run to be measured, multiplies set
# the median and the dense twin's exact requests alone fill the p99 tail
# (catalogue.json, "workloads", has the measured shares).
#: client 0 sends new values for its matrix on this share of its requests
P_REFRESH = 0.05
#: client 1 sends a structural edit of its matrix on this share
P_DELTA = 0.04
#: exact:fast = 3:1
P_FAST = 0.25
#: share of multiplies on the dense twin (its exact requests are the
#: slowest mode; kept well apart from p90 so the tail does not straddle
#: two modes)
P_DENSE = 0.1
#: about one response in this many is re-checked after the run
SAMPLE_EVERY = 24
#: dense operands per (matrix, width) a client draws from, generated
#: before the load so the client spends its CPU on the wire, not on
#: random numbers (it shares two CPUs with the server)
B_POOL = 4
#: edits per structural delta, clustered in one 16-row band (6 added
#: edges, 2 removed): a small edit, also an assumption
DELTA_EDITS = 8
#: one plan-cache shard of 32 slots.  Superseded versions of the
#: mutable matrices fill the spare slots within the first slices, so the
#: server's memory plateaus at the same level whichever shards the
#: seed's matrices would hash to; fewer spare slots would let the churn
#: evict a live plan — a shared matrix, or a delta chain's head, which a
#: rebuild would give another reorder than the chain it heads
SERVER_SHARDS = 1
SERVER_CAPACITY = 32
#: passes over the working set timed right after each set-up
WARM_PASSES = 5
START_TIMEOUT_S = 120.0

#: the mutable matrix each client owns; the rest are shared, read-only
OWNED = ("molecular", "road")
SHARED = ("powerlaw", "uniform", "rect", "dense")


class ServerProcess:
    """One server subprocess, ready once it prints ``listening on``."""

    def __init__(self, traced: bool, workdir: str, index: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        args = ["--port", "0", "--shards", str(SERVER_SHARDS),
                "--capacity", str(SERVER_CAPACITY)]
        if traced:
            self.spans_path = os.path.join(workdir, f"server-spans-{index}.json")
            cmd = [sys.executable, os.path.join(HERE, "server_launcher.py"),
                   self.spans_path, *args]
        else:
            self.spans_path = None
            cmd = [sys.executable, "-m", "repro.serve.server", *args]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(HERE),
        )
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start listening in time") from None
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            if line.startswith("listening on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain the server (SIGTERM) and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=10)
        self.proc.stdout.close()


def _b(seed: int, tag: int, rows: int, width: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 31, tag, rows, width])
    return rng.standard_normal((rows, width)).astype(np.float32)


def _clustered_edits(rng, csr):
    """A small structural edit: new edges and removals of existing ones,
    all inside one 16-row band."""
    from repro.sparse.delta import GraphDelta

    r0 = int(rng.integers(0, csr.n_rows - 16))
    rows = r0 + rng.integers(0, 16, size=DELTA_EDITS - 2)
    cols = rng.integers(0, csr.n_cols, size=rows.size)
    vals = rng.uniform(0.5, 1.5, size=rows.size)
    lo, hi = csr.indptr[r0], csr.indptr[r0 + 16]
    removed = np.zeros((0, 2), dtype=np.int64)
    if hi > lo:
        picks = lo + rng.integers(0, hi - lo, size=2)
        band_rows = np.searchsorted(csr.indptr, picks, side="right") - 1
        removed = np.stack([band_rows, csr.indices[picks]], axis=1)
    return GraphDelta.from_edges(
        added=np.stack([rows, cols, vals], axis=1), removed=removed
    )


class Client:
    """One closed-loop client: its connection, its op stream, its log."""

    def __init__(self, index: int, seed: int, host: str, port: int,
                 matrices: dict, owned_fp: dict) -> None:
        from repro.serve.server import SpMMClient

        self.index, self.seed = index, seed
        self.host, self.port = host, port
        self.conn = SpMMClient(host, port)
        self.owned = OWNED[index]
        self.labels = (self.owned, *SHARED)
        share = (1.0 - P_DENSE) / (len(self.labels) - 1)
        self.pick = [P_DENSE if label == "dense" else share for label in self.labels]
        self.current = {label: matrices[label] for label in self.labels}
        self.b_pool = {
            (label, width): [
                _b(seed, 100 * index + k, matrices[label].n_cols, width)
                for k in range(B_POOL)
            ]
            for label in self.labels
            for width in (16, 64)
        }
        #: versions of the owned matrix, in the order the server saw them
        self.history = [matrices[self.owned]]
        #: (version made, GraphDelta) for every applied structural edit
        self.delta_log: list = []
        self.fp = owned_fp
        self.j = 0
        self.tally = Tally()
        self.latency_ms: list[float] = []
        #: (j, label, version, B, tier, C) of re-checked responses
        self.samples: list = []

    def step(self, tracer) -> None:
        from repro.errors import ProtocolError, ServerError
        from repro.serve.server import SpMMClient
        from repro.sparse.csr import CSRMatrix

        j = self.j
        self.j += 1
        rng = np.random.default_rng([self.seed, 30, self.index, j])
        u = rng.random()
        delta = None
        refresh = self.index == 0 and u < P_REFRESH
        if refresh:
            base = self.history[0]
            vals = rng.uniform(0.1, 1.0, size=base.nnz).astype(np.float32)
            label, tier, width = self.owned, "exact", 64
            A = CSRMatrix(base.n_rows, base.n_cols, base.indptr, base.indices, vals)
        elif self.index == 1 and u < P_DELTA:
            label, tier = self.owned, "exact"
            width = 64 if rng.random() < 0.5 else 16
            A = self.current[label]
            delta = _clustered_edits(rng, A)
        else:
            label = self.labels[int(rng.choice(len(self.labels), p=self.pick))]
            width = 64 if rng.random() < 0.5 else 16
            tier = "fast" if rng.random() < P_FAST else "exact"
            A = self.current[label]
        sampled = rng.random() < 1.0 / SAMPLE_EVERY
        B = self.b_pool[label, width][int(rng.integers(B_POOL))]
        t0 = time.perf_counter()
        try:
            with tracer.op("request"):
                if delta is not None:
                    C, fp = self.conn.delta(self.fp, delta, B=B, numerics=tier)
                else:
                    C = self.conn.multiply(A, B, numerics=tier)
                with tracer.region("loadgen.verify"):
                    ok = (
                        C.shape == (A.n_rows, width)
                        and C.dtype == np.float32
                        and bool(np.isfinite(C).all())
                    )
        except ServerError as exc:
            self.tally.error(exc)
            return
        except (ProtocolError, OSError) as exc:
            # a dropped request: count it and reconnect
            self.tally.error(exc)
            self.conn.close()
            self.conn = SpMMClient(self.host, self.port)
            return
        self.latency_ms.append((time.perf_counter() - t0) * 1e3)
        if not ok:
            self.tally.fail("malformed_result")
            return
        self.tally.ok()
        if refresh:
            self.history.append(A)
            self.current[label] = A
        elif delta is not None:
            self.current[label] = delta.apply_to(A)
            self.history.append(self.current[label])
            self.delta_log.append((j, len(self.history) - 1, delta))
            self.fp = fp
        if sampled:
            version = len(self.history) - 1 if label == self.owned else 0
            self.samples.append((j, label, version, B, tier, C))

    def run_until(self, deadline: float, tracer) -> None:
        try:
            while time.perf_counter() < deadline:
                self.step(tracer)
        except Exception as exc:  # noqa: BLE001 - a dead client is a failure
            self.tally.error(exc)
            raise


def _setup(traced: bool, workdir: str, index: int, matrices: dict, seed: int):
    """Spawn a server, plan the working set and warm every (matrix,
    width, tier).  Returns (server, seconds, owned fingerprints)."""
    from repro.serve.server import SpMMClient

    t0 = time.perf_counter()
    server = ServerProcess(traced, workdir, index)
    try:
        with SpMMClient(server.host, server.port) as c:
            fps = {
                label: c.submit(A, feature_dim=64)["fingerprint"]
                for label, A in matrices.items()
            }
            for label, A in matrices.items():
                for width in (16, 64):
                    B = _b(seed, 99, A.n_cols, width)
                    for tier in ("exact", "fast"):
                        c.multiply(A, B, numerics=tier)
        return server, time.perf_counter() - t0, fps
    except BaseException:
        server.stop()
        raise


def _warm_probe(server, matrices: dict, seed: int) -> float:
    """Exact width-64 multiplies over the working set right after
    set-up: each matrix's median over the passes, averaged over the
    matrices (``warm_ms_p50`` is the median over set-ups)."""
    from repro.serve.server import SpMMClient

    per_matrix = {label: [] for label in matrices}
    with SpMMClient(server.host, server.port) as c:
        for _ in range(WARM_PASSES):
            for label, A in matrices.items():
                B = _b(seed, 98, A.n_cols, 64)
                t0 = time.perf_counter()
                c.multiply(A, B, numerics="exact")
                per_matrix[label].append((time.perf_counter() - t0) * 1e3)
    return sum(median(v) for v in per_matrix.values()) / len(per_matrix)


def _metrics(server) -> dict:
    """``/metrics`` over a fresh connection: the server drops
    connections idle past its read timeout."""
    from repro.serve.server import SpMMClient

    with SpMMClient(server.host, server.port) as c:
        return c.metrics()


def _counter_deltas(before: dict, after: dict) -> dict:
    """Engine, server and async counters over the load, from two
    ``/metrics`` snapshots."""
    eb, ea = before["engine"], after["engine"]
    sb, sa = before["server"], after["server"]
    batched = sa["batched_requests"] - sb["batched_requests"]
    single = sa["single_requests"] - sb["single_requests"]
    return {
        **engine_deltas(eb, ea),
        "serve.server.batched_share": batched / (batched + single) if batched + single else 0.0,
        "serve.server.errors": sa["errors_sent"] - sb["errors_sent"],
        "serve.async.coalesced_waits": (
            ea["async"]["coalesced_waits"] - eb["async"]["coalesced_waits"]
        ),
    }


def _check_samples(clients, matrices: dict, tally: Tally, digests: dict) -> None:
    """Re-check sampled responses after the run.

    ``exact`` responses must equal, bit for bit, an in-process
    ``SpMMEngine`` fed the same sequence — the working set planned from
    scratch, every structural edit applied in order, refreshed values
    resolved against the planned structure.  ``fast`` responses must
    lie within the tier's error bound of a sparse float64 product.
    """
    import scipy.sparse as sp

    from repro import NumericsPolicy, SpMMEngine
    from repro.serve.fingerprint import fingerprint

    engine = SpMMEngine(capacity=4 * SERVER_CAPACITY, numerics="exact")
    for A in matrices.values():
        engine.get_plan(A, feature_dim=64)
    fast = NumericsPolicy("fast")
    for cl in clients:
        events = sorted(
            [(j, 0, item) for j, *item in cl.delta_log]
            + [(j, 1, item) for j, *item in cl.samples],
            key=lambda e: (e[0], e[1]),
        )
        for j, kind, item in events:
            if kind == 0:
                version, delta = item
                engine.apply_delta(fingerprint(cl.history[version - 1]), delta)
                continue
            label, version, B, tier, C = item
            A = cl.history[version] if label == cl.owned else matrices[label]
            digests[f"c{cl.index}.op{j}"] = digest(C)
            if tier == "exact":
                ref = engine.spmm(A, B, numerics="exact")
                if C.tobytes() != ref.tobytes():
                    tally.mismatch("exact_vs_in_process_engine")
                continue
            A64 = sp.csr_matrix(
                (A.vals.astype(np.float64), A.indices, A.indptr), shape=A.shape
            )
            B64 = B.astype(np.float64)
            C64 = A64 @ B64
            envelope = abs(A64) @ np.abs(B64)
            depth = int(np.diff(A.indptr).max())
            err = np.abs(C.astype(np.float64) - C64)
            if not np.all(err <= fast.error_bound(depth) * envelope):
                tally.mismatch("fast_outside_error_bound")


def run(seed: int, seconds: float, tracer, setups: int, yard, workdir: str) -> dict:
    matrices = dict(working_set(seed))
    traced = bool(getattr(tracer, "enabled", False))
    setup_s, warm_ms = [], []
    server = None
    try:
        for i in range(setups):
            if server is not None:
                server.stop()
            server, seconds_taken, fps = _setup(traced, workdir, i, matrices, seed)
            setup_s.append(seconds_taken)
            warm_ms.append(_warm_probe(server, matrices, seed))
        before = _metrics(server)
        clients = [
            Client(i, seed, server.host, server.port, matrices, fps[OWNED[i]])
            for i in range(len(OWNED))
        ]
        windows, slice_yard, slice_p50 = [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            yard.sample(YARD_REPS)
            slice_yard.append(median(yard.samples_ms[-YARD_REPS:]))
            seen = [len(cl.latency_ms) for cl in clients]
            w0 = time.perf_counter()
            deadline = w0 + min(SLICE_S, max(0.2, seconds - (w0 - start)))
            threads = [
                threading.Thread(target=cl.run_until, args=(deadline, tracer))
                for cl in clients
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            windows.append((w0, time.perf_counter()))
            done = [x for cl, k in zip(clients, seen) for x in cl.latency_ms[k:]]
            slice_p50.append(median(done) if done else None)
        yard.sample(YARD_REPS)
        slice_yard.append(median(yard.samples_ms[-YARD_REPS:]))
        after = _metrics(server)
        server_rss = server.peak_rss_mb()
        for cl in clients:
            cl.conn.close()
    finally:
        if server is not None:
            server.stop()

    tally = Tally()
    latency_ms = []
    for cl in clients:
        tally.merge(cl.tally)
        latency_ms += cl.latency_ms
    digests: dict = {}
    _check_samples(clients, matrices, tally, digests)

    busy_s = sum(b - a for a, b in windows)
    p90, v90 = tail(latency_ms, 90.0)
    p99, v99 = tail(latency_ms, 99.0)
    p50 = median(latency_ms)
    n = len(latency_ms)
    return {
        "e2e": {
            "latency_ms_p50": p50,
            "latency_ms_p90": v90,
            "latency_ms_p99": v99,
            "latency_rel_p50": median([
                p / ((a + b) / 2)
                for p, a, b in zip(slice_p50, slice_yard, slice_yard[1:])
                if p is not None
            ]),
            "ops_per_s": n / busy_s,
            "warm_ms_p50": median(warm_ms),
            "setup_s": median(setup_s),
            "peak_rss_mb": server_rss,
            "ok_share": tally.ok_share,
        },
        "notes": {
            "latency_ms_p50": f"round trip, n={n}",
            "latency_ms_p90": f"round trip p{p90:g}, n={n}",
            "latency_ms_p99": f"round trip p{p99:g}, n={n}",
            "ops_per_s": f"responses per second of load, {len(windows)} slices",
            "latency_rel_p50": "slice p50 / the yardstick timed on either side of it",
            "warm_ms_p50": f"exact width-64 multiply right after set-up, {len(warm_ms)} set-ups",
            "setup_s": f"spawn -> planned and warmed, n={len(setup_s)}",
            "peak_rss_mb": "server process",
        },
        "tally": tally,
        "digests": digests,
        "timed_ops": [],
        "counters": _counter_deltas(before, after),
        "windows": windows,
        "round_trip_s": sum(latency_ms) / 1e3,
        "server_spans": server.spans_path,
    }
