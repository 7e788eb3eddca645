"""Socket-level integration tests for the SpMM server.

The real-network layer over the in-process suite (``tests/
test_server.py``): a live asyncio server on a loopback socket,
concurrent mixed-tenant clients on real threads, and — for the
``docs/CONCURRENCY.md`` fleet runbook — worker *processes* started via
``python -m repro.serve.server`` over one shared sharded PlanStore,
where the second worker warm-starts and serves with ``plans_built ==
0``.  Acceptance criteria asserted here: same-fingerprint dynamic
batching is observable in ``/metrics`` (``batched_requests > 0``),
responses are bit-for-bit equal to a direct in-process
``SpMMEngine.multiply``, overload produces explicit shed responses, and
no request is ever silently dropped (every client gets a result or a
documented error; ``internal_errors`` stays zero throughout).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServerError
from repro.serve.engine import SpMMEngine
from repro.serve.server import ServerConfig, SpMMClient, SpMMServer
from repro.serve.sharded import AsyncSpMMEngine
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import erdos_renyi

from engine_gate import EngineGate, queued, wait_until


def make_csr(seed=0, n=128, deg=6.0):
    return coo_to_csr(erdos_renyi(n, avg_degree=deg, seed=seed))


def make_b(csr, n=16, seed=9):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


@contextlib.contextmanager
def live_server(engine_kw=None, **cfg_kw):
    """A server on its own event-loop thread; yields a box with
    ``addr`` and ``server`` (metrics are thread-safe to read)."""
    started = threading.Event()
    box = {}

    async def serve():
        server = SpMMServer(
            engine=AsyncSpMMEngine(**(engine_kw or {})),
            config=ServerConfig(**cfg_kw),
        )
        box["server"] = server
        box["addr"] = await server.start()
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        started.set()
        await box["stop"].wait()
        await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    assert started.wait(30), "server failed to start"
    try:
        yield box
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(30)
        assert not thread.is_alive(), "server failed to stop"


class TestLiveSocket:
    def test_concurrent_mixed_tenant_clients_observe_batching(self):
        """The acceptance-criteria e2e: concurrent mixed-tenant clients,
        batching visible in /metrics, bit-for-bit results, zero
        internal errors, nothing dropped."""
        csr = make_csr(1)
        B = make_b(csr)
        ref = SpMMEngine().spmm(csr, B)
        n_clients = 8
        results: dict[int, np.ndarray] = {}
        errors: list = []

        with live_server(max_batch=16) as box:
            host, port = box["addr"]
            server = box["server"]
            # the first request's engine call is held until the other
            # seven are queued behind it (each is decoded and
            # fingerprinted first), so the batch's size does not depend
            # on the host's speed
            gate = EngineGate(server)

            def client_run(i):
                try:
                    with SpMMClient(host, port) as c:
                        results[i] = c.multiply(
                            csr, B, tenant=f"tenant-{i % 3}"
                        )
                except Exception as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_run, args=(i,))
                for i in range(n_clients)
            ]
            try:
                threads[0].start()
                held = wait_until(gate.held.is_set)
                for t in threads[1:]:
                    t.start()
                joined = wait_until(lambda: queued(server) == n_clients - 1)
            finally:
                gate.release()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            with SpMMClient(host, port) as c:
                metrics = c.metrics()

        assert held, "the first request never reached the engine"
        assert joined, "the other clients' requests never queued behind it"
        assert not errors, errors
        assert gate.sizes == [1, n_clients - 1]  # one multiply_many of 7
        assert len(results) == n_clients  # nothing dropped
        for C in results.values():
            assert np.array_equal(C, ref)  # bit-for-bit
        server_counters = metrics["server"]
        assert server_counters["batched_requests"] == n_clients - 1
        assert server_counters["internal_errors"] == 0
        assert server_counters["results_sent"] == n_clients
        # every tenant's traffic was attributed at admission
        tenants = server_counters["tenants"]
        assert set(tenants) == {"tenant-0", "tenant-1", "tenant-2"}
        assert sum(t["requests"] for t in tenants.values()) == n_clients

    def test_overload_sheds_explicitly(self):
        csr = make_csr(2)
        with live_server(max_inflight=0) as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                assert c.ping()  # control plane unaffected
                with pytest.raises(ServerError) as exc:
                    c.multiply(csr, make_b(csr))
            counters = box["server"].counters()
        assert exc.value.code == "overloaded"
        assert exc.value.retryable is True
        assert counters["shed_requests"] == 1
        assert counters["internal_errors"] == 0

    def test_quota_exceeded_over_socket(self):
        csr = make_csr(3)
        with live_server(tenant_quotas={"a": (0.001, 1.0)}) as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                c.multiply(csr, make_b(csr), tenant="a")  # burst token
                with pytest.raises(ServerError) as exc:
                    c.multiply(csr, make_b(csr), tenant="a")
                # unquota'd tenant unaffected
                c.multiply(csr, make_b(csr), tenant="b")
        assert exc.value.code == "quota_exceeded"
        assert exc.value.retryable is True

    def test_submit_then_multiply_and_stats(self):
        csr = make_csr(4)
        B = make_b(csr)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                fp = c.submit(csr, feature_dim=B.shape[1])["fingerprint"]
                assert fp["nnz"] == csr.nnz
                C = c.multiply(csr, B)
                stats = c.stats()
        assert np.array_equal(C, SpMMEngine().spmm(csr, B))
        # the submit built the plan; the multiply was a pure hit
        assert stats["engine"]["plans_built"] == 1
        assert stats["engine"]["hits"] >= 1

    def test_submit_sends_feature_dim_as_given(self):
        # the client once sent int(feature_dim): True went out as 1 and
        # 2.7 as 2, so the server's int rule never saw them
        csr = make_csr(6)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                for feature_dim in (True, 2.7):
                    with pytest.raises(ServerError) as exc:
                        c.submit(csr, feature_dim=feature_dim)
                    assert exc.value.code == "bad_request"

    def test_bad_request_does_not_kill_connection(self):
        csr = make_csr(5)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                with pytest.raises(ServerError) as exc:
                    c.multiply(csr, make_b(csr), numerics="not-a-tier")
                assert exc.value.code == "bad_request"
                assert exc.value.retryable is False
                # same connection still serves
                assert np.array_equal(
                    c.multiply(csr, make_b(csr)),
                    SpMMEngine().spmm(csr, make_b(csr)),
                )


# ----------------------------------------------------------------------
# the multi-worker fleet runbook (docs/CONCURRENCY.md), end to end
# ----------------------------------------------------------------------
def _spawn_worker(store: Path, *extra: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.server",
            "--store", str(store), "--port", "0",
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    port = None
    for _ in range(50):  # "listening on host:port" arrives once ready
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            break
        if line.startswith("listening on "):
            port = int(line.rsplit(":", 1)[1])
            break
    if port is None:
        proc.kill()
        _, err = proc.communicate(timeout=60)  # reaps and closes the pipes
        raise AssertionError(f"worker never came up: {err}")
    return proc, port


def _stop_worker(proc: subprocess.Popen) -> str:
    """SIGTERM the worker, reap it and close its pipes; returns the rest
    of its stdout."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


class TestFleetRunbook:
    def test_second_worker_serves_from_store_with_zero_builds(self, tmp_path):
        """Worker 1 builds plans into the shared store; worker 2
        warm-starts on boot and serves the same traffic with
        ``plans_built == 0``, bit-for-bit."""
        csr = make_csr(27, n=192)
        B = make_b(csr)
        ref = SpMMEngine().spmm(csr, B)
        store = tmp_path / "plans"

        # worker 1: cold boot, builds + persists
        proc1, port1 = _spawn_worker(store)
        try:
            with SpMMClient("127.0.0.1", port1) as c:
                C1 = c.multiply(csr, B, tenant="alice")
                m1 = c.metrics()
        finally:
            _stop_worker(proc1)
        assert np.array_equal(C1, ref)
        assert m1["engine"]["plans_built"] == 1
        assert m1["server"]["internal_errors"] == 0
        assert len(list(PlanStore(store).entries())) >= 1

        # worker 2: --warm-start adopts the persisted plan before traffic
        proc2, port2 = _spawn_worker(store, "--warm-start")
        try:
            with SpMMClient("127.0.0.1", port2) as c:
                C2 = c.multiply(csr, B, tenant="bob")
                m2 = c.metrics()
        finally:
            _stop_worker(proc2)
        assert np.array_equal(C2, ref)  # bit-for-bit across workers
        assert m2["engine"]["plans_built"] == 0  # never replanned
        assert m2["engine"]["hits"] >= 1
        assert m2["server"]["internal_errors"] == 0

    def test_sigterm_drains_gracefully(self, tmp_path):
        proc, port = _spawn_worker(tmp_path / "plans")
        with SpMMClient("127.0.0.1", port) as c:
            assert c.ping()
        out = _stop_worker(proc)
        assert proc.returncode == 0
        assert "draining" in out


class TestServerCLI:
    def test_help_smoke(self):
        from repro.serve.server import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0

    def test_shards_accepts_only_one(self, capsys):
        # one engine serves every request: --shards stays for launch
        # scripts that pass 1, and anything else is refused
        from repro.serve.server import build_parser

        assert build_parser().parse_args(["--shards", "1"]).shards == 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--shards", "2"])
        assert exc.value.code != 0
        assert "--shards" in capsys.readouterr().err

    def test_metrics_snapshot_is_json(self):
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                snapshot = c.metrics()
        json.dumps(snapshot)
        assert snapshot["server"]["connections_total"] == 1
