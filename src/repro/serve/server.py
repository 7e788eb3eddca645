"""The network serving front: SpMM plans behind a socket.

Until this module, the warm engine was Python-import-only — every
consumer had to live in the serving process.  :class:`SpMMServer` puts
an :class:`~repro.serve.sharded.AsyncSpMMEngine` behind a TCP listener
speaking the length-prefixed binary frames of
:mod:`repro.serve.frames`, with the traffic management a shared
data-plane needs:

* **Endpoints** — ``multiply`` (``C = A @ B`` with per-request
  ``numerics``/``device``/``backend`` overrides), ``submit`` (build/persist a plan
  without multiplying), ``delta`` (patch a cached plan with a
  structural edit against a fingerprint — the streaming path; an
  optional bundled ``b`` multiplies against the edited matrix in the
  same round trip through the batching machinery),
  ``stats``/``metrics`` (engine stat dicts plus
  server counters), ``warm_start``, and ``ping``.
* **Per-tenant quotas + admission control** — token-bucket rate limits
  per tenant (``ServerConfig.tenant_quotas``/``default_quota``),
  checked before any engine work; a global ``max_inflight`` cap sheds
  excess data-plane requests with an explicit retryable ``overloaded``
  response instead of queueing them into latency collapse.
* **Same-fingerprint dynamic batching** — a ``multiply`` whose batch
  key (fingerprint, device, resolved numerics tier, execution backend,
  and operand shape) has nothing executing reaches the engine at once;
  same-key requests that arrive while it executes queue, and run
  together as one :meth:`~repro.serve.sharded.AsyncSpMMEngine.
  multiply_many` as soon as it returns.  No request waits for a
  timer: batches form only from work that queues behind a busy key,
  so the per-matrix preparation cost is amortized across requests
  *in flight*.  Results are bit-for-bit identical to unbatched
  serving.
* **Backpressure + load shedding** — response writes await the
  transport drain; reads are bounded by ``read_timeout`` (slow or
  stalled clients are disconnected, not accumulated); frame size caps
  reject hostile lengths before allocation.
* **Graceful drain** — :meth:`SpMMServer.stop` stops accepting, lets
  in-flight work finish, and (by default) drains the engine; draining
  workers answer ``shutting_down`` (retryable — another worker will
  take it).

Every failure mode maps to a documented error code (``bad_frame``,
``bad_request``, ``quota_exceeded``, ``overloaded``, ``shutting_down``,
``internal``) — see ``docs/SERVER.md`` for the full protocol contract.

The module is stdlib-only (asyncio + sockets) and ships its test seams
as API: the connection handler depends only on duck-typed
reader/writer streams so fault-injection tests can drop, stall, and
corrupt mid-frame without real network flakiness; batching reaches the
engine only through ``engine.multiply``/``engine.multiply_many``, which
tests wrap to hold a call and let requests queue behind it; quotas read
an injectable monotonic ``clock``.  :class:`SpMMClient` is the blocking
client (``python -m repro.serve.server`` runs a worker; see the CLI at
the bottom).
"""

from __future__ import annotations

import argparse
import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.backend import validate_backend
from repro.errors import (
    EngineClosedError,
    FormatError,
    ProtocolError,
    ServerError,
    ValidationError,
)
from repro.serve.container import csr_to_payload, is_int, payload_to_csr
from repro.serve.frames import (
    DEFAULT_MAX_BODY_BYTES,
    encode_frame,
    read_frame,
    read_frame_from,
    write_frame,
)
from repro.serve.fingerprint import MatrixFingerprint
from repro.serve.sharded import AsyncSpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.delta import GraphDelta

#: request kinds that cost engine work and are therefore subject to
#: quotas and the max_inflight admission gate
_DATA_PLANE = ("multiply", "submit", "delta")

#: error codes a server can send; ``internal`` is the 5xx class the CI
#: load smoke requires to stay at zero
ERROR_CODES = (
    "bad_frame",
    "bad_request",
    "quota_exceeded",
    "overloaded",
    "shutting_down",
    "internal",
)


def _json_safe(obj):
    """Recursively coerce a stats structure into JSON-encodable types
    (anything exotic is stringified — metrics must never 500)."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return str(obj)


@dataclass(frozen=True)
class ServerConfig:
    """Traffic-management knobs of one :class:`SpMMServer`.

    ``default_quota`` and ``tenant_quotas`` values are ``(rate, burst)``
    pairs — a token bucket refilling at ``rate`` requests/second up to
    ``burst`` tokens; ``None`` means unlimited.  ``max_inflight`` caps
    concurrently-executing data-plane requests (beyond it requests are
    shed with a retryable ``overloaded`` response — explicit shedding
    beats silent queueing).  ``max_batch`` is the most queued same-key
    requests one ``multiply_many`` runs together.  ``read_timeout``
    bounds every socket read (the slow-client guard); ``None`` disables
    it.  ``max_body_bytes`` caps a request frame's array payload.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 128
    max_inflight: int = 32
    max_batch: int = 32
    read_timeout: float | None = 30.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    default_quota: tuple | None = None
    tenant_quotas: dict = field(default_factory=dict)

    def quota_for(self, tenant) -> tuple | None:
        """The ``(rate, burst)`` quota governing ``tenant`` (which may
        be ``None`` — anonymous traffic shares the default bucket)."""
        return self.tenant_quotas.get(tenant, self.default_quota)


class _TokenBucket:
    """One tenant's admission budget; mutated only under the server
    lock (caller-serialized, like the counters beside it)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp: float | None = None

    def take(self, now: float) -> bool:
        if self.stamp is not None:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamp) * self.rate
            )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _Batch:
    """One batch key's queue: same-key multiplies waiting for the key's
    runner task; ``items`` is mutated only under the server lock."""

    __slots__ = ("csr", "device", "policy", "backend", "items")

    def __init__(self, csr, device, policy, backend=None):
        self.csr = csr
        self.device = device
        self.policy = policy
        self.backend = backend
        self.items: list = []  # (B, future)


@audit_guarded
class SpMMServer:
    """An asyncio TCP front over an :class:`~repro.serve.sharded.
    AsyncSpMMEngine`.

    Construct with a ready ``engine`` or with
    :class:`~repro.serve.engine.SpMMEngine` keyword arguments
    (``capacity=``, ``store=``, ...); ``config`` is a
    :class:`ServerConfig`.  ``clock`` is the monotonic clock behind the
    quota buckets (injectable for deterministic tests).  Lifecycle::

        server = SpMMServer(store="/var/cache/accspmm")
        host, port = await server.start()
        ...
        await server.stop()        # stops accepting, drains the engine

    Batching: each batch key (see :meth:`_batched_multiply`) has at
    most one runner task.  A request whose key has none starts one and
    runs at once; requests arriving while the key's batch executes
    queue, and the runner takes up to ``max_batch`` of them as its next
    batch when the engine call returns.  There is no timed window.

    Thread safety: the server itself runs on one event loop.  Counters,
    quota buckets, and the batch-queue map are guarded by one lock —
    held only for dict-sized operations, never across an ``await`` or
    an engine call — so :meth:`metrics` may be read from any thread
    (ops pollers) while the loop serves.
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "_counters": "_lock",
        "_buckets": "_lock",
        "_batches": "_lock",
        "_inflight_count": "_lock",
        "_tenants": "_lock",
    }

    def __init__(
        self,
        engine: AsyncSpMMEngine | None = None,
        config: ServerConfig | None = None,
        clock=time.monotonic,
        **engine_kwargs,
    ):
        if engine is None:
            engine = AsyncSpMMEngine(**engine_kwargs)
        elif engine_kwargs:
            raise TypeError(
                "pass either a ready engine or AsyncSpMMEngine kwargs, "
                f"not both (got engine and {sorted(engine_kwargs)})"
            )
        self.engine = engine
        self.config = config or ServerConfig()
        self._clock = clock
        self._lock = create_lock("SpMMServer._lock")
        self._inflight_count = 0
        self._buckets: dict = {}
        #: tenant -> data-plane request counters: the ledger of served
        #: traffic.  A mixed-tenant batch reaches the engine as one
        #: ``multiply_many``, so admission is where per-tenant
        #: attribution is exact.
        self._tenants: dict = {}
        #: batch key -> its _Batch queue, present while the key's runner
        #: task executes or has requests queued
        self._batches: dict = {}
        self._counters = {
            "connections_total": 0,
            "open_connections": 0,
            "shed_connections": 0,
            "requests_total": 0,
            "multiplies": 0,
            "submits": 0,
            "deltas": 0,
            "single_requests": 0,
            "batched_requests": 0,
            "batches": 0,
            "shed_requests": 0,
            "quota_rejections": 0,
            "protocol_errors": 0,
            "read_timeouts": 0,
            "disconnects": 0,
            "internal_errors": 0,
            "errors_sent": 0,
            "results_sent": 0,
        }
        #: batch runners and open connections; loop-confined (touched
        #: only from the event loop), so unguarded by design
        self._tasks: set = set()
        self._server = None
        self.address: tuple | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple:
        """Bind and start accepting; returns ``(host, port)`` — with
        ``port=0`` in the config, the kernel-assigned port."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self, drain_engine: bool = True) -> None:
        """Graceful shutdown: close the listener, let queued batches
        deliver, then (by default) drain the engine — in-flight
        futures complete, new submissions are rejected, the thread pool
        shuts down deterministically."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = list(self._tasks)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if drain_engine:
            await self.engine.drain()

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        """One client connection: read frames, dispatch, respond.

        ``reader``/``writer`` are duck-typed asyncio streams
        (``readexactly`` / ``write``+``drain``+``close``), which is the
        fault-injection seam: tests drive this coroutine directly with
        fakes that stall, truncate, and corrupt."""
        task = asyncio.current_task()
        if task is not None:
            # register so stop() awaits open connections before the
            # loop tears them down mid-response
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        with self._lock:
            self._counters["connections_total"] += 1
            self._counters["open_connections"] += 1
            over = (
                self._counters["open_connections"]
                > self.config.max_connections
            )
        try:
            if over:
                with self._lock:
                    self._counters["shed_connections"] += 1
                await self._send_error(
                    writer, "overloaded",
                    f"server is at max_connections="
                    f"{self.config.max_connections}",
                    retryable=True,
                )
                return
            while True:
                try:
                    frame = await read_frame(
                        reader,
                        timeout=self.config.read_timeout,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except TimeoutError:
                    with self._lock:
                        self._counters["read_timeouts"] += 1
                    break
                except ProtocolError as exc:
                    with self._lock:
                        self._counters["protocol_errors"] += 1
                    # best-effort notice; the stream position is
                    # unknown after garbage, so the connection closes
                    await self._send_error(
                        writer, "bad_frame", str(exc), retryable=False
                    )
                    break
                except OSError:
                    with self._lock:
                        self._counters["disconnects"] += 1
                    break
                if frame is None:
                    break  # clean EOF
                if not await self._dispatch(frame, writer):
                    break
        finally:
            with self._lock:
                self._counters["open_connections"] -= 1
            try:
                writer.close()
                wait = getattr(writer, "wait_closed", None)
                if wait is not None:
                    await wait()
            except OSError:
                pass

    async def _dispatch(self, frame, writer) -> bool:
        """Answer one request; False when the connection should close."""
        meta = frame.meta
        tenant = meta.get("tenant")
        tenant = str(tenant) if tenant is not None else None
        with self._lock:
            self._counters["requests_total"] += 1
        try:
            if frame.kind == "ping":
                await write_frame(writer, "pong", {})
                return True
            if frame.kind in ("stats", "metrics"):
                await write_frame(writer, frame.kind, self.metrics())
                return True
            if frame.kind == "warm_start":
                loaded = await self.engine.warm_start(meta.get("limit"))
                await write_frame(writer, "warm_started", {"loaded": loaded})
                return True
            if frame.kind not in _DATA_PLANE:
                await self._send_error(
                    writer, "bad_request",
                    f"unknown request kind {frame.kind!r}", retryable=False,
                )
                return True
            # data plane: per-tenant quota, then the inflight gate
            self._note_tenant(tenant, "requests")
            if not self._admit_quota(tenant):
                self._note_tenant(tenant, "quota_rejections")
                await self._send_error(
                    writer, "quota_exceeded",
                    f"tenant {tenant!r} exceeded its request quota",
                    retryable=True,
                )
                return True
            with self._lock:
                admitted = self._inflight_count < self.config.max_inflight
                if admitted:
                    self._inflight_count += 1
                else:
                    self._counters["shed_requests"] += 1
            if not admitted:
                self._note_tenant(tenant, "shed_requests")
                await self._send_error(
                    writer, "overloaded",
                    f"server is at max_inflight="
                    f"{self.config.max_inflight}; retry",
                    retryable=True,
                )
                return True
            try:
                if frame.kind == "multiply":
                    await self._handle_multiply(frame, meta, tenant, writer)
                elif frame.kind == "delta":
                    await self._handle_delta(frame, meta, tenant, writer)
                else:
                    await self._handle_submit(frame, meta, writer)
            finally:
                with self._lock:
                    self._inflight_count -= 1
            return True
        except EngineClosedError as exc:
            await self._send_error(
                writer, "shutting_down", str(exc), retryable=True
            )
            return True
        except (ValidationError, FormatError, ProtocolError) as exc:
            await self._send_error(
                writer, "bad_request", str(exc), retryable=False
            )
            return True
        except OSError:
            # the peer vanished mid-response
            with self._lock:
                self._counters["disconnects"] += 1
            return False
        except Exception as exc:  # noqa: BLE001 - the 5xx class, counted
            with self._lock:
                self._counters["internal_errors"] += 1
            await self._send_error(
                writer, "internal",
                f"{type(exc).__name__}: {exc}", retryable=False,
            )
            return True

    def _note_tenant(self, tenant, field: str) -> None:
        if tenant is None:
            return
        with self._lock:
            t = self._tenants.setdefault(
                tenant,
                {"requests": 0, "quota_rejections": 0, "shed_requests": 0},
            )
            t[field] += 1

    async def _send_error(
        self, writer, code: str, message: str, retryable: bool
    ) -> None:
        with self._lock:
            self._counters["errors_sent"] += 1
        try:
            await write_frame(
                writer, "error",
                {"code": code, "message": message, "retryable": retryable},
            )
        except OSError:
            with self._lock:
                self._counters["disconnects"] += 1

    def _admit_quota(self, tenant) -> bool:
        spec = self.config.quota_for(tenant)
        if spec is None:
            return True
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = _TokenBucket(*spec)
                self._buckets[tenant] = bucket
            ok = bucket.take(now)
            if not ok:
                self._counters["quota_rejections"] += 1
        return ok

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_multiply(self, frame, meta, tenant, writer) -> None:
        with self._lock:
            self._counters["multiplies"] += 1
        csr = payload_to_csr(meta, frame.arrays)
        B = frame.arrays.get("b")
        if B is None or B.ndim != 2:
            raise ValidationError(
                "multiply request needs a 2-D array `b`; got "
                f"{None if B is None else B.shape}"
            )
        device = meta.get("device")  # engine validates the name
        policy = self.engine.resolve_numerics(meta.get("numerics"), tenant)
        backend = meta.get("backend")
        validate_backend(backend)  # reject unknown arm names up front
        fp = await self.engine.compute_fingerprint(csr)
        C, batched = await self._batched_multiply(
            csr, fp, B, device, policy, backend
        )
        with self._lock:
            self._counters["results_sent"] += 1
        await write_frame(
            writer, "result", {"batched": batched, "numerics": policy.tier},
            {"c": C},
        )

    async def _handle_submit(self, frame, meta, writer) -> None:
        with self._lock:
            self._counters["submits"] += 1
        csr = payload_to_csr(meta, frame.arrays)
        feature_dim = meta.get("feature_dim", 128)
        if not is_int(feature_dim) or feature_dim <= 0:
            raise ValidationError(
                f"feature_dim must be a positive int; got {feature_dim!r}"
            )
        fp = await self.engine.ensure_plan(
            csr, feature_dim=feature_dim, device=meta.get("device")
        )
        await write_frame(writer, "submitted", {"fingerprint": fp.record()})

    async def _handle_delta(self, frame, meta, tenant, writer) -> None:
        """Patch a cached plan with a structural edit — the streaming
        endpoint.

        The request names its base by ``meta["base_fingerprint"]`` (the
        record a prior ``submit``/``delta`` response reported — no
        matrix payload travels), carries the edits as
        ``GraphDelta.as_arrays`` payloads, and may bundle a dense ``b``
        to multiply against the *edited* matrix in the same round trip —
        that multiply reuses the same-fingerprint batching
        machinery under the new fingerprint, so concurrent post-edit
        traffic coalesces exactly like ``multiply`` traffic."""
        with self._lock:
            self._counters["deltas"] += 1
        base_fp = MatrixFingerprint.from_record(meta.get("base_fingerprint"))
        try:
            delta = GraphDelta.from_arrays(frame.arrays)
        except KeyError as exc:
            raise ValidationError(
                f"delta request is missing edit array {exc}"
            ) from exc
        device = meta.get("device")  # engine validates the name
        backend = meta.get("backend")
        validate_backend(backend)
        new_fp, new_plan = await self.engine.apply_delta(
            base_fp, delta, device=device
        )
        B = frame.arrays.get("b")
        if B is None:
            await write_frame(
                writer, "delta_applied", {"fingerprint": new_fp.record()}
            )
            return
        if B.ndim != 2:
            raise ValidationError(
                f"delta request array `b` must be 2-D; got {B.shape}"
            )
        policy = self.engine.resolve_numerics(meta.get("numerics"), tenant)
        C, batched = await self._batched_multiply(
            new_plan.csr, new_fp, B, device, policy, backend
        )
        with self._lock:
            self._counters["results_sent"] += 1
        await write_frame(
            writer, "result",
            {
                "batched": batched,
                "numerics": policy.tier,
                "fingerprint": new_fp.record(),
            },
            {"c": C},
        )

    # ------------------------------------------------------------------
    # dynamic batching
    # ------------------------------------------------------------------
    async def _batched_multiply(
        self, csr, fp, B, device, policy, backend=None
    ) -> tuple:
        """Queue this request on its batch key and await the result.
        The key is everything that must agree for two requests to share
        one ``multiply_many``: full fingerprint, device, resolved
        numerics tier, execution arm, and operand shape+dtype.  The
        first request of an idle key starts the key's runner task."""
        loop = asyncio.get_running_loop()
        key = (fp.full, device, policy.tier, backend, B.shape, B.dtype.str)
        fut = loop.create_future()
        with self._lock:
            batch = self._batches.get(key)
            idle = batch is None
            if idle:
                batch = _Batch(csr, device, policy, backend)
                self._batches[key] = batch
            batch.items.append((B, fut))
        if idle:
            self._spawn(self._run_batches(key, batch))
        return await fut

    async def _run_batches(self, key, batch) -> None:
        """Runner task of one batch key: execute up to ``max_batch``
        queued requests at a time until the queue is empty, then retire
        the key.  A failed engine call fails only its own batch; a
        cancelled runner fails every request it still holds."""
        items: list = []
        try:
            while True:
                with self._lock:
                    items = batch.items[: self.config.max_batch]
                    del batch.items[: len(items)]
                    if not items:
                        del self._batches[key]
                        return
                try:
                    results = await self._execute_batch(batch, items)
                except Exception as exc:  # noqa: BLE001 - the batch's error
                    for _, fut in items:
                        if not fut.done():
                            fut.set_exception(exc)
                    continue
                for (_, fut), result in zip(items, results):
                    if not fut.done():
                        fut.set_result(result)
        except BaseException as exc:
            with self._lock:
                items += batch.items
                batch.items.clear()
                if self._batches.get(key) is batch:
                    del self._batches[key]
            for _, fut in items:
                if not fut.done():
                    fut.set_exception(exc)
            raise

    async def _execute_batch(self, batch, items) -> list:
        """One engine call for ``items``: a lone request runs as a
        ``multiply``, several as one ``multiply_many``, both at the
        tier the server resolved.  Returns each request's
        ``(C, batched)``."""
        if len(items) == 1:
            B, _ = items[0]
            C = await self.engine.multiply(
                batch.csr, B, device=batch.device, numerics=batch.policy,
                backend=batch.backend,
            )
            with self._lock:
                self._counters["single_requests"] += 1
            return [(C, False)]
        Cs = await self.engine.multiply_many(
            batch.csr, np.stack([b for b, _ in items]),
            device=batch.device, numerics=batch.policy,
            backend=batch.backend,
        )
        with self._lock:
            self._counters["batches"] += 1
            self._counters["batched_requests"] += len(items)
        return [(C, True) for C in Cs]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """A consistent snapshot of the server's own counters."""
        with self._lock:
            out = dict(self._counters)
            out["inflight"] = self._inflight_count
            out["pending_batches"] = len(self._batches)
            out["tenants"] = {t: dict(c) for t, c in self._tenants.items()}
        return out

    def metrics(self) -> dict:
        """The ``/metrics`` payload: server counters plus the engine's
        full stat dicts, coerced to JSON-encodable types."""
        return _json_safe(
            {"server": self.counters(), "engine": self.engine.stats}
        )


# ----------------------------------------------------------------------
# the blocking client
# ----------------------------------------------------------------------
class SpMMClient:
    """Synchronous client for one :class:`SpMMServer` connection.

    One socket, request/response in lockstep — a thread wanting
    concurrency opens its own client (connections are cheap; the
    server's batching coalesces across connections).  Error
    responses raise :class:`~repro.errors.ServerError` carrying the
    documented ``code`` and ``retryable`` flag.  Context-manager aware.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._max_body_bytes = max_body_bytes

    # -- plumbing ------------------------------------------------------
    def _rpc(self, kind: str, meta: dict | None = None,
             arrays: dict | None = None, expect: str | None = None):
        """One round trip.  An error frame raises ServerError; with
        ``expect``, any other kind (or a result without ``c``) raises
        ProtocolError."""
        self._sock.sendall(encode_frame(kind, meta, arrays))
        frame = read_frame_from(
            self._file, max_body_bytes=self._max_body_bytes
        )
        if frame is None:
            raise ProtocolError(
                "server closed the connection without a response"
            )
        if frame.kind == "error":
            raise ServerError(
                str(frame.meta.get("code", "internal")),
                str(frame.meta.get("message", "")),
                bool(frame.meta.get("retryable", False)),
            )
        if expect is not None and (
            frame.kind != expect
            or (expect == "result" and "c" not in frame.arrays)
        ):
            raise ProtocolError(
                f"expected a {expect} frame, got {frame.kind!r}"
            )
        return frame

    @staticmethod
    def _options(**options) -> dict:
        """The request options given (``None`` means not given)."""
        return {k: v for k, v in options.items() if v is not None}

    def _matrix_request(self, A, **options) -> tuple[dict, dict]:
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        meta, arrays = csr_to_payload(csr)
        return {**meta, **self._options(**options)}, arrays

    # -- endpoints -----------------------------------------------------
    def multiply(self, A, B, tenant=None, numerics=None,
                 device=None, backend=None) -> np.ndarray:
        """``C = A @ B`` on the server; bit-for-bit what a local engine
        would produce at the same numerics tier.  ``backend`` picks the
        server-side execution arm (``"cpu"``/``"cupy"``; default: the
        server's process default — see ``docs/GPU.md``)."""
        meta, arrays = self._matrix_request(
            A, tenant=tenant, numerics=numerics, device=device, backend=backend
        )
        arrays["b"] = np.asarray(B)
        return self._rpc("multiply", meta, arrays, expect="result").arrays["c"]

    def submit(self, A, feature_dim: int = 128, tenant=None,
               device=None) -> dict:
        """Build (or confirm) the server-side plan for ``A`` without
        multiplying; returns the fingerprint record."""
        meta, arrays = self._matrix_request(A, tenant=tenant, device=device)
        meta["feature_dim"] = int(feature_dim)
        return self._rpc("submit", meta, arrays).meta

    def delta(
        self,
        base_fingerprint,
        added=None,
        removed=None,
        B=None,
        tenant=None,
        numerics=None,
        device=None,
        backend=None,
    ):
        """Patch the server-side plan for ``base_fingerprint`` with a
        structural edit — no matrix payload travels, only the edits.

        ``base_fingerprint`` is a fingerprint record (as returned by
        :meth:`submit` or a previous :meth:`delta`) or a
        :class:`~repro.serve.fingerprint.MatrixFingerprint`.
        ``added``/``removed`` follow
        :meth:`~repro.sparse.delta.GraphDelta.from_edges` (``added`` may
        be a prebuilt :class:`~repro.sparse.delta.GraphDelta`).  Without
        ``B``, returns the *new* fingerprint record for the edited
        matrix; with a dense ``B``, the server multiplies against the
        edited matrix in the same round trip and this returns
        ``(C, new_fingerprint_record)``."""
        if isinstance(base_fingerprint, MatrixFingerprint):
            base_fingerprint = base_fingerprint.record()
        if isinstance(added, GraphDelta):
            if removed is not None:
                raise ValidationError(
                    "pass either a GraphDelta or added/removed arrays, "
                    "not both"
                )
            delta = added
        else:
            delta = GraphDelta.from_edges(added=added, removed=removed)
        meta = self._options(
            tenant=tenant, numerics=numerics, device=device, backend=backend
        )
        meta["base_fingerprint"] = dict(base_fingerprint)
        arrays = delta.as_arrays()
        if B is not None:
            arrays["b"] = np.asarray(B)
        expect = "delta_applied" if B is None else "result"
        frame = self._rpc("delta", meta, arrays, expect=expect)
        if B is None:
            return frame.meta["fingerprint"]
        return frame.arrays["c"], frame.meta["fingerprint"]

    def stats(self) -> dict:
        return self._rpc("stats").meta

    def metrics(self) -> dict:
        return self._rpc("metrics").meta

    def warm_start(self, limit: int | None = None) -> int:
        meta = {"limit": limit} if limit is not None else {}
        return int(self._rpc("warm_start", meta).meta.get("loaded", 0))

    def ping(self) -> bool:
        return self._rpc("ping").kind == "pong"

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SpMMClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# CLI: one worker process
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.server",
        description=(
            "Serve SpMM plans over a socket (see docs/SERVER.md). "
            "Prints `listening on HOST:PORT` once ready."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="0 lets the kernel pick (the printed line names it)",
    )
    # accepted for old launch scripts: the one engine is one shard
    parser.add_argument(
        "--shards", type=int, choices=(1,), default=1, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--store", default=None,
        help="shared PlanStore directory (enables cross-process reuse)",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="preload persisted plans before accepting traffic",
    )
    parser.add_argument("--capacity", type=int, default=64)
    parser.add_argument("--max-inflight", type=int, default=32)
    parser.add_argument("--max-connections", type=int, default=128)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--read-timeout", type=float, default=30.0)
    parser.add_argument(
        "--numerics", default=None,
        help="engine-default numerics tier (exact|tf32|fast)",
    )
    return parser


async def _amain(args) -> int:
    engine = AsyncSpMMEngine(
        capacity=args.capacity,
        store=args.store,
        numerics=args.numerics,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        max_batch=args.max_batch,
        read_timeout=args.read_timeout,
    )
    server = SpMMServer(engine=engine, config=config)
    host, port = await server.start()
    if args.warm_start:
        loaded = await engine.warm_start()
        print(f"warm start: {loaded} plan(s) preloaded", flush=True)
    print(f"listening on {host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    import signal

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-unix event loops
            pass
    await stop.wait()
    print("draining...", flush=True)
    await server.stop()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
