"""The asyncio serving engine.

:class:`AsyncSpMMEngine` is the ``await``-able front over one
:class:`~repro.serve.engine.SpMMEngine`: ``await engine.multiply(A, B)``
keeps the event loop free while the engine's own call runs as one task
on a thread pool.  Concurrent misses coalesce where they do for
threads, in :meth:`SpMMEngine.get_plan`: M simultaneous first-requests
for one matrix run one plan resolution
(``stats["async"]["coalesced_waits"]``).

It is also the one layer that takes ``tenant=``: a tenant may be pinned
to a :mod:`repro.tune` numerics tier
(:meth:`AsyncSpMMEngine.set_tenant_numerics`), between the per-request
override and the engine default — request beats tenant beats engine
default.  ``docs/CONCURRENCY.md`` covers the coalescing design, the
thread-safety guarantees, and the multi-worker operations runbook;
``docs/NUMERICS.md`` the tier semantics;
``benchmarks/bench_concurrent_engine.py`` measures one engine under a
16-thread mixed-tenant workload.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
from functools import partial

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.core.config import AccConfig
from repro.errors import EngineClosedError
from repro.gpusim.specs import DeviceSpec
from repro.serve.engine import SpMMEngine
from repro.serve.fingerprint import MatrixFingerprint, fingerprint
from repro.tune.policy import resolve_policy
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@audit_guarded
class AsyncSpMMEngine:
    """``await``-able serving front over one engine.

    Each request is one task on an internal thread pool that runs the
    wrapped engine's own call — fingerprint, plan resolution and
    multiply alike — so an asyncio server can serve SpMM traffic without
    blocking its event loop::

        engine = AsyncSpMMEngine(store="/var/cache/accspmm")
        C = await engine.multiply(A, B, tenant="alice")
        ...
        engine.close()

    Concurrent misses on one matrix coalesce in the wrapped engine's
    :meth:`~repro.serve.engine.SpMMEngine.get_plan`: one pool task
    resolves the plan and the other M-1 wait on their pool threads for
    its plan or exception (``stats["async"]["coalesced_waits"]``).  Each
    request counts one cache lookup, as on the synchronous engines.

    Parameters: pass a ready ``engine`` (a
    :class:`~repro.serve.engine.SpMMEngine`), or keyword arguments to
    build one — e.g. ``AsyncSpMMEngine(capacity=64,
    store="/var/cache/accspmm")``.  ``max_workers`` sizes the thread
    pool (default: Python's ``ThreadPoolExecutor`` heuristic).

    The event-loop thread only takes this engine's dict-sized lock (the
    drain protocol and the tenant pins); all engine work is on the
    pool.  One instance serves one event loop at a time; worker threads
    themselves are loop-agnostic.
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "_tenant_numerics": "_lock",
        "_closing": "_lock",
        "_active": "_lock",
        "_drain_event": "_lock",
    }

    def __init__(self, engine=None, max_workers: int | None = None, **kwargs):
        if engine is None:
            engine = SpMMEngine(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either a ready engine or SpMMEngine kwargs, "
                f"not both (got engine and {sorted(kwargs)})"
            )
        self.engine = engine
        self._pool = cf.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="accspmm-async"
        )
        self._lock = create_lock("AsyncSpMMEngine._lock")
        #: tenant -> NumericsPolicy served when the request itself does
        #: not pass ``numerics=`` (request override always wins)
        self._tenant_numerics: dict[str, object] = {}
        #: drain protocol: once _closing is set, _begin() rejects new
        #: requests; _active counts requests between _begin and _end,
        #: and the drainer awaits _drain_event until it reaches zero
        self._closing = False
        self._active = 0
        self._drain_event: asyncio.Event | None = None

    # ------------------------------------------------------------------
    def _begin(self) -> None:
        """Admit one call, or reject it when the engine is draining.

        Every public entry point brackets its work in
        ``_begin()``/``_end()`` so :meth:`drain` can wait for exactly
        the calls admitted before it was called."""
        with self._lock:
            if self._closing:
                raise EngineClosedError(
                    "engine is draining; new submissions are rejected"
                )
            self._active += 1

    def _end(self) -> None:
        ev = None
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._closing:
                ev = self._drain_event
        if ev is not None:
            ev.set()

    async def _on_pool(self, call):
        """Admit ``call`` and run it as one task on the pool."""
        self._begin()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._pool, call)
        finally:
            self._end()

    # ------------------------------------------------------------------
    # hooks for the network front (repro.serve.server)
    # ------------------------------------------------------------------
    async def compute_fingerprint(self, csr) -> MatrixFingerprint:
        """Fingerprint ``csr`` on the pool (hashing a large matrix on
        the event loop would block it).  The fingerprint is stored on
        ``csr``, so the server, which groups batches by it, passes the
        same matrix on and no request hashes twice.  Raises
        :class:`~repro.errors.EngineClosedError` once :meth:`drain` has
        begun, like every other entry point."""
        return await self._on_pool(partial(fingerprint, csr))

    # ------------------------------------------------------------------
    # per-tenant numerics tiers
    # ------------------------------------------------------------------
    def set_tenant_numerics(self, tenant, numerics) -> None:
        """Pin (or clear) a tenant's default numerics tier.

        ``numerics`` is a tier name or
        :class:`~repro.tune.NumericsPolicy`; ``None`` clears the pin so
        the tenant falls back to the engine default.  The tier applies
        to every later request tagged ``tenant`` that does not carry
        its own ``numerics=`` override."""
        if tenant is None:
            raise ValueError("tenant must not be None")
        policy = None if numerics is None else resolve_policy(numerics)
        with self._lock:
            if policy is None:
                self._tenant_numerics.pop(str(tenant), None)
            else:
                self._tenant_numerics[str(tenant)] = policy

    def tenant_numerics_for(self, tenant):
        """The tenant's pinned :class:`~repro.tune.NumericsPolicy`, or
        ``None`` when unpinned (engine default applies)."""
        if tenant is None:
            return None
        with self._lock:
            return self._tenant_numerics.get(str(tenant))

    def resolve_numerics(self, numerics=None, tenant=None):
        """The effective :class:`~repro.tune.NumericsPolicy` for a
        request: request override > tenant pin > engine default.  The
        server keys its same-fingerprint micro-batches on the resolved
        tier so two tenants pinned to different tiers never coalesce
        into one ``multiply_many``."""
        if numerics is None:
            numerics = self.tenant_numerics_for(tenant)
        if numerics is None:
            return self.engine.default_numerics
        return resolve_policy(numerics)

    async def ensure_plan(
        self,
        A: CSRMatrix | COOMatrix,
        feature_dim: int = 128,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> MatrixFingerprint:
        """Resolve (build, store-load, or confirm) the plan for ``A``
        without multiplying — the server's ``submit`` endpoint.

        One pool task running the wrapped engine's ``get_plan``, which
        coalesces concurrent misses; returns the matrix fingerprint so
        the caller can report it.  Zero-dimension matrices have no plan
        and return their fingerprint unchanged."""
        return await self._on_pool(
            partial(self._planned_fingerprint, A, feature_dim, device, config)
        )

    def _planned_fingerprint(self, A, feature_dim, device, config):
        """Pool half of :meth:`ensure_plan`."""
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        if csr.n_rows and csr.n_cols:
            self.engine.get_plan(
                csr, feature_dim=feature_dim, device=device, config=config
            )
        return fingerprint(csr)

    # ------------------------------------------------------------------
    async def multiply(
        self,
        A: CSRMatrix | COOMatrix,
        B: np.ndarray,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """``C = A @ B`` without blocking the event loop: the wrapped
        engine's ``spmm`` as one pool task.

        ``numerics`` overrides the numerics tier for this request; a
        tagged tenant's pinned tier applies otherwise (see
        :meth:`set_tenant_numerics`).  ``backend``
        overrides the execution arm (see :mod:`repro.backend`).  Raises
        :class:`~repro.errors.EngineClosedError` once :meth:`drain` has
        begun."""
        return await self._on_pool(
            partial(
                self.engine.spmm, A, B, device=device, config=config,
                numerics=self.resolve_numerics(numerics, tenant),
                backend=backend,
            )
        )

    async def multiply_many(
        self,
        A: CSRMatrix | COOMatrix,
        Bs,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` without blocking the event loop.

        Numerics/backend precedence and the drain contract match
        :meth:`multiply`."""
        return await self._on_pool(
            partial(
                self.engine.multiply_many, A, Bs, device=device,
                config=config,
                numerics=self.resolve_numerics(numerics, tenant),
                backend=backend,
            )
        )

    async def apply_delta(
        self,
        fp: MatrixFingerprint,
        added=None,
        removed=None,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ):
        """Patch a cached plan with a structural delta on the pool.

        Wraps the engine's :meth:`SpMMEngine.apply_delta`: returns
        ``(new_fingerprint, new_plan)``, rejects once :meth:`drain` has
        begun.  Deltas are not coalesced — each request is one patch;
        streaming callers serialise edits per matrix themselves, since
        two deltas against one base fingerprint are independent edits,
        not duplicates."""
        return await self._on_pool(
            partial(
                self.engine.apply_delta, fp, added=added, removed=removed,
                device=device, config=config,
            )
        )

    async def warm_start(self, limit: int | None = None) -> int:
        """Preload persisted plans on the pool (see
        :meth:`SpMMEngine.warm_start`)."""
        return await self._on_pool(partial(self.engine.warm_start, limit))

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """The wrapped engine's stats plus an ``"async"`` sub-dict: the
        engine's ``coalesced_waits`` and the drain state.  The engine's
        ``requests`` counts cache lookups; per-tenant request counts
        live in the server's ``server.tenants`` (served traffic)."""
        out = self.engine.stats
        with self._lock:
            out["async"] = {
                "coalesced_waits": out["coalesced_waits"],
                "active": self._active,
                "draining": self._closing,
            }
        return out

    def clear(self) -> None:
        """Clear the wrapped engine's plans and counters (not a
        shutdown — the pool keeps serving; tenant pins stay)."""
        self.engine.clear()

    async def drain(self) -> None:
        """Stop gracefully: reject new submissions, let in-flight
        requests complete, then shut the thread pool down.

        After ``drain()`` returns, every request admitted before it was
        called has delivered its result (or exception), every
        subsequent :meth:`multiply`/:meth:`multiply_many`/
        :meth:`ensure_plan`/:meth:`warm_start` raises
        :class:`~repro.errors.EngineClosedError`, and the pool's worker
        threads have exited — the deterministic shutdown a serving
        process needs before dropping its listening socket.  Idempotent:
        a second ``drain()`` returns once the first completes."""
        with self._lock:
            self._closing = True
            idle = self._active == 0
            if not idle and self._drain_event is None:
                self._drain_event = asyncio.Event()
            ev = self._drain_event
        if not idle:
            await ev.wait()
        # every request is done; shutdown(wait=True) only joins threads
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._pool.shutdown, True)
        )

    def close(self) -> None:
        """Shut the thread pool down (blocks until workers drain).

        The synchronous sibling of :meth:`drain`, for teardown after
        the loop is done serving: new submissions are rejected from the
        moment of the call, work already on the pool finishes first.
        Unlike :meth:`drain` it does not wait for requests still
        awaiting on the event loop — call it when no coroutine is
        mid-request."""
        with self._lock:
            self._closing = True
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncSpMMEngine":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
