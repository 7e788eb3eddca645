"""Sharded and asynchronous serving engines for multi-tenant traffic.

A single :class:`~repro.serve.engine.SpMMEngine` funnels every tenant
through one cache lock and one LRU: a burst from one tenant queues the
others at the lock and can evict their hot plans.  This module scales
the serving layer out:

* :class:`ShardedSpMMEngine` partitions the plan-cache *keyspace* across
  N per-shard :class:`~repro.serve.engine.SpMMEngine`\\ s.  Every plan,
  a delta-derived one included, lives on the shard its matrix's
  **structural** fingerprint hashes to — so a value-only update of a
  matrix lands on the shard that holds its structural plan and is
  served by repack, exactly as in the unsharded engine — and each
  shard has its own lock, LRU order, and byte budget:
  concurrent tenants touching different matrices almost never contend on
  a lock, and one tenant's evictions are confined to the shards its
  matrices hash to.  Results are bit-for-bit identical to the unsharded
  path (routing changes *where* a plan is cached, never what it
  computes).

* :class:`AsyncSpMMEngine` is the asyncio facade: ``await
  engine.multiply(A, B)`` keeps the event loop free while the wrapped
  engine's own call runs as one task on a thread pool.  Concurrent
  misses coalesce where they do for threads, in
  :meth:`SpMMEngine.get_plan`: M simultaneous first-requests for one
  matrix run one plan resolution (``stats["async"]["coalesced_waits"]``).

The sharded engine counts requests per tenant when callers tag them
with ``tenant=``, and both speak the :mod:`repro.tune` numerics tiers: a
fleet-wide default (``numerics=`` at construction), a per-tenant tier
(:meth:`ShardedSpMMEngine.set_tenant_numerics`), and a per-request
override — request beats tenant beats engine default.
``docs/CONCURRENCY.md`` covers the routing and coalescing design, the
thread-safety guarantees, and the multi-worker operations runbook;
``docs/NUMERICS.md`` the tier semantics;
``benchmarks/bench_sharded_engine.py`` measures the throughput effect
under a 16-thread mixed-tenant workload.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import weakref
from functools import partial

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.core.config import AccConfig
from repro.core.planner import AccPlan
from repro.errors import EngineClosedError
from repro.gpusim.specs import DeviceSpec
from repro.serve.engine import SpMMEngine, set_default_engine
from repro.serve.fingerprint import MatrixFingerprint, fingerprint
from repro.tune.policy import resolve_policy
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@audit_guarded
class ShardedSpMMEngine:
    """N per-shard engines behind one engine-shaped front.

    Parameters
    ----------
    n_shards:
        Number of per-shard :class:`~repro.serve.engine.SpMMEngine`\\ s.
        Pick roughly the expected thread concurrency; shards are cheap
        (a dict and a lock each) so over-provisioning is harmless.
    capacity, max_bytes:
        *Totals* across the fleet of shards; each shard gets an even
        ``1/n_shards`` slice as its own budget, enforced under its own
        lock.  Heavily skewed routing can therefore evict earlier than
        one pooled budget would — the price of lock-free-across-shards
        eviction.
    store:
        Shared cross-process persistence: a
        :class:`~repro.serve.store.PlanStore` used by every shard, or a
        directory path, which opens ``PlanStore(root=path)``.
    exec_max_bytes, policy, max_idle_seconds, device, config:
        Forwarded to every shard engine (see
        :class:`~repro.serve.engine.SpMMEngine`).
    numerics, autotune, backend:
        Fleet-wide numerics tier default, per-plan autotuning flag, and
        execution-arm default (see :mod:`repro.backend`),
        forwarded to every shard engine.  Per-tenant tiers
        (:meth:`set_tenant_numerics`) and per-request ``numerics=``
        overrides layer on top: request beats tenant beats this default.
        See ``docs/NUMERICS.md``.
    tenant:
        ``spmm``/``multiply_many`` accept an optional ``tenant=`` tag;
        tagged traffic is counted per tenant in ``stats["tenants"]``
        and served at the tenant's numerics tier when one is set.

    Thread safety: fully concurrent.  Routing is stateless, each shard
    locks independently, and the tenant counters and tier map take a
    dedicated lock only long enough to touch a dict.
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "_tenants": "_tenant_lock",
        "_tenant_numerics": "_tenant_lock",
    }

    def __init__(
        self,
        n_shards: int = 4,
        capacity: int = 64,
        device: DeviceSpec | str = "a800",
        config: AccConfig | None = None,
        max_bytes: int | None = None,
        exec_max_bytes: int | None = None,
        store=None,
        policy: str = "lru",
        max_idle_seconds: float | None = None,
        numerics=None,
        autotune: bool = False,
        backend=None,
    ) -> None:
        if not 1 <= int(n_shards) <= 256:
            raise ValueError(f"n_shards must be in 1..256; got {n_shards}")
        self.n_shards = int(n_shards)
        if store is not None and not hasattr(store, "get"):
            from repro.serve.store import PlanStore

            store = PlanStore(root=store)
        self.store = store
        per_capacity = max(1, -(-int(capacity) // self.n_shards))
        per_bytes = (
            None if max_bytes is None
            else max(1, -(-int(max_bytes) // self.n_shards))
        )
        self.shards = [
            SpMMEngine(
                capacity=per_capacity,
                device=device,
                config=config,
                max_bytes=per_bytes,
                exec_max_bytes=exec_max_bytes,
                store=store,
                policy=policy,
                max_idle_seconds=max_idle_seconds,
                numerics=numerics,
                autotune=autotune,
                backend=backend,
            )
            for _ in range(self.n_shards)
        ]
        # a shard's apply_delta caches the derived plan on the shard the
        # new fingerprint routes to; a proxy, not a reference, so the
        # router and its shards form no cycle and free at once on del
        for shard in self.shards:
            shard._router = weakref.proxy(self)
        self._tenant_lock = create_lock("ShardedSpMMEngine._tenant_lock")
        self._tenants: dict[str, dict] = {}
        #: tenant -> NumericsPolicy served when the request itself does
        #: not pass ``numerics=`` (request override always wins)
        self._tenant_numerics: dict[str, object] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_index(self, fp: MatrixFingerprint) -> int:
        """The shard a fingerprint routes to: a hash of its structure
        alone, the same in every process.

        Keyed on the **structural** hash so the full-key plan and any
        value-refreshed successors of the same sparsity pattern live on
        one shard — the structural repack path needs them co-resident.
        A delta-derived plan follows the same rule under its own
        fingerprint, so any process finds it where it hashes.
        """
        return int(fp.structure[:8], 16) % self.n_shards

    def _shard_for(self, fp: MatrixFingerprint) -> SpMMEngine:
        return self.shards[self.shard_index(fp)]

    def _note_tenant(self, tenant, field: str) -> None:
        if tenant is None:
            return
        with self._tenant_lock:
            t = self._tenants.setdefault(
                str(tenant), {"requests": 0, "batched_requests": 0}
            )
            t[field] += 1

    # ------------------------------------------------------------------
    # per-tenant numerics tiers
    # ------------------------------------------------------------------
    def set_tenant_numerics(self, tenant, numerics) -> None:
        """Pin (or clear) a tenant's default numerics tier.

        ``numerics`` is a tier name or
        :class:`~repro.tune.NumericsPolicy`; ``None`` clears the pin so
        the tenant falls back to the engine default.  The tier applies
        to every subsequent tagged request that does not carry its own
        ``numerics=`` override."""
        if tenant is None:
            raise ValueError("tenant must not be None")
        if numerics is None:
            with self._tenant_lock:
                self._tenant_numerics.pop(str(tenant), None)
            return
        policy = resolve_policy(numerics)  # validate outside the lock
        with self._tenant_lock:
            self._tenant_numerics[str(tenant)] = policy

    def tenant_numerics_for(self, tenant):
        """The tenant's pinned :class:`~repro.tune.NumericsPolicy`, or
        ``None`` when unpinned (engine default applies)."""
        if tenant is None:
            return None
        with self._tenant_lock:
            return self._tenant_numerics.get(str(tenant))

    @property
    def default_device(self):
        return self.shards[0].default_device

    @property
    def default_config(self):
        return self.shards[0].default_config

    @property
    def default_numerics(self):
        return self.shards[0].default_numerics

    # ------------------------------------------------------------------
    # the engine interface, routed
    # ------------------------------------------------------------------
    def spmm(
        self,
        A: CSRMatrix | COOMatrix,
        B: np.ndarray,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """``C = A @ B`` through the owning shard's plan cache.

        Bit-for-bit identical to the same request on an unsharded
        engine.  ``tenant`` tags the request in the per-tenant stats and
        selects the tenant's pinned numerics tier; ``numerics`` overrides
        both the tenant pin and the engine default for this request;
        ``backend`` overrides the fleet-wide execution arm."""
        return self._routed(
            False, A, B, device, config, tenant, numerics, backend
        )

    def multiply_many(
        self,
        A: CSRMatrix | COOMatrix,
        Bs,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` through the owning shard.

        Numerics precedence matches :meth:`spmm`: request override >
        tenant pin > engine default; ``backend`` overrides the
        fleet-wide execution arm."""
        self._note_tenant(tenant, "batched_requests")
        return self._routed(
            True, A, Bs, device, config, tenant, numerics, backend
        )

    def _routed(self, batched, A, B, device, config, tenant, numerics, backend):
        """The body of :meth:`spmm` and :meth:`multiply_many`: route to
        the shard owning ``A``'s structure, which also answers
        zero-dimension operands (without a plan)."""
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        self._note_tenant(tenant, "requests")
        shard = self._shard_for(fingerprint(csr))
        if numerics is None:  # request override > tenant pin > default
            numerics = self.tenant_numerics_for(tenant)
        run = shard.multiply_many if batched else shard.spmm
        return run(
            csr, B, device=device, config=config, numerics=numerics,
            backend=backend,
        )

    def get_plan(
        self,
        A: CSRMatrix | COOMatrix,
        feature_dim: int = 128,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> AccPlan:
        """The owning shard's cached (or newly built) plan for ``A``."""
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        return self._shard_for(fingerprint(csr)).get_plan(
            csr, feature_dim=feature_dim, device=device, config=config
        )

    def lookup(
        self,
        fp: MatrixFingerprint,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> AccPlan | None:
        """Count-free cache probe on the owning shard (see
        :meth:`SpMMEngine.lookup`)."""
        return self._shard_for(fp).lookup(fp, device=device, config=config)

    def apply_delta(
        self,
        fp: MatrixFingerprint,
        added=None,
        removed=None,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        tenant=None,
    ):
        """Patch the base plan through the shard ``fp`` routes to.

        That shard's :meth:`SpMMEngine.apply_delta` resolves the base
        and caches the derived plan on the shard the *new* fingerprint
        routes to, like any plan, so follow-up :meth:`spmm` traffic and
        further deltas find it by the plain hash.  ``tenant`` tags the
        request in the per-tenant stats.  Returns ``(new_fingerprint,
        new_plan)``."""
        self._note_tenant(tenant, "requests")
        return self._shard_for(fp).apply_delta(
            fp, added=added, removed=removed, device=device, config=config
        )

    # ------------------------------------------------------------------
    def _entry_shard(self, entry) -> int | None:
        """Route a store entry by the fingerprint in its own header,
        before any payload is deserialised; ``None`` when the header is
        unreadable (the load itself would quarantine such an entry)."""
        try:
            return self.shard_index(
                MatrixFingerprint.from_record(entry.meta["fingerprint"])
            )
        except (TypeError, KeyError, ValueError):
            return None

    def warm_start(self, limit: int | None = None) -> int:
        """Preload persisted plans, each into its *owning* shard.

        One pass over the shared store: every entry, delta-derived plans
        included, is routed to its shard from its own header fingerprint
        (no payload deserialised for routing), selected
        most-expensive-to-rebuild first *globally* — ``limit``
        (default: the summed shard capacities) is spent on the
        fleet's priciest plans wherever they hash, subject to each
        shard's own capacity, so skewed routing never loads a plan just
        to have per-shard eviction discard it — and each shard inserts
        its picks cheapest-first, exactly as
        :meth:`SpMMEngine.warm_start` does.  The adopted placement is
        re-derived from the actual arrays on insert, so a lying header
        costs a wasted slot, never a wrong cache key.  Returns the
        number of plans inserted.
        """
        if self.store is None:
            return 0
        entries = sorted(self.store.entries(), key=lambda e: -e.build_seconds)
        # shard capacities through the lock-held property — reading
        # `shard.cache` directly here would race that shard's traffic
        capacities = [sh.capacity for sh in self.shards]
        remaining = sum(capacities) if limit is None else limit
        buckets: list[list] = [[] for _ in range(self.n_shards)]
        for entry in entries:  # global cost order
            if remaining <= 0:
                break
            idx = self._entry_shard(entry)
            if idx is None:
                continue
            if len(buckets[idx]) >= capacities[idx]:
                continue
            buckets[idx].append(entry)
            remaining -= 1
        return sum(
            shard._warm_from(self.store, bucket, len(bucket))
            for shard, bucket in zip(self.shards, buckets)
            if bucket
        )

    def enforce_limits(self) -> None:
        """Run every shard's TTL/byte/capacity enforcement (ops cadence
        hook: steady all-hit traffic never inserts, so idle entries
        otherwise outlive ``max_idle_seconds`` until the next insert)."""
        for shard in self.shards:
            with shard._lock:
                shard.cache.enforce_limits()

    def clear(self) -> None:
        """Drop every shard's cached plans and reset all counters."""
        for shard in self.shards:
            shard.clear()
        with self._tenant_lock:
            self._tenants.clear()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Fleet-wide counters: sums over shards, plus breakdowns.

        Numeric counters (``hits``, ``misses``, ``plans_built``,
        ``cached_bytes``, ...) are summed across shards; ``hit_rate`` is
        recomputed from the sums.  ``per_shard`` holds each shard's own
        stats dict (the store sub-dict is hoisted to the top level — the
        store is shared, so per-shard copies would repeat it), and
        ``tenants`` the per-tenant request counters.
        """
        per_shard = [shard.stats for shard in self.shards]
        agg: dict = {}
        backend_info = None
        for s in per_shard:
            s.pop("store", None)  # shared store: reported once, below
            # every shard shares the fleet-wide backend default; hoist
            # the (identical) info dict to the top level like the store
            backend_info = s.pop("backend", backend_info)
            for k, v in s.items():
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    continue
                if k == "hit_rate":
                    continue
                agg[k] = agg.get(k, 0) + v
        if "max_bytes" not in agg:
            agg["max_bytes"] = None
        requests = agg.get("requests", 0)
        agg["hit_rate"] = (
            round(agg.get("hits", 0) / requests, 4) if requests else 0.0
        )
        agg["n_shards"] = self.n_shards
        agg["policy"] = per_shard[0]["policy"]
        agg["backend"] = backend_info
        if self.store is not None:
            agg["store"] = self.store.counters()
        with self._tenant_lock:
            agg["tenants"] = {t: dict(c) for t, c in self._tenants.items()}
            for t, pol in self._tenant_numerics.items():
                agg["tenants"].setdefault(t, {})["numerics"] = pol.tier
        agg["per_shard"] = per_shard
        return agg


# ----------------------------------------------------------------------
# the asyncio facade
# ----------------------------------------------------------------------
@audit_guarded
class AsyncSpMMEngine:
    """``await``-able serving front over a (sharded) engine.

    Each request is one task on an internal thread pool that runs the
    wrapped engine's own call — fingerprint, plan resolution and
    multiply alike — so an asyncio server can serve SpMM traffic without
    blocking its event loop::

        engine = AsyncSpMMEngine(n_shards=4)
        C = await engine.multiply(A, B, tenant="alice")
        ...
        engine.close()

    Concurrent misses on one matrix coalesce in the wrapped engine's
    :meth:`~repro.serve.engine.SpMMEngine.get_plan`: one pool task
    resolves the plan and the other M-1 wait on their pool threads for
    its plan or exception (``stats["async"]["coalesced_waits"]``).  Each
    request counts one cache lookup, as on the synchronous engines.

    Parameters: pass a ready ``engine`` (any
    :class:`~repro.serve.engine.SpMMEngine`-shaped object), or keyword
    arguments to build a :class:`ShardedSpMMEngine` — e.g.
    ``AsyncSpMMEngine(n_shards=8, store="/var/cache/accspmm")``.
    ``max_workers`` sizes the thread pool (default: Python's
    ``ThreadPoolExecutor`` heuristic).

    The event-loop thread only takes this engine's dict-sized lock (the
    drain protocol and the request counter); all engine work is on the
    pool.  One instance serves one event loop at a time; worker threads
    themselves are loop-agnostic.
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {
        "_requests": "_lock",
        "_closing": "_lock",
        "_active": "_lock",
        "_drain_event": "_lock",
    }

    def __init__(self, engine=None, max_workers: int | None = None, **kwargs):
        if engine is None:
            engine = ShardedSpMMEngine(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either a ready engine or ShardedSpMMEngine kwargs, "
                f"not both (got engine and {sorted(kwargs)})"
            )
        self.engine = engine
        self._pool = cf.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="accspmm-async"
        )
        self._lock = create_lock("AsyncSpMMEngine._lock")
        self._requests = 0
        #: drain protocol: once _closing is set, _begin() rejects new
        #: requests; _active counts requests between _begin and _end,
        #: and the drainer awaits _drain_event until it reaches zero
        self._closing = False
        self._active = 0
        self._drain_event: asyncio.Event | None = None

    # ------------------------------------------------------------------
    def _begin(self, counted: bool) -> None:
        """Admit one call, or reject it when the engine is draining; a
        ``counted`` call is a request in ``stats["async"]``.

        Every public entry point brackets its work in
        ``_begin()``/``_end()`` so :meth:`drain` can wait for exactly
        the calls admitted before it was called."""
        with self._lock:
            if self._closing:
                raise EngineClosedError(
                    "engine is draining; new submissions are rejected"
                )
            self._active += 1
            if counted:
                self._requests += 1

    def _end(self) -> None:
        ev = None
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._closing:
                ev = self._drain_event
        if ev is not None:
            ev.set()

    async def _on_pool(self, call, counted: bool = True):
        """Admit ``call`` and run it as one task on the pool."""
        self._begin(counted)
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
        return await self._on_pool(partial(fingerprint, csr), counted=False)

    def resolve_numerics(self, numerics=None, tenant=None):
        """The effective :class:`~repro.tune.NumericsPolicy` for a
        request: request override > tenant pin (when the wrapped engine
        keeps one) > engine default.  The server keys its same-
        fingerprint micro-batches on the resolved tier so two tenants
        pinned to different tiers never coalesce into one
        ``multiply_many``."""
        if numerics is None and tenant is not None:
            # plain SpMMEngines keep no tenant pins
            pinned = getattr(self.engine, "tenant_numerics_for", None)
            numerics = pinned(tenant) if pinned is not None else None
        if numerics is None:
            numerics = getattr(self.engine, "default_numerics", None)
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
        :meth:`ShardedSpMMEngine.set_tenant_numerics`).  ``backend``
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

        Wraps the engine's ``apply_delta`` (see
        :meth:`SpMMEngine.apply_delta` and
        :meth:`ShardedSpMMEngine.apply_delta`): returns
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
        return await self._on_pool(
            partial(self.engine.warm_start, limit), counted=False
        )

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """The wrapped engine's stats plus an ``"async"`` sub-dict: the
        request count, the engine's ``coalesced_waits`` and the drain
        state.  Per-tenant request counts live in a wrapped
        :class:`ShardedSpMMEngine`'s ``stats["tenants"]`` (its own
        calls) and in the server's ``server.tenants`` (served
        traffic)."""
        out = self.engine.stats
        with self._lock:
            out["async"] = {
                "requests": self._requests,
                "coalesced_waits": out["coalesced_waits"],
                "active": self._active,
                "draining": self._closing,
            }
        return out

    def clear(self) -> None:
        """Clear the wrapped engine and the async counters (not a
        shutdown — the pool keeps serving)."""
        self.engine.clear()
        with self._lock:
            self._requests = 0

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


def install_sharded_default(n_shards: int = 4, **kwargs) -> ShardedSpMMEngine:
    """Opt the process-wide :func:`repro.spmm` default into sharding.

    Builds a :class:`ShardedSpMMEngine` (kwargs as its constructor) and
    installs it via :func:`~repro.serve.engine.set_default_engine`;
    returns it so the caller can read ``stats`` or ``warm_start()``.
    Undo with :func:`repro.reset_default_engine`."""
    engine = ShardedSpMMEngine(n_shards=n_shards, **kwargs)
    set_default_engine(engine)
    return engine
