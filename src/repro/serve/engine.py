"""The plan-reuse serving engine.

:class:`SpMMEngine` fronts repeated ``C = A @ B`` traffic the way a
production service would: every request is keyed by the *content* of its
sparse operand, plans are built once and reused from a
:class:`~repro.serve.cache.PlanCache` (LRU or cost-aware, optionally
byte-budgeted — entries are charged their measured :func:`plan_nbytes`,
prepared executors included), value-only matrix updates are served by
repacking values into the cached structural plan, and steady-state
multiplies replay each plan's compiled executor
(:mod:`repro.kernels.executor`), so only the B-dependent work runs per
request.  With a :class:`~repro.serve.store.PlanStore` attached
(``store=``), plans additionally persist across processes: misses
consult the store before planning, new plans are written back
atomically, and :meth:`SpMMEngine.warm_start` preloads a fresh worker
from disk so its first request is already a cache hit.

One engine serves many matrices, devices and configs concurrently — the
cache key is ``(fingerprint, device, config)``.  Plans are reused across
feature dimensions: the numeric result of
:meth:`~repro.core.planner.AccPlan.multiply` does not depend on the
``feature_dim`` the plan was built with (only simulated profiles do).
"""

from __future__ import annotations

import concurrent.futures as cf
from dataclasses import replace as dc_replace

import numpy as np

from repro.analysis.runtime import audit_guarded, create_lock
from repro.backend import resolve_backend, validate_backend
from repro.core.config import AccConfig
from repro.core.planner import AccPlan, plan as build_plan
from repro.errors import ValidationError
from repro.gpusim.specs import DeviceSpec, get_device
from repro.serve.cache import PlanCache
from repro.serve.container import is_int
from repro.serve.fingerprint import fingerprint
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.tune.policy import resolve_policy
from repro.util.timing import Timer


def plan_nbytes(plan) -> int:
    """Byte estimate of a cached plan (tiling + values + executor state).

    Duck-typed so :class:`~repro.serve.cache.PlanCache` stays agnostic of
    what it stores; objects without an ``nbytes`` estimator cost 0.
    """
    estimator = getattr(plan, "nbytes", None)
    return int(estimator()) if callable(estimator) else 0


def plan_build_cost(plan) -> float:
    """Rebuild cost of a cached plan in seconds (cost-aware eviction).

    Duck-typed like :func:`plan_nbytes`; plans without a recorded
    ``build_seconds`` cost 0 and are therefore evicted first.
    """
    return float(getattr(plan, "build_seconds", 0.0) or 0.0)


@audit_guarded
class SpMMEngine:
    """Serve repeated SpMM traffic through a content-addressed plan cache.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans (LRU eviction beyond it).
    max_bytes:
        Optional byte budget for the cache: each entry is charged its
        :func:`plan_nbytes` (which includes lazily-built prepared
        executors), and LRU eviction keeps the total under budget.  The
        budget is enforced on inserts and after engine-mediated
        multiplies that compiled executor state; a plan fetched via
        :meth:`get_plan` and multiplied *outside* the engine grows its
        entry silently until the next engine-mediated request re-checks.
    exec_max_bytes:
        Optional per-plan budget for executor tile materialisation;
        plans whose dense tiles would exceed it fall back to lazy
        per-chunk decompression (see :mod:`repro.kernels.executor`).
    store:
        Optional cross-process persistence: a
        :class:`~repro.serve.store.PlanStore` (or a directory path, which
        builds one).  Cache misses consult the store before planning from
        scratch, and newly built plans are persisted back (best-effort,
        write-temp-then-rename).  Corrupt store entries are quarantined
        by the store and served as ordinary misses — the engine's
        counters and byte accounting stay consistent either way.
    policy:
        Eviction policy for the in-memory cache: ``"lru"`` (default) or
        ``"cost"`` — rank entries by recorded ``build_seconds`` times
        observed hit rate, so expensive reorder+tile plans survive
        byte-budget pressure (see :mod:`repro.serve.cache`).
    max_idle_seconds:
        Optional TTL for cached plans: entries not requested for this
        long are expired whenever cache limits are enforced, so a matrix
        that stops arriving stops pinning memory (counted in
        ``stats["expirations"]``; see :mod:`repro.serve.cache`).
    numerics:
        Default numerics tier for requests that do not name their own —
        ``"exact"`` (bit-for-bit, the default), ``"tf32"``, ``"fast"``,
        or a :class:`repro.tune.NumericsPolicy` (see
        ``docs/NUMERICS.md``).  A per-request ``numerics=`` on
        :meth:`spmm`/:meth:`multiply_many` wins over this default.
    autotune:
        Run the per-matrix autotuner (:func:`repro.tune.autotune`) on
        cache-miss builds, baking the winning tile shape, kernel, and
        strategy hint into the plan.  The verdict persists with the plan
        (container v3), so with a store attached tuning happens at most
        once per matrix across processes.
    device, config:
        Defaults applied when a request does not name its own.

    Thread safety: one engine serves concurrent threads.  Cache state is
    guarded by one internal lock, held only for dict-sized operations —
    never across a plan build or a multiply.  :meth:`get_plan` is the
    one place that coalesces misses: concurrent misses on the *same*
    content run one resolution while the others wait for its plan or
    exception, and different-key traffic proceeds (see
    ``docs/CONCURRENCY.md``).
    """

    #: lock discipline, enforced statically (REP101) and — under
    #: REPRO_LOCK_SANITIZER=1 — dynamically (repro.analysis.runtime)
    _GUARDED_BY_ = {"cache": "_lock", "_inflight": "_lock"}

    def __init__(
        self,
        capacity: int = 32,
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
        # the lock exists before the state it guards, so the cache can
        # carry an owner_lock reference for its own held-lock assertion
        self._lock = create_lock("SpMMEngine._lock")
        self.cache = PlanCache(
            capacity=capacity,
            max_bytes=max_bytes,
            size_of=plan_nbytes,
            policy=policy,
            cost_of=plan_build_cost,
            max_idle_seconds=max_idle_seconds,
            owner_lock=self._lock,
        )
        if store is not None and not hasattr(store, "get"):
            from repro.serve.store import PlanStore

            store = PlanStore(root=store)
        self.store = store
        self.default_device = get_device(device)
        self.default_config = config or AccConfig.paper_default()
        self.exec_max_bytes = exec_max_bytes
        #: engine-default numerics tier (validated up front, so a typo
        #: fails at construction rather than on the first request)
        self.default_numerics = resolve_policy(numerics)
        #: engine-default execution arm (name or DeviceBackend instance);
        #: validated by name only — resolution stays lazy so the cupy
        #: probe runs on first use, not at engine construction
        validate_backend(backend)
        self.backend = backend
        self.autotune = bool(autotune)
        #: plan key -> the future of its one in-flight resolution
        self._inflight: dict[tuple, cf.Future] = {}

    # ------------------------------------------------------------------
    def get_plan(
        self,
        A: CSRMatrix | COOMatrix,
        feature_dim: int = 128,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> AccPlan:
        """The cached plan for ``A`` on ``device``/``config`` — built,
        value-refreshed, or served straight from the cache.

        ``A`` is keyed by :func:`~repro.serve.fingerprint.fingerprint`,
        which hashes a matrix object once and then returns the value
        stored on it, so callers that already hashed ``A`` (the server)
        pay nothing for the repeat.  A ``COOMatrix`` converts once: its
        CSR form is stored on it too.

        Single flight: the first miss on a key resolves the plan outside
        the engine lock, and every miss on that key that arrives
        meanwhile waits for the same plan or exception (counted in
        ``stats["coalesced_waits"]``).  A failure is not remembered: the
        next request starts a fresh resolution.
        """
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        fp = fingerprint(csr)
        key = (fp.full, spec.name, cfg)
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            fut = self._inflight.get(key)
            owner = fut is None
            if owner:
                fut = self._inflight[key] = cf.Future()
            else:
                self.cache.stats.coalesced_waits += 1
        if not owner:
            return fut.result()
        try:
            p = self._resolve(csr, fp, key, feature_dim, spec, cfg)
        except BaseException as exc:
            with self._lock:
                # _resolve retires the key before the store write, which
                # can still raise (MemoryError in to_bytes); by then the
                # key may belong to a later owner, so remove only ours
                if self._inflight.get(key) is fut:
                    del self._inflight[key]
            fut.set_exception(exc)
            raise
        fut.set_result(p)
        return p

    def _resolve(self, csr, fp, key, feature_dim, spec, cfg) -> AccPlan:
        """The owner's half of :meth:`get_plan`: resolve a missing plan,
        insert it and retire ``key`` from the in-flight map in one hold
        of the engine lock, so no request finds the key neither cached
        nor in flight; then persist a full build."""
        structural_key = (fp.structural, spec.name, cfg)
        with self._lock:
            base = self.cache.peek_structural(structural_key)
        # resolution order: in-memory structural repack is the cheapest
        # miss path, then the on-disk store (mmap load, no replan), then
        # a full build.  Store I/O and plan builds run outside the lock.
        p = None
        outcome = "refresh" if base is not None else None
        if base is None and self.store is not None:
            p = self.store.get(fp, spec.name, cfg)  # never raises
            outcome = "store" if p is not None else None
            if p is not None:
                # the writer's materialisation budget must not leak into
                # this engine, which re-applies its own below.  "tuned"
                # is deliberately NOT scrubbed: it is derived from the
                # matrix, and dropping it would waste the amortised
                # autotuning.
                p.tc_plan.meta.pop("exec_max_bytes", None)
        if p is None and base is not None:
            p = self._refresh_values(base, csr)
        if p is None:
            p = build_plan(
                csr,
                feature_dim=feature_dim,
                device=spec,
                config=cfg,
                autotune=self.autotune,
            )
            outcome = "build"
        if self.exec_max_bytes is not None:
            p.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
        if outcome == "build" and self.store is not None:
            # compile the executor now, before persisting, so the stored
            # entry carries the exec structural payload — without this
            # the engine always wrote plans before any executor existed
            # and warm-started workers re-derived exec preparation from
            # scratch
            p.prepare(feature_dim)
        with self._lock:
            stats = self.cache.stats
            if outcome == "refresh":
                stats.value_refreshes += 1
            elif outcome == "store":
                stats.store_hits += 1
            else:
                stats.plans_built += 1
                if self.store is not None:
                    stats.store_misses += 1
            self.cache.put(key, p, structural_key=structural_key)
            del self._inflight[key]
        if outcome == "build" and self.store is not None:
            # best-effort persistence (atomic write-then-rename); failures
            # are counted on the store, never raised.  Only full builds
            # are persisted: value refreshes under training traffic would
            # write one multi-MB entry per weight update, keyed by values
            # digests that never recur
            self.store.put(fp, spec.name, cfg, p)
        return p

    def lookup(
        self,
        fp,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ) -> AccPlan | None:
        """Cache-only probe by fingerprint: the plan, or ``None``.

        Count-free: neither outcome touches the hit/miss counters, LRU
        order, or TTL recency, so tools and benchmarks can read a cached
        plan without skewing the request statistics.  Never builds,
        never touches the store, never waits on an in-flight resolution.
        """
        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        key = (fp.full, spec.name, cfg)
        with self._lock:
            return self.cache.peek(key)

    def apply_delta(
        self,
        fp,
        added=None,
        removed=None,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
    ):
        """Derive, cache, and persist a plan for a structural edit.

        ``fp`` is the fingerprint of the *base* matrix, which must be
        resolvable — from the in-memory cache or the attached store;
        streaming callers serve the full matrix once, then send deltas.
        ``added``/``removed`` follow
        :meth:`~repro.core.planner.AccPlan.apply_delta` (``added`` may be
        a prebuilt :class:`~repro.sparse.delta.GraphDelta`).  Returns
        ``(new_fingerprint, new_plan)``; the derived plan is inserted
        under its own content key, so follow-up :meth:`spmm` traffic on
        the edited matrix is a pure cache hit, and chained deltas can
        name ``new_fingerprint`` as their base.

        With a store attached, the derived plan is persisted whole under
        ``new_fingerprint`` (:meth:`~repro.serve.store.PlanStore.put`),
        like a fresh build, so any worker loads it with one map of one
        file; its ``build_seconds`` counts the base's build, so the
        store's admission and gc price it as a rebuild would cost.
        ``apply_delta`` is pure on the base plan, so concurrent deltas
        on one base are not coalesced — last insert wins under the
        engine lock.
        """
        from repro.sparse.delta import GraphDelta

        spec = get_device(device) if device is not None else self.default_device
        cfg = config or self.default_config
        if isinstance(added, GraphDelta):
            if removed is not None:
                raise ValidationError(
                    "pass either a GraphDelta or added/removed arrays, not both"
                )
            delta = added
        else:
            delta = GraphDelta.from_edges(added=added, removed=removed)
        key = (fp.full, spec.name, cfg)
        with self._lock:
            base = self.cache.get(key)
        if base is None and self.store is not None:
            base = self.store.get(fp, spec.name, cfg)  # never raises
            if base is not None:
                with self._lock:
                    self.cache.stats.store_hits += 1
                self._adopt(base, fp=fp)
        if base is None:
            raise ValidationError(
                "no cached or stored plan for the delta's base fingerprint; "
                "serve the full matrix once before streaming deltas against it"
            )
        new_plan = base.apply_delta(delta)
        if self.exec_max_bytes is not None:
            new_plan.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
        new_fp = fingerprint(new_plan.csr)
        new_key = (new_fp.full, spec.name, cfg)
        new_structural = (new_fp.structural, spec.name, cfg)
        with self._lock:
            self.cache.stats.delta_patches += 1
            self.cache.put(new_key, new_plan, structural_key=new_structural)
        if self.store is not None:
            self.store.put(new_fp, spec.name, cfg, new_plan)  # best-effort
        return new_fp, new_plan

    @staticmethod
    def _refresh_values(base: AccPlan, csr: CSRMatrix) -> AccPlan:
        """New plan for a value-only change: repack values through the
        cached structural plan (reorder/tiling/schedule are reused)."""
        tc = base.tc_plan
        timer = Timer()
        with timer:
            same_layout = tc.reorder.row_perm.is_identity()
            csr_r = csr if same_layout else tc.reorder.apply(csr)
            vals_packed = csr_r.vals[tc.tiling.perm_nnz]
            # dc_replace is shallow and meta is mutable (exec_max_bytes
            # lives there): give the refreshed plan its own copy so later
            # prepare() calls cannot leak across plans.  exec_cache is
            # init=False, so the stale executor — which bakes the old
            # values in — is dropped automatically.
            new_tc = dc_replace(
                tc,
                csr_reordered=csr_r,
                vals_packed=vals_packed,
                meta=dict(tc.meta),
            )
        return AccPlan(
            csr=csr,
            config=base.config,
            device=base.device,
            feature_dim=base.feature_dim,
            tc_plan=new_tc,
            build_seconds=timer.elapsed,
            kernel=base.kernel,
        )

    # ------------------------------------------------------------------
    def warm_start(self, limit: int | None = None) -> int:
        """Preload persisted plans into the in-memory cache.

        Selects the most-expensive-to-rebuild entries (bounded by
        ``limit`` and the cache capacity, so no plan is deserialised
        just to be evicted) and inserts them *cheapest-first*, leaving
        the expensive plans at the MRU end — if byte pressure evicts
        during warm-up, it discards what is cheapest to rebuild.  The
        hit/miss counters are untouched: warm-start is provisioning,
        not traffic.  Returns the number of plans inserted; 0 when no
        store is attached.  ``limit`` is ``None`` or an int >= 0
        (anything else raises :class:`~repro.errors.ValidationError`).

        After ``warm_start()``, requests for stored content are pure
        cache hits: no planning, no store I/O (verifiable via
        ``stats["plans_built"] == 0``).
        """
        if limit is not None and (not is_int(limit) or limit < 0):
            raise ValidationError(
                f"warm_start limit must be None or an int >= 0; got {limit!r}"
            )
        if self.store is None:
            return 0
        entries = sorted(
            self.store.entries(), key=lambda e: -e.build_seconds
        )
        cap = self.capacity if limit is None else min(limit, self.capacity)
        loaded = 0
        for entry in reversed(entries[:cap]):
            plan_obj = self.store._load(entry.path)
            if plan_obj is None:
                continue
            if self._adopt(plan_obj):
                loaded += 1
        return loaded

    def _adopt(self, plan_obj: AccPlan, fp=None) -> bool:
        """Insert a store-loaded plan into the cache (warm-start path).

        Applies the same scrubbing as a store hit (the writer's
        ``exec_max_bytes`` must not leak into this engine), then inserts
        under the engine lock.  ``fp`` skips the re-fingerprint when the
        caller holds one the store already checked against the entry's
        header (the delta path's base); without it the fingerprint is
        recomputed, which doubles as an integrity check on the mapped
        arrays.
        Returns ``False`` when the content is already cached.
        """
        # scrub the writer's budget, keep the matrix-derived "tuned" verdict
        plan_obj.tc_plan.meta.pop("exec_max_bytes", None)
        if self.exec_max_bytes is not None:
            plan_obj.tc_plan.meta["exec_max_bytes"] = self.exec_max_bytes
        if fp is None:
            fp = fingerprint(plan_obj.csr)
        key = (fp.full, plan_obj.device.name, plan_obj.config)
        structural_key = (
            fp.structural, plan_obj.device.name, plan_obj.config
        )
        with self._lock:
            if key in self.cache:
                return False
            self.cache.put(key, plan_obj, structural_key=structural_key)
        return True

    # ------------------------------------------------------------------
    def spmm(
        self,
        A: CSRMatrix | COOMatrix,
        B: np.ndarray,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """``C = A @ B`` through the plan cache.

        Zero-dimension operands (e.g. an empty mini-batch selection) are
        answered directly — their product is trivially empty and the
        planner cannot tile them.  ``numerics`` overrides the engine's
        default tier for this request only; ``backend`` likewise
        overrides the engine's execution arm (see :mod:`repro.backend`)."""
        # dtype coercion is AccPlan.multiply's job
        return self._multiply(
            A, np.asarray(B), False, device, config, numerics, backend
        )

    def multiply_many(
        self,
        A: CSRMatrix | COOMatrix,
        Bs,
        device: DeviceSpec | str | None = None,
        config: AccConfig | None = None,
        numerics=None,
        backend=None,
    ) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` through the plan cache.

        ``Bs`` is a ``(batch, n_cols, N)`` array or a sequence of 2-D
        matrices; the cached plan's tiles are decompressed once for the
        whole batch (one device upload on the cupy arm).  ``numerics``
        and ``backend`` override the engine's defaults as in
        :meth:`spmm`.
        """
        if not isinstance(Bs, np.ndarray):
            Bs = np.stack([np.asarray(b) for b in Bs])
        return self._multiply(A, Bs, True, device, config, numerics, backend)

    def _multiply(self, A, B, batched, device, config, numerics, backend):
        """The body of :meth:`spmm` (``B`` is ``(K, N)``) and
        :meth:`multiply_many` (``B`` is ``(batch, K, N)``)."""
        csr = coo_to_csr(A) if isinstance(A, COOMatrix) else A
        if csr.n_rows == 0 or csr.n_cols == 0:
            if B.ndim != 2 + batched or B.shape[-2] != csr.n_cols:
                want = "(batch, {}, N)" if batched else "({}, N)"
                raise ValidationError(
                    f"B must be {want.format(csr.n_cols)}; got {B.shape}"
                )
            return np.zeros(
                B.shape[:-2] + (csr.n_rows, B.shape[-1]), dtype=np.float32
            )
        policy = (
            resolve_policy(numerics)
            if numerics is not None
            else self.default_numerics
        )
        p = self.get_plan(
            csr, feature_dim=B.shape[-1], device=device, config=config
        )
        eff_backend = backend if backend is not None else self.backend
        was_prepared = self._is_prepared(p, B.shape[-1], policy)
        run = p.multiply_many if batched else p.multiply
        C = run(B, numerics=policy, backend=eff_backend)
        # only a multiply that built executor state can have grown the
        # entry enough to matter; steady-state hits skip the re-check
        # (and its O(entries) byte walk under the engine lock)
        if not was_prepared:
            self.enforce_limits()
        return C

    @staticmethod
    def _is_prepared(p: AccPlan, feature_dim: int, numerics=None) -> bool:
        """True when a multiply at ``feature_dim`` under ``numerics``
        will compile nothing (that tier's executor is built and its
        chunk program for this N-class cached)."""
        ex = p.executor_for(numerics)
        return ex is not None and ex.is_prepared_for(feature_dim)

    # ------------------------------------------------------------------
    def enforce_limits(self) -> None:
        """Apply the TTL, byte budget and capacity now.  Inserts and
        executor-compiling multiplies do this on their own; steady
        all-hit traffic does neither, so an operator who wants idle
        plans released calls this on a timer (it holds the engine lock
        only for the sweep; see ``docs/CONCURRENCY.md``)."""
        with self._lock:
            self.cache.enforce_limits()

    @property
    def capacity(self) -> int:
        """Slot capacity of the in-memory cache (a lock-held read, so
        callers never see the cache mid-mutation)."""
        with self._lock:
            return self.cache.capacity

    @property
    def stats(self) -> dict:
        """Cache counters plus occupancy and executor-prep accounting.

        The cache counters (``hits``/``misses``/``evictions``/...) are
        lifetime totals; ``cached_bytes``, ``prepared_*`` and
        ``prep_hits``/``prep_misses`` are *point-in-time* sums over the
        currently cached plans — they shrink when a prepared plan is
        evicted.  With a store attached, a ``"store"`` sub-dict reports
        this process's store traffic (hits/misses/puts/quarantines) —
        in-memory counters only; use ``engine.store.as_dict()`` for the
        on-disk entry count and byte footprint (it scans the directory).
        A ``"backend"`` sub-dict names the execution arm serving this
        engine's default traffic; on the cupy arm it includes transfer
        counts and resident ``device_bytes`` (see ``docs/GPU.md``).

        One consistent snapshot: counters, occupancy and configuration
        are all read under a single hold of the engine lock, so the
        reported numbers describe one moment of the cache rather than a
        torn mix (this was historically a set of unlocked reads — the
        exact class of bug REP101 now flags).
        """
        with self._lock:
            plans = self.cache.values()
            cached_bytes = self.cache.total_bytes()
            counters = self.cache.stats.as_dict()
            capacity = self.cache.capacity
            max_bytes = self.cache.max_bytes
            policy = self.cache.policy
        # exec_cache is a tier-keyed dict: count plans with at least one
        # compiled executor, sum prep accounting over every tier
        per_plan = [
            list(
                (
                    getattr(getattr(p, "tc_plan", None), "exec_cache", None)
                    or {}
                ).values()
            )
            for p in plans
        ]
        executors = [ex for exs in per_plan for ex in exs]
        out = {
            **counters,
            "cached_plans": len(plans),
            "capacity": capacity,
            "cached_bytes": cached_bytes,
            "max_bytes": max_bytes,
            "policy": policy,
            "prepared_plans": sum(1 for exs in per_plan if exs),
            "prepared_bytes": sum(ex.nbytes for ex in executors),
            "prep_hits": sum(ex.stats.prep_hits for ex in executors),
            "prep_misses": sum(ex.stats.prep_misses for ex in executors),
        }
        # the resolved arm serving this engine's default traffic; on the
        # cupy arm the info carries transfers/device_bytes accounting
        out["backend"] = resolve_backend(self.backend).info()
        if self.store is not None:
            out["store"] = self.store.counters()
        return out

    def clear(self) -> None:
        """Drop every cached plan and reset the counters.  Resolutions
        in flight are left to finish; their plans land in the emptied
        cache."""
        with self._lock:
            self.cache.clear()
            self.cache.reset_stats()


# ----------------------------------------------------------------------
# process-wide default engine (what `repro.spmm` routes through)
# ----------------------------------------------------------------------
_default_engine: SpMMEngine | None = None
_default_lock = create_lock("repro.serve.engine._default_lock")


def default_engine():
    """The lazily-created process-wide engine behind :func:`repro.spmm`.

    Byte-budgeted rather than merely slot-bounded: each cached plan pins
    the matrix, its reordered copy, the tiling, and (once multiplied) its
    prepared executor, so the cache is capped at 256 MB of measured plan
    bytes — which lets the slot count be generous for small-matrix
    traffic.  Traffic that wants a bigger working set should build its
    own :class:`SpMMEngine`; one-off multiplications should pass
    ``use_cache=False``.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = SpMMEngine(capacity=64, max_bytes=256 << 20)
        return _default_engine


def reset_default_engine() -> None:
    """Discard the process-wide engine (tests; freeing cached plans).

    The next :func:`default_engine` call lazily recreates it.
    """
    global _default_engine
    with _default_lock:
        _default_engine = None
