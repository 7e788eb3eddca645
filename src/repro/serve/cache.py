"""Plan cache with LRU or cost-aware eviction and full accounting.

A plan is the expensive artifact of the Acc-SpMM pipeline (reorder →
BitTCF → schedule); the paper's overhead argument ("for iterative
applications, the overhead of this conversion is minimal") only holds if
repeated traffic actually reuses it.  :class:`PlanCache` is that reuse
point: a bounded, content-keyed cache mapping
``(matrix fingerprint, device, config)`` to built plans.

Eviction policy is selectable:

* ``"lru"`` (default) — classic least-recently-used.
* ``"cost"`` — cost-aware: each entry is scored by its recorded build
  cost times a smoothed observed hit rate
  (``cost_of(plan) * (hits + 1) / (requests_since_insert + 1)``) and the
  *lowest* score is evicted, with ties broken towards the LRU end.  An
  expensive reorder+tile plan with steady traffic outscores a cheap plan
  with the same traffic, so byte-budget pressure discards what is
  cheapest to rebuild — the admission policy the serving roadmap calls
  for, mirrored on disk by :class:`~repro.serve.store.PlanStore`.

Orthogonally to either policy, ``max_idle_seconds`` adds a TTL /
staleness bound: entries that have not been requested for that long are
expired (counted separately from capacity/byte ``evictions``) whenever
limits are enforced — on every insert and on explicit
:meth:`PlanCache.enforce_limits` calls.  A matrix that stops arriving
therefore stops pinning memory, which is the serving roadmap's staleness
policy; :meth:`~repro.serve.store.PlanStore.gc` mirrors it on disk.

The cache also maintains a structural index so that a *value-only* change
(same sparsity pattern, new weights — a training loop updating edge
weights, a solver refreshing coefficients) can be served by repacking the
values through the cached structural plan instead of replanning from
scratch; those repacks are counted separately in the stats.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.runtime import report_unowned


@dataclass
class CacheStats:
    """Counters for one :class:`PlanCache` lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: misses served by repacking values into a cached structural plan
    value_refreshes: int = 0
    #: plans derived by patching a cached base with a structural delta
    delta_patches: int = 0
    #: full plan builds (reorder + tiling + schedule from scratch)
    plans_built: int = 0
    #: misses served by loading a persisted plan from the on-disk store
    store_hits: int = 0
    #: misses that consulted the store and found nothing usable
    store_misses: int = 0
    #: entries expired by the TTL policy (``max_idle_seconds``) — kept
    #: separate from ``evictions``, which counts capacity/byte pressure
    expirations: int = 0
    #: misses that waited on another request's in-flight resolution of
    #: the same key instead of resolving the plan themselves
    coalesced_waits: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "value_refreshes": self.value_refreshes,
            "delta_patches": self.delta_patches,
            "plans_built": self.plans_built,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "expirations": self.expirations,
            "coalesced_waits": self.coalesced_waits,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _EntryMeta:
    """Per-entry accounting for the cost-aware policy."""

    hits: int = 0
    #: value of ``stats.requests`` when the entry was inserted — the
    #: denominator of its smoothed hit rate
    inserted_at: int = 0
    #: ``clock()`` at the last request (or insert) — the TTL signal
    last_used: float = 0.0


@dataclass
class PlanCache:
    """Bounded cache of built plans, keyed by content.

    ``capacity`` bounds the number of cached plans; inserting beyond it
    evicts one entry chosen by ``policy``.  ``max_bytes`` additionally
    bounds the *byte* footprint: sizes come from the ``size_of`` callable
    (the engine passes a plan-byte estimator covering tiling arrays,
    values, and lazily-built executor state), and eviction continues
    until the total fits — always keeping at least one entry, so a
    single over-budget plan still serves.  Sizes are recomputed on
    demand because executors grow entries *after* insertion; call
    :meth:`enforce_limits` after such growth.

    ``policy="cost"`` makes eviction cost-aware (see the module
    docstring); it needs ``cost_of``, a callable mapping a cached plan to
    its rebuild cost in seconds (the engine passes ``build_seconds``).
    Without ``cost_of`` the policy silently degrades to LRU.

    ``max_idle_seconds`` expires entries not requested for that long
    (measured on ``clock``, default ``time.monotonic``; injectable for
    tests).  Expiry runs inside :meth:`enforce_limits` — i.e. on every
    insert and on explicit calls — *before* the capacity/byte passes,
    and unlike those it may empty the cache entirely: an idle entry is
    dead weight even when it is the only one.  An entry requested since
    the cutoff is never expired.

    Keys are opaque hashable tuples (the engine builds them from
    :class:`~repro.serve.fingerprint.MatrixFingerprint` plus device and
    config); values are whatever plan object the caller stores.

    The cache itself is *not* thread-safe — it is the state the owning
    engine's lock guards.  ``owner_lock`` makes that contract checkable:
    when the owner passes its lock and the lock can answer
    ``held_by_current_thread()`` (the sanitizer's
    :class:`~repro.analysis.runtime.TrackedLock` can; a plain
    ``threading.RLock`` cannot, so the check is free in production),
    every mutating or reading entry point asserts the lock is held and
    reports a guarded-access violation otherwise.
    """

    capacity: int = 32
    max_bytes: int | None = None
    size_of: object = None  # callable(plan) -> int, optional
    policy: str = "lru"  # "lru" | "cost"
    cost_of: object = None  # callable(plan) -> seconds, for policy="cost"
    max_idle_seconds: float | None = None  # TTL; None disables expiry
    clock: object = time.monotonic  # injectable time source for the TTL
    #: the owning engine's lock; enables the held-lock assertion above
    owner_lock: object = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    #: structural key -> most recent full key with that structure
    _by_structure: dict = field(default_factory=dict, repr=False)
    #: per-entry hit counters for the cost-aware policy
    _meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("cache max_bytes must be >= 1 (or None)")
        if self.policy not in ("lru", "cost"):
            raise ValueError(
                f"cache policy must be 'lru' or 'cost'; got {self.policy!r}"
            )
        if self.max_idle_seconds is not None and self.max_idle_seconds <= 0:
            raise ValueError("cache max_idle_seconds must be > 0 (or None)")

    def _assert_owned(self) -> None:
        """Report (sanitizer builds only) entry without the owner lock.

        Duck-typed on ``held_by_current_thread``: a plain RLock has no
        such method, so outside sanitizer runs this is one ``getattr``
        returning ``None`` — no branch taken, nothing recorded.
        """
        held = getattr(self.owner_lock, "held_by_current_thread", None)
        if held is not None and not held():
            report_unowned(
                "PlanCache entered without holding its owner lock "
                "(the owning engine's `_lock`)"
            )

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> object | None:
        """Cached plan for ``key``, counting a hit/miss and refreshing LRU."""
        self._assert_owned()
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        meta = self._meta[key]
        meta.hits += 1
        meta.last_used = self.clock()
        return entry

    def peek(self, key: tuple) -> object | None:
        """Cached plan for ``key`` without touching LRU order or stats.

        Used for the re-check after a plan build finished on another
        thread — that request's outcome was already counted."""
        self._assert_owned()
        return self._entries.get(key)

    def peek_structural(self, structural_key: tuple) -> object | None:
        """A cached plan sharing the structure, if any (no hit counted).

        Used by the engine to serve value-only changes via repack; does
        not disturb LRU order or the hit/miss counters — the lookup that
        led here was already counted as a miss.  It *does* refresh the
        TTL signal: serving as a repack base is a real use, and without
        the touch a plan whose traffic arrives purely as value refreshes
        would be expired by ``max_idle_seconds`` mid-stream.
        """
        self._assert_owned()
        full_key = self._by_structure.get(structural_key)
        if full_key is None:
            return None
        entry = self._entries.get(full_key)
        if entry is not None:
            self._meta[full_key].last_used = self.clock()
        return entry

    def put(self, key: tuple, plan: object, structural_key: tuple | None = None) -> None:
        """Insert (or refresh) an entry, evicting beyond the limits."""
        self._assert_owned()
        if key in self._entries:
            self._entries.move_to_end(key)
            self._meta[key].last_used = self.clock()
        else:
            self._meta[key] = _EntryMeta(
                inserted_at=self.stats.requests, last_used=self.clock()
            )
        self._entries[key] = plan
        if structural_key is not None:
            self._by_structure[structural_key] = key
        self.enforce_limits()

    def enforce_limits(self) -> None:
        """Expire idle entries, then evict until count and byte limits hold.

        The TTL pass runs first (an expired entry should not push a live
        one out) and may empty the cache.  For the capacity/byte passes
        at least one entry always survives: a plan bigger than the whole
        budget would otherwise thrash on every request.
        """
        self._assert_owned()
        self.expire_idle()
        while len(self._entries) > self.capacity:
            self._evict_one()
        if self.max_bytes is None or self.size_of is None:
            return
        while len(self._entries) > 1 and self.total_bytes() > self.max_bytes:
            self._evict_one()

    def expire_idle(self) -> int:
        """Drop entries idle longer than ``max_idle_seconds``; their count.

        A no-op without a TTL.  Never touches an entry requested (or
        inserted) since the cutoff.
        """
        self._assert_owned()
        if self.max_idle_seconds is None or not self._entries:
            return 0
        cutoff = self.clock() - self.max_idle_seconds
        stale = [k for k, m in self._meta.items() if m.last_used < cutoff]
        for key in stale:
            self._remove(key)
            self.stats.expirations += 1
        return len(stale)

    def _score(self, key: tuple) -> float:
        """Cost-aware retention score: rebuild cost × smoothed hit rate.

        ``(hits + 1) / (window + 1)`` smoothing keeps a just-inserted
        entry at rate 1 (so a fresh expensive plan is not evicted before
        it could possibly be hit) and decays towards the true per-request
        hit rate as traffic accumulates.
        """
        m = self._meta[key]
        cost = float(self.cost_of(self._entries[key]))
        window = max(0, self.stats.requests - m.inserted_at)
        return cost * (m.hits + 1) / (window + 1)

    def _evict_one(self) -> None:
        if self.policy == "cost" and self.cost_of is not None:
            # iterate LRU-first so equal scores fall back to LRU eviction
            victim = min(self._entries, key=self._score)
        else:
            victim = next(iter(self._entries))  # LRU end
        self._remove(victim)
        self.stats.evictions += 1

    def _remove(self, key: tuple) -> None:
        del self._entries[key]
        self._meta.pop(key, None)
        # drop dangling structural pointers to the removed entry
        stale = [s for s, f in self._by_structure.items() if f == key]
        for s in stale:
            del self._by_structure[s]

    def total_bytes(self) -> int:
        """Current byte footprint of all entries (0 without ``size_of``).

        Recomputed live so entries whose executor was built after
        insertion are charged their real size.
        """
        self._assert_owned()
        if self.size_of is None:
            return 0
        return sum(self.size_of(p) for p in self._entries.values())

    def values(self):
        """The cached plans, LRU-first (stats/introspection; no LRU touch)."""
        self._assert_owned()
        return list(self._entries.values())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries (stats are kept; reset via ``reset_stats``)."""
        self._assert_owned()
        self._entries.clear()
        self._by_structure.clear()
        self._meta.clear()

    def reset_stats(self) -> None:
        self._assert_owned()
        self.stats = CacheStats()
