"""Plan cache with LRU eviction and full accounting.

A plan is the expensive artifact of the Acc-SpMM pipeline (reorder →
BitTCF → schedule); the paper's overhead argument ("for iterative
applications, the overhead of this conversion is minimal") only holds if
repeated traffic actually reuses it.  :class:`PlanCache` is that reuse
point: a bounded, content-keyed cache mapping
``(matrix fingerprint, device, config)`` to built plans, evicting the
least recently used entry beyond its slot and byte limits.

The cache also maintains a structural index so that a *value-only* change
(same sparsity pattern, new weights — a training loop updating edge
weights, a solver refreshing coefficients) can be served by repacking the
values through the cached structural plan instead of replanning from
scratch; those repacks are counted separately in the stats.
"""

from __future__ import annotations

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
            "coalesced_waits": self.coalesced_waits,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class PlanCache:
    """Bounded cache of built plans, keyed by content.

    ``capacity`` bounds the number of cached plans; inserting beyond it
    evicts the least recently used entry.  ``max_bytes`` additionally
    bounds the *byte* footprint: sizes come from the ``size_of`` callable
    (the engine passes a plan-byte estimator covering tiling arrays,
    values, and lazily-built executor state), and eviction continues
    until the total fits — always keeping at least one entry, so a
    single over-budget plan still serves.  Sizes are recomputed on
    demand because executors grow entries *after* insertion; call
    :meth:`enforce_limits` after such growth.

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
    #: the owning engine's lock; enables the held-lock assertion above
    owner_lock: object = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    #: structural key -> most recent full key with that structure
    _by_structure: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("cache max_bytes must be >= 1 (or None)")

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
        led here was already counted as a miss.
        """
        self._assert_owned()
        full_key = self._by_structure.get(structural_key)
        if full_key is None:
            return None
        return self._entries.get(full_key)

    def put(self, key: tuple, plan: object, structural_key: tuple | None = None) -> None:
        """Insert (or refresh) an entry, evicting beyond the limits."""
        self._assert_owned()
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        if structural_key is not None:
            self._by_structure[structural_key] = key
        self.enforce_limits()

    def enforce_limits(self) -> None:
        """Evict least-recently-used entries until count and byte limits
        hold.

        At least one entry always survives: a plan bigger than the whole
        budget would otherwise thrash on every request.
        """
        self._assert_owned()
        while len(self._entries) > self.capacity:
            self._evict_one()
        if self.max_bytes is None or self.size_of is None:
            return
        while len(self._entries) > 1 and self.total_bytes() > self.max_bytes:
            self._evict_one()

    def _evict_one(self) -> None:
        victim = next(iter(self._entries))  # LRU end
        del self._entries[victim]
        # drop dangling structural pointers to the evicted entry
        stale = [s for s, f in self._by_structure.items() if f == victim]
        for s in stale:
            del self._by_structure[s]
        self.stats.evictions += 1

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

    def reset_stats(self) -> None:
        self._assert_owned()
        self.stats = CacheStats()
