"""One engine under concurrent and async traffic, TTL eviction, warm
starts, version compat.

M simultaneous misses on one matrix build exactly one plan (threaded
and async, asserted via stats), a delta-derived plan is a cache hit,
``max_idle_seconds`` expires idle entries in both the in-memory cache
and the on-disk store — never one used since the cutoff — a warm start
spends its budget on the priciest plans, and containers older than the
v4 floor quarantine as version errors.  Every engine layer answers the
same inputs with the same bits.
"""

from __future__ import annotations

import asyncio
import struct
import sys
import threading
import unittest.mock as mock
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core.planner import plan as build_plan
from repro.errors import EngineClosedError, StoreVersionError, ValidationError
from repro.serve import (
    AsyncSpMMEngine,
    SpMMEngine,
    default_engine,
    fingerprint,
    reset_default_engine,
)
from repro.serve.cache import PlanCache
from repro.serve.serial import (
    MIN_PLAN_FORMAT_VERSION,
    PLAN_FORMAT_VERSION,
    plan_from_bytes,
)
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import erdos_renyi

from conftest import bits_equal
from engine_gate import until, wait_until


def make_csr(seed=0, n=256, deg=8.0):
    return coo_to_csr(erdos_renyi(n, avg_degree=deg, seed=seed))


def make_b(csr, n=32, seed=9):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


def patched_version(data: bytes, version: int) -> bytes:
    """A container blob with its fixed-head version field rewritten."""
    out = bytearray(data)
    struct.pack_into("<I", out, 8, version)
    return bytes(out)


# ----------------------------------------------------------------------
# the count-free probe
# ----------------------------------------------------------------------
class TestLookup:
    def test_lookup_is_count_free(self):
        eng = SpMMEngine()
        A = make_csr(seed=5)
        fp = fingerprint(A)
        assert eng.lookup(fp) is None
        assert eng.stats["misses"] == 0  # miss left for get_plan to count
        eng.spmm(A, make_b(A))
        assert eng.lookup(fp) is not None
        assert eng.stats["hits"] == 0  # probe never counts; spmm will


# ----------------------------------------------------------------------
# concurrency: exactly-one-build, identical results
# ----------------------------------------------------------------------
def run_stress(eng, matrices, n_threads=16):
    """All threads hammer all matrices; first arrivals race the miss."""
    barrier = threading.Barrier(n_threads)
    refs = {
        i: SpMMEngine().spmm(A, make_b(A, seed=i))
        for i, A in enumerate(matrices)
    }
    failures = []

    def worker(tid):
        barrier.wait()
        for i, A in enumerate(matrices):
            C = eng.spmm(A, make_b(A, seed=i))
            if not np.array_equal(C, refs[i]):
                failures.append((tid, i))

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))
    assert not failures


def run_held_miss(eng, A, B, n_threads=16):
    """``n_threads`` threads miss on ``A`` at once and the one build is
    held until every other thread waits on it; returns each thread's C.

    ``run_stress`` lets late arrivals be plain hits; here all
    ``n_threads - 1`` followers take the single-flight wait.
    """

    def held_build(*args, **kwargs):
        assert wait_until(
            lambda: eng.stats["coalesced_waits"] == n_threads - 1
        )
        return build_plan(*args, **kwargs)

    barrier = threading.Barrier(n_threads)

    def worker(_):
        barrier.wait(60)
        return eng.spmm(A, B)

    with mock.patch("repro.serve.engine.build_plan", side_effect=held_build):
        with ThreadPoolExecutor(n_threads) as pool:
            return list(pool.map(worker, range(n_threads)))


class TestConcurrentAccess:
    N_THREADS = 16

    def _stress(self, eng, matrices):
        run_stress(eng, matrices, self.N_THREADS)

    def test_exactly_one_build_under_simultaneous_misses(self):
        eng = SpMMEngine()
        self._stress(eng, [make_csr(seed=7)])
        s = eng.stats
        assert s["plans_built"] == 1  # 16 threads, one matrix, one build
        assert s["requests"] == self.N_THREADS
        assert s["hits"] + s["coalesced_waits"] + 1 == self.N_THREADS

    def test_exactly_one_build_per_matrix_mixed_workload(self):
        eng = SpMMEngine()
        matrices = [make_csr(seed=s) for s in range(4)]
        self._stress(eng, matrices)
        assert eng.stats["plans_built"] == len(matrices)

    def test_held_build_coalesces_every_threaded_miss(self):
        A = make_csr(seed=8)
        B = make_b(A)
        ref = SpMMEngine().spmm(A, B)
        eng = SpMMEngine()
        outs = run_held_miss(eng, A, B, self.N_THREADS)
        assert all(np.array_equal(C, ref) for C in outs)
        s = eng.stats
        assert s["plans_built"] == 1
        assert s["coalesced_waits"] == self.N_THREADS - 1
        assert s["hits"] == 0  # a waiter takes the owner's plan, no probe
        assert s["requests"] == self.N_THREADS


# ----------------------------------------------------------------------
# the same stress, under the runtime lock sanitizer (PR 6)
# ----------------------------------------------------------------------
class TestSanitizedStress:
    """16-thread stress with REPRO_LOCK_SANITIZER semantics active.

    Engines are built *after* enabling, so every engine/build/tenant
    lock is a TrackedLock and every ``_GUARDED_BY_`` field read is
    audited; the acceptance bar is zero lock-order inversions and zero
    unlocked guarded-field accesses under real contention.
    """

    N_THREADS = 16

    @pytest.fixture
    def sanitizer(self):
        from repro.analysis import runtime as rt

        rt.enable()
        rt.reset()
        rt.install_guard_audit()
        yield rt
        rt.uninstall_guard_audit()
        rt.disable()
        rt.reset()

    def test_stress_is_violation_free(self, sanitizer):
        eng = SpMMEngine()
        run_stress(eng, [make_csr(seed=s) for s in range(3)], self.N_THREADS)
        _ = eng.stats  # the historically-racy snapshot path
        assert eng.stats["plans_built"] == 3
        assert sanitizer.violations() == []

    def test_coalesced_waits_are_violation_free(self, sanitizer):
        # every follower blocks on the owner's future: the single-flight
        # handoff runs N-1 times under the audit
        eng = SpMMEngine()
        A = make_csr(seed=31)
        run_held_miss(eng, A, make_b(A), self.N_THREADS)
        assert eng.stats["coalesced_waits"] == self.N_THREADS - 1
        assert sanitizer.violations() == []

    def test_store_backed_stress_is_violation_free(self, sanitizer, tmp_path):
        eng = SpMMEngine(store=tmp_path / "plans")
        run_stress(eng, [make_csr(seed=41)], self.N_THREADS)
        warm = SpMMEngine(store=tmp_path / "plans")
        assert warm.warm_start() == 1
        _ = warm.stats
        assert sanitizer.violations() == []

    def test_async_traffic_is_violation_free(self, sanitizer):
        A = make_csr(seed=51)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine() as eng:
                eng.set_tenant_numerics("t1", "exact")  # a guarded pin
                await asyncio.gather(
                    *[eng.multiply(A, B, tenant=f"t{i % 2}") for i in range(8)]
                )
                return eng.stats

        stats = asyncio.run(main())
        assert stats["plans_built"] == 1
        assert sanitizer.violations() == []

    def test_concurrent_deltas_are_violation_free(self, sanitizer):
        n_threads, n_deltas = 8, 3
        # room for all 56 plans (8 bases, 24 links, 24 follow-up edits)
        eng = SpMMEngine(capacity=64)
        mats = [make_csr(seed=70 + t, n=96, deg=4.0) for t in range(n_threads)]
        chains: list[list] = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def stream(t):
            A = mats[t]
            eng.spmm(A, make_b(A, n=8))
            fp = fingerprint(A)
            barrier.wait(60)
            for step in range(n_deltas):
                fp, p = eng.apply_delta(
                    fp, added=[(step, (7 * t + step) % A.n_cols, 1.0 + step)]
                )
                chains[t].append((fp, p))

        # frequent thread switches, so derived-plan inserts interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(n_threads) as pool:
                list(pool.map(stream, range(n_threads)))
        finally:
            sys.setswitchinterval(interval)
        derived = [link for chain in chains for link in chain]
        for fp, p in derived:
            # every derived plan is a cache hit
            hits, misses = eng.stats["hits"], eng.stats["misses"]
            B = make_b(p.csr, n=8)
            assert np.array_equal(eng.spmm(p.csr, B), p.multiply(B))
            assert (eng.stats["hits"], eng.stats["misses"]) == (
                hits + 1, misses
            )
            # no store: the next delta resolves its base from memory
            eng.apply_delta(fp, added=[(0, 0, 0.5)])
        patches = eng.stats["delta_patches"]
        assert patches == n_threads * n_deltas + len(derived)
        assert sanitizer.violations() == []


# ----------------------------------------------------------------------
# the async facade
# ----------------------------------------------------------------------
class TestAsyncEngine:
    def test_concurrent_misses_coalesce_to_one_build(self):
        A = make_csr(seed=10)
        B = make_b(A)
        ref = SpMMEngine().spmm(A, B)
        M = 12

        async def main():
            # M workers: every request reaches get_plan at once
            async with AsyncSpMMEngine(max_workers=M) as eng:

                def held_build(*args, **kwargs):
                    # hold the build until every other request waits on
                    # it; a straggler arriving after the build would be
                    # a plain hit and coalesced_waits would undercount
                    assert wait_until(
                        lambda: eng.stats["coalesced_waits"] == M - 1
                    )
                    return build_plan(*args, **kwargs)

                with mock.patch(
                    "repro.serve.engine.build_plan", side_effect=held_build
                ):
                    outs = await asyncio.gather(
                        *[
                            eng.multiply(A, B, tenant=f"t{i % 3}")
                            for i in range(M)
                        ]
                    )
                return outs, eng.stats

        outs, stats = asyncio.run(main())
        for C in outs:
            assert np.array_equal(C, ref)
        assert stats["plans_built"] == 1
        assert stats["coalesced_waits"] == M - 1
        assert stats["requests"] == M  # one cache lookup per request
        assert stats["async"]["coalesced_waits"] == M - 1

    def test_held_build_does_not_block_cached_traffic(self):
        # one shared engine lock: matrix X's build is held while a
        # cached multiply on matrix Y runs on the second pool worker
        X, Y = make_csr(seed=18), make_csr(seed=19)
        B = make_b(X)
        held, release = threading.Event(), threading.Event()

        def held_build(*args, **kwargs):
            held.set()
            assert release.wait(60)
            return build_plan(*args, **kwargs)

        async def main():
            async with AsyncSpMMEngine(
                engine=SpMMEngine(), max_workers=2
            ) as eng:
                want = await eng.multiply(Y, B)
                with mock.patch(
                    "repro.serve.engine.build_plan", side_effect=held_build
                ):
                    building = asyncio.ensure_future(eng.multiply(X, B))
                    try:
                        await until(held.is_set)
                        C = await asyncio.wait_for(eng.multiply(Y, B), 60)
                        still_building = not building.done()
                    finally:
                        release.set()
                    await asyncio.wait_for(building, 60)
                return want, C, still_building, eng.stats

        want, C, still_building, stats = asyncio.run(main())
        assert still_building
        assert bits_equal(C, want)
        assert stats["plans_built"] == 2

    def test_async_multiply_many_and_warm_hits(self):
        A = make_csr(seed=11)
        Bs = np.stack([make_b(A, seed=s) for s in range(2)])
        ref = SpMMEngine()

        async def main():
            async with AsyncSpMMEngine() as eng:
                Cs = await eng.multiply_many(A, Bs)
                C0 = await eng.multiply(A, Bs[0])  # warm: no coalescing
                return Cs, C0, eng.stats

        Cs, C0, stats = asyncio.run(main())
        assert np.array_equal(Cs[0], ref.spmm(A, Bs[0]))
        assert np.array_equal(Cs[1], ref.spmm(A, Bs[1]))
        assert np.array_equal(C0, Cs[0])
        assert stats["plans_built"] == 1

    def test_wraps_an_existing_engine(self):
        inner = SpMMEngine()
        A = make_csr(seed=12)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine(engine=inner) as eng:
                return await eng.multiply(A, B)

        C = asyncio.run(main())
        assert np.array_equal(C, inner.get_plan(A).multiply(B))
        assert inner.stats["plans_built"] == 1

    def test_engine_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            AsyncSpMMEngine(engine=SpMMEngine(), capacity=4)

    def test_keyword_arguments_build_one_engine(self):
        eng = AsyncSpMMEngine(capacity=5, numerics="tf32")
        try:
            assert type(eng.engine) is SpMMEngine
            assert eng.engine.capacity == 5
            assert eng.resolve_numerics().tier == "tf32"
        finally:
            eng.close()

    def test_clear_keeps_tenant_pins(self):
        A = make_csr(seed=14)

        async def main():
            async with AsyncSpMMEngine() as eng:
                eng.set_tenant_numerics("alice", "fast")
                await eng.multiply(A, make_b(A), tenant="alice")
                eng.clear()
                return eng.stats, eng.tenant_numerics_for("alice")

        stats, pin = asyncio.run(main())
        assert stats["cached_plans"] == 0 and stats["requests"] == 0
        assert pin.tier == "fast"

    def test_async_hit_counts_exactly_once_per_request(self):
        A = make_csr(seed=15)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine() as eng:
                for _ in range(3):
                    await eng.multiply(A, B)
                return eng.stats

        stats = asyncio.run(main())
        # one cache lookup per request: a miss, then two hits
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["requests"] == 3

    def test_cancelled_waiter_does_not_poison_coalesced_peers(self):
        A = make_csr(seed=16)
        B = make_b(A)
        ref = SpMMEngine().spmm(A, B)

        async def main():
            async with AsyncSpMMEngine() as eng:
                impatient = asyncio.create_task(
                    asyncio.wait_for(eng.multiply(A, B), timeout=1e-4)
                )
                patient = asyncio.create_task(eng.multiply(A, B))
                timed_out = False
                try:
                    await impatient
                except asyncio.TimeoutError:
                    timed_out = True
                C = await patient  # must not see the peer's cancellation
                return C, timed_out, eng.stats

        C, timed_out, stats = asyncio.run(main())
        assert np.array_equal(C, ref)
        assert stats["plans_built"] == 1
        # the build outlasts the 100us timeout, so the impatient waiter
        # timed out — and only it (otherwise this test proved nothing)
        assert timed_out

    def test_fingerprinted_cached_multiply_is_one_pool_task(self):
        # a matrix that carries its fingerprint needs no hashing hop:
        # the multiply itself is the only work handed to the pool
        A = make_csr(seed=17)
        B = make_b(A)

        async def main():
            async with AsyncSpMMEngine() as eng:
                await eng.multiply(A, B)  # builds; A keeps its fingerprint
                submitted = []
                submit = eng._pool.submit

                def counting_submit(fn, *args, **kwargs):
                    submitted.append(fn)
                    return submit(fn, *args, **kwargs)

                eng._pool.submit = counting_submit
                return await eng.multiply(A, B), submitted

        C, submitted = asyncio.run(main())
        assert len(submitted) == 1
        assert bits_equal(C, SpMMEngine().spmm(A, B))

    def test_a_miss_is_one_pool_task(self):
        # fresh matrices (no stored fingerprint), uncached plans: each
        # request still hands the pool exactly one task
        mats = [make_csr(seed=s) for s in (20, 21, 22)]
        B = make_b(mats[0])

        async def main():
            async with AsyncSpMMEngine() as eng:
                submitted = []
                submit = eng._pool.submit

                def counting_submit(fn, *args, **kwargs):
                    submitted.append(fn)
                    return submit(fn, *args, **kwargs)

                eng._pool.submit = counting_submit
                counts = []
                for call in (
                    lambda: eng.ensure_plan(mats[0]),
                    lambda: eng.multiply(mats[1], B),
                    lambda: eng.multiply_many(mats[2], B[None]),
                ):
                    before = len(submitted)
                    await call()
                    counts.append(len(submitted) - before)
                return counts, eng.stats

        counts, stats = asyncio.run(main())
        assert counts == [1, 1, 1]
        assert stats["plans_built"] == 3
        assert stats["requests"] == 3 and stats["misses"] == 3


# ----------------------------------------------------------------------
# every engine layer on the same inputs
# ----------------------------------------------------------------------
def _layer_input(kind):
    """``(A as passed, A as CSR)`` for one input kind."""
    if kind == "zero-rows":
        csr = CSRMatrix(
            0, 8, np.zeros(1, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float32),
        )
    elif kind == "zero-cols":
        csr = CSRMatrix(
            8, 0, np.zeros(9, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float32),
        )
    else:
        csr = make_csr(seed=30, n=128)
    return (csr_to_coo(csr) if kind == "coo" else csr), csr


def _serve(layer, A, B, batched):
    """``A @ B`` (or the batched product) through one engine layer;
    returns the result and the layer's stats."""
    if layer == "async":
        async def main():
            async with AsyncSpMMEngine() as eng:
                run = eng.multiply_many if batched else eng.multiply
                return await run(A, B), eng.stats

        return asyncio.run(main())
    eng = SpMMEngine()
    run = eng.multiply_many if batched else eng.spmm
    return run(A, B), eng.stats


class TestEveryEngineLayer:
    @pytest.mark.parametrize("layer", ["engine", "async"])
    @pytest.mark.parametrize("kind", ["csr", "coo", "zero-rows", "zero-cols"])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_same_inputs_same_bits(self, layer, kind, batched):
        A, csr = _layer_input(kind)
        Bs = np.stack([make_b(csr, n=16, seed=s) for s in range(2)])
        ref = SpMMEngine()
        if batched:
            B, want = Bs, np.stack([ref.spmm(csr, b) for b in Bs])
        else:
            B, want = Bs[0], ref.spmm(csr, Bs[0])
        C, stats = _serve(layer, A, B, batched)
        assert C.dtype == np.float32 and bits_equal(C, want)
        empty = csr.n_rows == 0 or csr.n_cols == 0
        assert stats["plans_built"] == (0 if empty else 1)
        # a B of the wrong height is refused, planned matrix or not
        bad = np.zeros(B.shape[:-2] + (csr.n_cols + 1, 16), np.float32)
        with pytest.raises(ValidationError):
            _serve(layer, A, bad, batched)


# ----------------------------------------------------------------------
# TTL / staleness: in-memory cache
# ----------------------------------------------------------------------
class TestCacheTTL:
    def test_idle_entries_expire_used_entries_survive(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=10.0, clock=lambda: t[0])
        c.put(("a",), 1)
        c.put(("b",), 2)
        t[0] = 8.0
        assert c.get(("b",)) == 2  # refreshes b's recency
        t[0] = 15.0  # a idle 15s (> 10), b idle 7s
        c.enforce_limits()
        assert ("a",) not in c and ("b",) in c
        assert c.stats.expirations == 1 and c.stats.evictions == 0

    def test_ttl_may_empty_the_cache(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a",), 1)
        t[0] = 100.0
        assert c.expire_idle() == 1
        assert len(c) == 0

    def test_insert_driven_expiry(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a",), 1)
        t[0] = 50.0
        c.put(("b",), 2)  # put() enforces limits -> expires a
        assert ("a",) not in c and ("b",) in c

    def test_structural_index_follows_expiry(self):
        t = [0.0]
        c = PlanCache(capacity=8, max_idle_seconds=5.0, clock=lambda: t[0])
        c.put(("a", "v1"), 1, structural_key=("a",))
        t[0] = 50.0
        c.expire_idle()
        assert c.peek_structural(("a",)) is None

    def test_validated(self):
        with pytest.raises(ValueError):
            PlanCache(max_idle_seconds=0.0)

    def test_engine_level_ttl(self):
        eng = SpMMEngine(max_idle_seconds=30.0)
        t = [0.0]
        eng.cache.clock = lambda: t[0]
        A, A2 = make_csr(seed=13), make_csr(seed=14)
        eng.spmm(A, make_b(A))
        t[0] = 60.0  # A idle past the TTL
        eng.spmm(A2, make_b(A2))  # insert sweeps the idle entry
        s = eng.stats
        assert s["expirations"] == 1 and s["cached_plans"] == 1
        # the expired matrix is replanned on its next appearance
        eng.spmm(A, make_b(A))
        assert eng.stats["plans_built"] == 3

    def test_engine_enforce_limits_expires_idle_plans(self):
        # steady all-hit traffic never inserts: the explicit call is what
        # releases idle plans (the runbook's TTL cadence step)
        eng = SpMMEngine(max_idle_seconds=30.0)
        t = [0.0]
        eng.cache.clock = lambda: t[0]
        mats = [make_csr(seed=s) for s in range(4)]
        for A in mats:
            eng.spmm(A, make_b(A))
        assert eng.stats["cached_plans"] == 4
        t[0] = 100.0
        eng.enforce_limits()
        s = eng.stats
        assert s["cached_plans"] == 0 and s["expirations"] == 4


# ----------------------------------------------------------------------
# TTL / staleness: the on-disk store
# ----------------------------------------------------------------------
class TestStoreTTL:
    def _populated(self, tmp_path, n=2):
        store = PlanStore(tmp_path)
        for seed in range(n):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        return store

    def test_gc_drops_idle_keeps_recently_used(self, tmp_path):
        import os
        import time

        store = self._populated(tmp_path, n=2)
        e_old, e_new = store.entries()
        # age both below the cutoff is impossible via mtime alone (the
        # header's saved_at also counts) — so move "now" forward instead
        # and refresh one entry the way real traffic would (a load)
        now = time.time() + 7200.0
        os.utime(e_new.path, times=(now - 10.0, now - 10.0))
        evicted = store.gc(max_idle_seconds=3600.0, now=now)
        assert [e.path for e in evicted] == [e_old.path]
        remaining = store.entries()
        assert [e.path for e in remaining] == [e_new.path]

    def test_gc_never_evicts_used_since_cutoff(self, tmp_path):
        import time

        store = self._populated(tmp_path, n=3)
        # everything was just written: nothing is idle
        assert store.gc(max_idle_seconds=3600.0, now=time.time()) == []
        assert len(store.entries()) == 3

    def test_load_refreshes_recency(self, tmp_path):
        import os
        import time

        store = self._populated(tmp_path, n=1)
        A = make_csr(seed=0)
        p = repro.plan(A, feature_dim=16)
        (entry,) = store.entries()
        ancient = time.time() - 10_000.0
        os.utime(entry.path, times=(ancient, ancient))
        assert store.get(fingerprint(A), p.device.name, p.config) is not None
        (entry,) = store.entries()
        assert entry.mtime > ancient + 5000.0  # load bumped the mtime

    def test_configured_ttl_applies_on_put(self, tmp_path):
        import os

        store = PlanStore(tmp_path, max_idle_seconds=3600.0)
        A0 = make_csr(seed=0)
        p0 = repro.plan(A0, feature_dim=16)
        store.put(fingerprint(A0), p0.device.name, p0.config, p0)
        # put() runs gc when a TTL is configured; fresh entries survive
        assert len(store.entries()) == 1
        assert store.max_idle_seconds == 3600.0
        assert store.as_dict()["max_idle_seconds"] == 3600.0
        assert os.path.isdir(tmp_path)

    def test_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PlanStore(tmp_path, max_idle_seconds=-1.0)

    def test_gc_race_ghost_entry_does_not_evict_live_ones(self, tmp_path):
        # a concurrent gc deletes the cheapest entry between this gc's
        # directory scan and its unlink: the ghost's bytes must leave
        # the budget total instead of forcing live entries out to
        # "make room" for a file that no longer occupies any
        store = PlanStore(tmp_path)
        for seed, cost in ((0, 0.001), (1, 100.0)):
            A = make_csr(seed=seed)
            p = repro.plan(A, feature_dim=16)
            p.build_seconds = cost  # ghost evicts first, live last
            assert store.put(fingerprint(A), p.device.name, p.config, p)
        stale = sorted(store.entries(), key=lambda e: e.build_seconds)
        ghost, live = stale[0], stale[1]
        ghost.path.unlink()  # the "concurrent" gc
        store.entries = lambda now=None: stale  # this gc saw the pre-race scan
        evicted = store.gc(max_bytes=live.nbytes)
        assert evicted == []  # ghost not reported, live not sacrificed
        assert live.path.is_file()

    def test_gc_ttl_race_ghost_entry_is_not_reported(self, tmp_path):
        import time

        store = self._populated(tmp_path, n=2)
        stale = store.entries()
        stale[0].path.unlink()
        store.entries = lambda now=None: stale
        evicted = store.gc(
            max_idle_seconds=3600.0, now=time.time() + 7200.0
        )
        # both are idle; only the one still on disk is evicted/reported
        assert [e.path for e in evicted] == [stale[1].path]


# ----------------------------------------------------------------------
# warm starts from one shared store
# ----------------------------------------------------------------------
def store_priced(tmp_path, costs: dict) -> dict:
    """Persist one plan per seed in ``costs``, each priced at its
    ``build_seconds``; returns seed -> matrix."""
    store = PlanStore(tmp_path)
    mats = {}
    for seed, cost in costs.items():
        A = mats[seed] = make_csr(seed=seed)
        p = repro.plan(A, feature_dim=16)
        p.build_seconds = cost
        assert store.put(fingerprint(A), p.device.name, p.config, p)
    return mats


class TestWarmStart:
    def test_engine_store_from_path(self, tmp_path):
        eng = SpMMEngine(store=tmp_path)
        A = make_csr(seed=5)
        B = make_b(A)
        C0 = eng.spmm(A, B)
        # a second worker warm-starts from the shared directory
        eng2 = SpMMEngine(store=tmp_path)
        assert eng2.warm_start() == 1
        assert eng2.lookup(fingerprint(A)) is not None
        assert np.array_equal(C0, eng2.spmm(A, B))
        s = eng2.stats
        assert s["plans_built"] == 0 and s["hits"] == 1

    def test_warm_start_respects_capacity(self, tmp_path):
        # 3 persisted plans, capacity 1: exactly one plan may be
        # deserialised — loading the others just to evict them is the
        # waste warm_start avoids
        store_priced(tmp_path, {0: 1.0, 1: 1.0, 2: 1.0})
        eng = SpMMEngine(capacity=1, store=tmp_path)
        assert eng.warm_start() == 1
        assert eng.stats["cached_plans"] == 1
        assert eng.stats["evictions"] == 0

    def test_warm_start_limit_spends_on_priciest_plans(self, tmp_path):
        mats = store_priced(tmp_path, {0: 0.001, 1: 100.0})
        eng = SpMMEngine(store=tmp_path)
        assert eng.warm_start(limit=1) == 1
        assert eng.lookup(fingerprint(mats[1])) is not None
        assert eng.lookup(fingerprint(mats[0])) is None

    @pytest.mark.parametrize("limit", [-1, True, 1.5, "2"])
    def test_warm_start_limit_is_an_int_that_is_not_a_bool(
        self, tmp_path, limit
    ):
        # -1 once sliced entries[:-1] and loaded 2 of 3; True loaded 1
        store_priced(tmp_path, {0: 1.0, 1: 2.0, 2: 3.0})
        eng = SpMMEngine(store=tmp_path)
        with pytest.raises(ValidationError, match="limit"):
            eng.warm_start(limit)
        assert eng.stats["cached_plans"] == 0
        assert eng.warm_start(0) == 0

    def test_warm_start_inserts_cheapest_first(self, tmp_path):
        # the priciest plans end at the MRU end, so byte pressure during
        # warm-up evicts what is cheapest to rebuild
        store_priced(tmp_path, {0: 5.0, 1: 0.5, 2: 50.0})
        eng = SpMMEngine(store=tmp_path)
        assert eng.warm_start() == 3
        with eng._lock:
            order = [p.build_seconds for p in eng.cache.values()]
        assert order == [0.5, 5.0, 50.0]  # LRU first


# ----------------------------------------------------------------------
# container version bump: v1 compat, error messages
# ----------------------------------------------------------------------
class TestVersionCompat:
    def test_current_version_is_four_reads_back_to_one(self):
        # the floor rose from 1 to 4: v4 is the only version read
        assert PLAN_FORMAT_VERSION == 4
        assert MIN_PLAN_FORMAT_VERSION == 4

    def test_unknown_version_reports_found_and_expected(self):
        A = make_csr(seed=22)
        blob = repro.plan(A, feature_dim=16).to_bytes()
        for version in (1, 3, 99):  # below the floor, and from the future
            with pytest.raises(StoreVersionError) as exc_info:
                plan_from_bytes(patched_version(blob, version))
            msg = str(exc_info.value)
            assert f"found plan format version {version}," in msg
            assert "expected 4..4" in msg

    def test_quarantine_reason_names_both_versions(self, tmp_path):
        store = PlanStore(tmp_path)
        A = make_csr(seed=23)
        p = repro.plan(A, feature_dim=16)
        fp = fingerprint(A)
        path = store.path_for(store.digest(fp, p.device.name, p.config))
        path.parent.mkdir(parents=True, exist_ok=True)
        for n, version in enumerate((1, 3, 7), start=1):
            path.write_bytes(patched_version(p.to_bytes(), version))
            assert store.get(fp, p.device.name, p.config) is None
            assert store.stats.quarantined == n
            reason = (
                store.quarantine_dir / f"{path.name}.reason"
            ).read_text()
            assert f"found plan format version {version}," in reason
            assert "expected 4..4" in reason

    def test_saved_at_recorded_in_v2_headers(self, tmp_path):
        import time

        before = time.time()
        store = PlanStore(tmp_path)
        A = make_csr(seed=24)
        p = repro.plan(A, feature_dim=16)
        store.put(fingerprint(A), p.device.name, p.config, p)
        (entry,) = store.entries()
        assert entry.meta is not None
        assert before <= float(entry.meta["saved_at"]) <= time.time()
        assert entry.last_used >= before


# ----------------------------------------------------------------------
# the process-wide default engine
# ----------------------------------------------------------------------
class TestDefaultEngine:
    def teardown_method(self):
        reset_default_engine()

    def test_reset_restores_standard_default(self):
        eng = default_engine()
        A = make_csr(seed=30)
        repro.spmm(A, make_b(A))
        assert eng.stats["plans_built"] == 1
        reset_default_engine()
        fresh = default_engine()
        assert isinstance(fresh, SpMMEngine) and fresh is not eng
        assert fresh.stats["cached_plans"] == 0


# ----------------------------------------------------------------------
# drain vs in-flight warm_start (regression: the drain protocol must
# bracket *every* admitted pool submission, warm_start included)
# ----------------------------------------------------------------------
class TestDrainDuringWarmStart:
    def test_drain_waits_for_admitted_warm_start(self):
        """drain() during an in-flight warm_start(): no deadlock, the
        admitted warm-up still delivers its result, new work is
        rejected the moment draining begins."""
        inner = SpMMEngine()
        entered = threading.Event()
        release = threading.Event()

        def gated_warm_start(limit=None):
            entered.set()
            assert release.wait(10), "warm_start was never released"
            return 7

        inner.warm_start = gated_warm_start
        A = make_csr(seed=41)
        B = make_b(A)

        async def main():
            loop = asyncio.get_running_loop()
            eng = AsyncSpMMEngine(engine=inner, max_workers=2)
            warm = asyncio.create_task(eng.warm_start())
            # the warm-up is admitted and running on the pool...
            await loop.run_in_executor(None, entered.wait, 10)
            drain = asyncio.create_task(eng.drain())

            async def until_draining():
                while not eng.stats["async"]["draining"]:
                    await asyncio.sleep(0.001)

            # wait for the drain to begin, not for a fixed time...
            await asyncio.wait_for(until_draining(), timeout=10)
            # ...so the drain must still be waiting on it
            assert not drain.done()
            assert eng.stats["async"]["draining"]
            # and anything submitted after drain() began is rejected
            with pytest.raises(EngineClosedError):
                await eng.multiply(A, B)
            with pytest.raises(EngineClosedError):
                await eng.warm_start()
            release.set()
            warmed = await asyncio.wait_for(warm, timeout=10)
            await asyncio.wait_for(drain, timeout=10)
            # idempotent: a second drain returns immediately
            await asyncio.wait_for(eng.drain(), timeout=10)
            return warmed

        assert asyncio.run(main()) == 7
