"""Streaming-path integration tests: delta-derived plans through the
store, the engines, and the server — plus the clock-domain TTL
regressions.

Three families of behaviour, matching ``docs/STREAMING.md``:

* **clock domains** — ``StoreEntry.last_used`` must discard recency
  signals that run *ahead* of the reader's clock (a skewed writer's
  ``saved_at`` previously pinned entries immortal against every TTL),
  and ``PlanCache.peek_structural`` must count as a use for the cache
  TTL (a plan serving pure value-refresh traffic was expired
  mid-stream);
* **whole-plan persistence** — ``apply_delta`` stores each derived
  plan whole, as an ``accplan`` at the edited matrix's content address,
  priced at its base's build cost plus the patch, so a fresh engine
  serves it bit-for-bit without building; an ``accdelta`` link left by
  an older store is quarantined once;
* **serving** — ``apply_delta`` on the engines derives/caches/persists
  patched plans, each derived plan is a cache hit under its own
  fingerprint (also after a warm start), and the server's ``delta``
  endpoint patches plans over the wire with results identical to
  shipping the edited matrix whole.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from dataclasses import asdict

import pytest

import repro
from conftest import bits_equal, make_b, random_csr
from repro.core.config import AccConfig
from repro.errors import ServerError, ValidationError
from repro.serve import serial
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.engine import SpMMEngine
from repro.serve.fingerprint import config_fingerprint, fingerprint
from repro.serve.server import ServerConfig, SpMMClient, SpMMServer
from repro.serve.sharded import AsyncSpMMEngine
from repro.serve.store import PlanStore
from repro.sparse.delta import GraphDelta

CFG = AccConfig.paper_default()
DEV = "a800"


def put_full(store, csr, feature_dim=16):
    """Plan ``csr`` and persist it; returns (fingerprint, plan)."""
    p = repro.plan(csr, feature_dim=feature_dim)
    fp = fingerprint(csr)
    assert store.put(fp, DEV, CFG, p)
    return fp, p


# ----------------------------------------------------------------------
# clock domains (the bugfix sweep)
# ----------------------------------------------------------------------
class TestStoreClockDomains:
    def _entry(self, store, tmp_path, monkeypatch, saved_at, mtime):
        """One stored plan with controlled saved_at and mtime."""
        monkeypatch.setattr(serial, "_wall_clock", lambda: saved_at)
        fp, _ = put_full(store, random_csr(32, 32, seed=1))
        path = store.path_for(store.digest(fp, DEV, CFG))
        os.utime(path, (mtime, mtime))
        return fp, path

    def test_future_saved_at_no_longer_pins_entry_alive(
        self, tmp_path, monkeypatch
    ):
        """The regression: a writer whose wall clock ran ahead stamped
        ``saved_at`` in the future; taking max(mtime, saved_at) made the
        entry's idle time negative forever — immortal to every TTL."""
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=5e9, mtime=900.0)
        (entry,) = store.entries()
        assert entry.last_used == 900.0  # foreign-domain signal discarded
        removed = store.gc(max_idle_seconds=50.0)
        assert len(removed) == 1  # idle 100s > 50s: evicted, not immortal

    def test_newest_in_domain_signal_wins(self, tmp_path, monkeypatch):
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=950.0, mtime=900.0)
        (entry,) = store.entries()
        assert entry.last_used == 950.0
        assert store.gc(max_idle_seconds=60.0) == []  # idle 50s < 60s

    def test_every_signal_ahead_falls_back_to_scan_time(
        self, tmp_path, monkeypatch
    ):
        """When the *local* clock stepped backwards (all signals ahead),
        idle time reads 0 — eviction waits for the clock to recover
        rather than dropping entries on a clock glitch."""
        store = PlanStore(root=tmp_path, clock=lambda: 1000.0)
        self._entry(store, tmp_path, monkeypatch, saved_at=2000.0, mtime=1500.0)
        (entry,) = store.entries()
        assert entry.last_used == 1000.0
        assert store.gc(max_idle_seconds=1.0) == []

    def test_unstamped_scan_keeps_legacy_semantics(
        self, tmp_path, monkeypatch
    ):
        from repro.serve.store import StoreEntry

        e = StoreEntry(
            digest="d", path=tmp_path, nbytes=0, mtime=900.0,
            meta={"saved_at": 950.0}, now=None,
        )
        assert e.last_used == 950.0  # no domain to clamp into


class TestCacheTTLTouch:
    def _cache(self, clock):
        return PlanCache(capacity=4, max_idle_seconds=10.0, clock=clock)

    class _Plan:
        nbytes = 8

    def test_peek_structural_counts_as_a_use(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan(), structural_key=("s",))
        t[0] = 9.0
        assert cache.peek_structural(("s",)) is not None  # touch
        t[0] = 15.0  # idle since touch: 6s < 10s
        assert cache.expire_idle() == 0
        assert ("k",) in cache

    def test_untouched_entry_still_expires(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan(), structural_key=("s",))
        t[0] = 15.0
        assert cache.expire_idle() == 1
        assert ("k",) not in cache

    def test_plain_peek_does_not_touch(self):
        t = [0.0]
        cache = self._cache(lambda: t[0])
        cache.put(("k",), self._Plan())
        t[0] = 9.0
        assert cache.peek(("k",)) is not None
        t[0] = 15.0
        assert cache.expire_idle() == 1

    def test_stats_report_delta_patches(self):
        stats = CacheStats()
        assert stats.as_dict()["delta_patches"] == 0
        stats.delta_patches += 1
        assert stats.as_dict()["delta_patches"] == 1


# ----------------------------------------------------------------------
# whole-plan persistence of delta-derived plans
# ----------------------------------------------------------------------
class TestWholePlanPersistence:
    def test_derived_plans_persist_whole_and_serve_a_fresh_engine(
        self, tmp_path
    ):
        store_root = tmp_path / "store"
        eng = SpMMEngine(store=PlanStore(root=store_root))
        csr = random_csr(48, 48, seed=19)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        chain = [(fingerprint(csr), None)]
        for row in (1, 20, 40):
            # removing an edge of the base changes the structure, so no
            # derived matrix can be served as a value refresh of another
            edge = (row, int(csr.indices[csr.indptr[row]]))
            chain.append(eng.apply_delta(chain[-1][0], removed=[edge]))
        store = PlanStore(root=store_root)
        dev = eng.default_device.name
        files = sorted(store_root.glob("*.plan"))
        assert len(files) == len(chain)
        assert {serial.read_header_from_file(f)["kind"] for f in files} == {
            "accplan"
        }
        costs = [
            serial.read_header_from_file(
                store.path_for(store.digest(fp, dev, CFG))
            )["meta"]["build_seconds"]
            for fp, _ in chain
        ]
        assert costs == sorted(costs)  # each derived entry >= its base
        # a second process: every derived plan loads whole from disk
        eng2 = SpMMEngine(store=store)
        for _, plan_obj in chain[1:]:
            C = eng2.spmm(plan_obj.csr, B)
            assert bits_equal(C, plan_obj.multiply(B))
        assert eng2.stats["plans_built"] == 0
        assert store.stats.hits == len(chain) - 1

    def test_a_delta_link_from_an_older_store_is_quarantined_once(
        self, tmp_path
    ):
        store = PlanStore(root=tmp_path)
        base_fp, base = put_full(store, random_csr(48, 48, seed=20))
        delta = GraphDelta.from_edges(added=[(3, 4, 1.0)])
        new_fp = fingerprint(base.apply_delta(delta).csr)
        path = store.path_for(store.digest(new_fp, DEV, CFG))
        # the link layout older stores wrote at the derived digest
        link_meta = {
            "config": asdict(CFG),
            "config_fp": config_fingerprint(CFG),
            "device": DEV,
            "build_seconds": 0.001,
            "depth": 1,
            "saved_at": 0.0,
            "fingerprint": new_fp.record(),
            "base_fingerprint": base_fp.record(),
        }
        path.write_bytes(
            serial.pack_container("accdelta", link_meta, delta.as_arrays())
        )
        assert store.get(new_fp, DEV, CFG) is None
        assert store.stats.quarantined == 1
        reason = (store.quarantine_dir / f"{path.name}.reason").read_text()
        assert "store entry is a 'accdelta' container" in reason
        assert store.get(new_fp, DEV, CFG) is None  # a plain miss now
        assert store.stats.quarantined == 1
        assert store.get(base_fp, DEV, CFG) is not None  # the base serves

    def test_admission_prices_a_derived_plan_as_a_rebuild(self, tmp_path):
        # admit_min_seconds lies between the patch's own time and the
        # base's build cost: the derived plan costs what a rebuild would
        csr = random_csr(48, 48, seed=21)
        base = repro.plan(csr, feature_dim=16)
        base.build_seconds = 10.0
        store = PlanStore(root=tmp_path, admit_min_seconds=5.0)
        dev = base.device.name
        assert store.put(fingerprint(csr), dev, CFG, base)
        eng = SpMMEngine(store=store)
        new_fp, new_plan = eng.apply_delta(
            fingerprint(csr), added=[(0, 0, 1.0)]
        )
        assert new_plan.build_seconds >= base.build_seconds
        assert store.stats.rejected_puts == 0
        assert store.path_for(store.digest(new_fp, dev, CFG)).is_file()


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class TestEngineDelta:
    def test_unknown_base_is_a_validation_error(self):
        eng = SpMMEngine()
        fp = fingerprint(random_csr(16, 16, seed=8))
        with pytest.raises(ValidationError, match="serve the full matrix"):
            eng.apply_delta(fp, added=[(0, 0, 1.0)])

    def test_derived_plan_serves_as_pure_cache_hit(self):
        eng = SpMMEngine()
        csr = random_csr(48, 48, seed=9)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        new_fp, new_plan = eng.apply_delta(
            fingerprint(csr), added=[(0, 1, 0.5)], removed=[(1, 1)]
        )
        assert eng.stats["delta_patches"] == 1
        misses_before = eng.stats["misses"]
        C = eng.spmm(new_plan.csr, B)
        assert eng.stats["misses"] == misses_before  # no rebuild
        assert bits_equal(C, new_plan.multiply(B))

    def test_chain_restored_by_a_fresh_engine(self, tmp_path):
        store_root = tmp_path / "store"
        eng = SpMMEngine(store=PlanStore(root=store_root))
        csr = random_csr(48, 48, seed=10)
        B = make_b(csr, n=16)
        eng.spmm(csr, B)
        fp1, p1 = eng.apply_delta(fingerprint(csr), added=[(2, 3, 1.5)])
        fp2, p2 = eng.apply_delta(fp1, removed=[(2, 3)])
        # a second process: resolves mid-chain bases from disk alone
        eng2 = SpMMEngine(store=PlanStore(root=store_root))
        fp3, p3 = eng2.apply_delta(fp2, added=[(5, 5, 2.0)])
        want = p2.apply_delta(GraphDelta.from_edges(added=[(5, 5, 2.0)]))
        assert fp3.full == fingerprint(want.csr).full
        assert bits_equal(p3.multiply(B), want.multiply(B))


class TestDeltaLineage:
    """Every link of a delta chain is a cache hit under its own
    fingerprint, in the process that applied the deltas and after a
    fresh engine's warm start."""

    def delta_chain(self, eng, csr, B, edits):
        """Serve ``csr``, then apply ``edits`` one delta at a time;
        returns the derived ``(fingerprint, plan)`` pairs."""
        eng.spmm(csr, B)
        chain = [(fingerprint(csr), None)]
        for added in edits:
            chain.append(eng.apply_delta(chain[-1][0], added=[added]))
        return chain[1:]

    def assert_hit(self, eng, fp, plan_obj, B):
        assert eng.lookup(fp) is not None
        hits, misses = eng.stats["hits"], eng.stats["misses"]
        C = eng.spmm(plan_obj.csr, B)
        assert (eng.stats["hits"], eng.stats["misses"]) == (hits + 1, misses)
        assert bits_equal(C, plan_obj.multiply(B))

    def test_derived_plans_are_cache_hits(self):
        eng = SpMMEngine()
        csr = random_csr(48, 48, seed=11)
        B = make_b(csr, n=16)
        edits = [(step, step, 1.0 + step) for step in range(3)]
        for fp, plan_obj in self.delta_chain(eng, csr, B, edits):
            self.assert_hit(eng, fp, plan_obj, B)
        assert eng.stats["delta_patches"] == 3
        assert eng.stats["plans_built"] == 1

    def test_warm_start_restores_chain_links_as_hits(self, tmp_path):
        store_root = tmp_path / "store"
        eng = SpMMEngine(store=store_root)
        csr = random_csr(48, 48, seed=13)
        B = make_b(csr, n=16)
        edits = [(7, 7, 0.5), (9, 1, 0.25), (30, 2, 1.5)]
        chain = self.delta_chain(eng, csr, B, edits)
        # a fresh engine warm-starts the whole chain from disk
        eng2 = SpMMEngine(store=store_root)
        assert eng2.warm_start() == 1 + len(edits)
        for fp, plan_obj in chain:
            self.assert_hit(eng2, fp, plan_obj, B)
        assert eng2.stats["plans_built"] == 0

    def test_async_facade_applies_deltas(self):
        async def run():
            async with AsyncSpMMEngine() as eng:
                csr = random_csr(32, 32, seed=14)
                B = make_b(csr, n=8)
                await eng.multiply(csr, B)
                fp = await eng.compute_fingerprint(csr)
                new_fp, new_plan = await eng.apply_delta(
                    fp, added=[(3, 3, 1.0)]
                )
                C = await eng.multiply(new_plan.csr, B)
                assert bits_equal(C, new_plan.multiply(B))
                assert new_fp.full != fp.full

        asyncio.run(run())


# ----------------------------------------------------------------------
# the server's delta endpoint
# ----------------------------------------------------------------------
@contextlib.contextmanager
def live_server(**cfg_kw):
    started = threading.Event()
    box = {}

    async def serve():
        server = SpMMServer(
            engine=AsyncSpMMEngine(),
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


class TestServerDelta:
    def test_delta_endpoint_round_trip(self):
        csr = random_csr(48, 48, seed=15)
        B = make_b(csr, n=16)
        edits = dict(added=[(0, 1, 0.5), (17, 3, 1.25)], removed=[(2, 2)])
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                rec = c.submit(csr, feature_dim=B.shape[1])["fingerprint"]
                # patch only: edits travel, no matrix payload
                rec2 = c.delta(rec, **edits)
                new_csr = GraphDelta.from_edges(**edits).apply_to(csr)
                assert rec2["nnz"] == new_csr.indices.size
                # patch + multiply in one round trip, micro-batched
                C, rec3 = c.delta(rec, B=B, **edits)
                assert rec3 == rec2
                # same bits as shipping the edited matrix whole
                assert bits_equal(C, c.multiply(new_csr, B))
                metrics = c.metrics()
        assert metrics["server"]["deltas"] == 2
        assert metrics["server"]["internal_errors"] == 0

    def test_chained_deltas_over_the_wire(self):
        csr = random_csr(40, 40, seed=16)
        B = make_b(csr, n=8)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                rec = c.submit(csr, feature_dim=B.shape[1])["fingerprint"]
                cur = csr
                for step in range(3):
                    edits = dict(added=[(step, 5, float(step + 1))])
                    C, rec = c.delta(rec, B=B, **edits)
                    cur = GraphDelta.from_edges(**edits).apply_to(cur)
                    assert bits_equal(C, c.multiply(cur, B))

    def test_unknown_base_maps_to_bad_request(self):
        csr = random_csr(16, 16, seed=17)
        with live_server() as box:
            host, port = box["addr"]
            with SpMMClient(host, port) as c:
                with pytest.raises(ServerError) as err:
                    c.delta(fingerprint(csr), added=[(0, 0, 1.0)])
                assert err.value.code == "bad_request"
                assert c.ping()  # connection survives the error
                metrics = c.metrics()
        assert metrics["server"]["internal_errors"] == 0
