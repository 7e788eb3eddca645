"""Streaming-path integration tests: delta-derived plans through the
store, the engines, and the server.

Two families of behaviour, matching ``docs/STREAMING.md``:

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
import functools
from dataclasses import asdict

import pytest

import repro
from conftest import bits_equal, make_b, random_csr
from test_server_sockets import live_server
from repro.core.config import AccConfig
from repro.errors import ServerError, ValidationError
from repro.serve import serial
from repro.serve.cache import CacheStats
from repro.serve.engine import SpMMEngine
from repro.serve.fingerprint import config_fingerprint, fingerprint
from repro.serve.server import SpMMClient
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


class TestCacheTTLTouch:
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
        # the derived entry's header holds its base's build cost plus
        # the patch's: what a rebuild would cost, far above the patch
        csr = random_csr(48, 48, seed=21)
        base = repro.plan(csr, feature_dim=16)
        base.build_seconds = 10.0
        store = PlanStore(root=tmp_path)
        dev = base.device.name
        assert store.put(fingerprint(csr), dev, CFG, base)
        eng = SpMMEngine(store=store)
        new_fp, new_plan = eng.apply_delta(
            fingerprint(csr), added=[(0, 0, 1.0)]
        )
        path = store.path_for(store.digest(new_fp, dev, CFG))
        (derived,) = [e for e in store.entries() if e.path == path]
        assert derived.build_seconds == new_plan.build_seconds
        assert derived.build_seconds > base.build_seconds
        # that price orders a warm start (priciest first) ...
        worker = SpMMEngine(capacity=1, store=PlanStore(root=tmp_path))
        assert worker.warm_start() == 1
        assert worker.lookup(new_fp) is not None
        # ... and gc (cheapest first): the base goes, the derived stays
        (gone,) = store.gc(max_bytes=store.total_bytes() - 1)
        assert gone.path != path and path.is_file()


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


@pytest.mark.parametrize("layer", ["plan", "engine", "client"])
def test_a_graph_delta_with_removed_edges_is_refused(layer):
    """A ready GraphDelta and ``removed=`` together are refused, before
    any plan is looked up or any frame is sent."""
    csr = random_csr(16, 16, seed=18)
    delta = GraphDelta.from_edges(added=[(0, 1, 1.0)])
    with contextlib.ExitStack() as stack:
        if layer == "plan":
            apply = repro.plan(csr, feature_dim=8).apply_delta
        elif layer == "engine":
            apply = functools.partial(SpMMEngine().apply_delta, fingerprint(csr))
        else:
            box = stack.enter_context(live_server())
            client = stack.enter_context(SpMMClient(*box["addr"]))
            apply = functools.partial(client.delta, fingerprint(csr))
        with pytest.raises(ValidationError, match="not both"):
            apply(delta, removed=[(1, 1)])


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
