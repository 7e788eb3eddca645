"""Tests for the plan-reuse serving layer (fingerprint, cache, engine)."""

import threading
import unittest.mock as mock
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core import plan
from repro.errors import ValidationError
from repro.serve import (
    MatrixFingerprint,
    PlanCache,
    SpMMEngine,
    default_engine,
    fingerprint,
    plan_nbytes,
    reset_default_engine,
)
from repro.sparse.convert import csr_to_coo
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_csr
from tests.engine_gate import wait_until


def rebuilt(csr: CSRMatrix) -> CSRMatrix:
    """A distinct object holding identical content (fresh arrays)."""
    return CSRMatrix(
        csr.n_rows,
        csr.n_cols,
        csr.indptr.copy(),
        csr.indices.copy(),
        csr.vals.copy(),
    )


def with_values(csr: CSRMatrix, vals: np.ndarray) -> CSRMatrix:
    return CSRMatrix(csr.n_rows, csr.n_cols, csr.indptr, csr.indices, vals)


class TestFingerprint:
    def test_content_addressed(self):
        a = random_csr(64, 48, 0.1, seed=1)
        assert fingerprint(a) == fingerprint(rebuilt(a))

    def test_value_change_keeps_structure(self):
        a = random_csr(64, 48, 0.1, seed=1)
        b = with_values(a, a.vals * 2.0)
        fa, fb = fingerprint(a), fingerprint(b)
        assert fa.structural == fb.structural
        assert fa.full != fb.full

    def test_structure_change_differs(self):
        fa = fingerprint(random_csr(64, 48, 0.1, seed=1))
        fb = fingerprint(random_csr(64, 48, 0.1, seed=2))
        assert fa.structural != fb.structural

    def test_shape_in_key(self):
        # same (empty) arrays, different declared shape
        empty = np.zeros(0, dtype=np.int64)
        a = CSRMatrix(2, 8, np.zeros(3, np.int64), empty, np.zeros(0, np.float32))
        b = CSRMatrix(2, 9, np.zeros(3, np.int64), empty, np.zeros(0, np.float32))
        assert fingerprint(a).structural != fingerprint(b).structural

    @pytest.mark.parametrize("field", ["n_rows", "n_cols", "nnz"])
    @pytest.mark.parametrize("value", [True, 4.0, "4"])
    def test_record_sizes_are_ints_that_are_not_bools(self, field, value):
        record = fingerprint(random_csr(64, 48, 0.1, seed=1)).record()
        assert MatrixFingerprint.from_record(record).record() == record
        record[field] = value
        with pytest.raises(ValidationError, match="int"):
            MatrixFingerprint.from_record(record)


class TestPlanCache:
    def test_hit_miss_counters(self):
        c = PlanCache(capacity=4)
        assert c.get(("k",)) is None
        c.put(("k",), "plan")
        assert c.get(("k",)) == "plan"
        assert c.stats.misses == 1 and c.stats.hits == 1
        assert c.stats.requests == 2 and c.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        c = PlanCache(capacity=2)
        c.put(("a",), 1)
        c.put(("b",), 2)
        c.get(("a",))  # refresh a; b is now LRU
        c.put(("c",), 3)
        assert ("b",) not in c and ("a",) in c and ("c",) in c
        assert c.stats.evictions == 1

    def test_structural_index_follows_eviction(self):
        c = PlanCache(capacity=1)
        c.put(("a", "v1"), 1, structural_key=("a",))
        c.put(("b", "v1"), 2, structural_key=("b",))
        assert c.peek_structural(("a",)) is None
        assert c.peek_structural(("b",)) == 2

    def test_peek_does_not_count(self):
        c = PlanCache(capacity=2)
        c.put(("a", "v1"), 1, structural_key=("a",))
        c.peek_structural(("a",))
        assert c.stats.hits == 0 and c.stats.misses == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear_and_reset(self):
        c = PlanCache(capacity=2)
        c.put(("a",), 1)
        c.get(("a",))
        c.clear()
        assert len(c) == 0 and c.stats.hits == 1
        c.reset_stats()
        assert c.stats.requests == 0


class TestByteBudget:
    def test_cache_evicts_by_bytes(self):
        c = PlanCache(capacity=100, max_bytes=100, size_of=len)
        c.put(("a",), "x" * 60)
        c.put(("b",), "y" * 60)  # 120 > 100: evict LRU "a"
        assert ("a",) not in c and ("b",) in c
        assert c.stats.evictions == 1
        assert c.total_bytes() == 60

    def test_single_oversized_entry_survives(self):
        c = PlanCache(capacity=4, max_bytes=10, size_of=len)
        c.put(("big",), "z" * 50)
        assert ("big",) in c and len(c) == 1

    def test_enforce_limits_after_growth(self):
        sizes = {"a": 10, "b": 10}
        c = PlanCache(capacity=4, max_bytes=25, size_of=sizes.get)
        c.put(("k1",), "a")
        c.put(("k2",), "b")
        assert len(c) == 2
        sizes["a"] = 30  # entry grew (e.g. executor built) after put
        c.enforce_limits()
        assert c.values() == ["b"]  # LRU "a" evicted to fit the budget

    def test_max_bytes_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=2, max_bytes=0)

    def test_plan_nbytes_duck_typing(self):
        assert plan_nbytes(object()) == 0
        p = plan(random_csr(64, 64, 0.1, seed=70), feature_dim=16)
        n0 = plan_nbytes(p)
        assert n0 == p.nbytes() > 0
        p.multiply(np.ones((64, 16), dtype=np.float32))
        assert plan_nbytes(p) > n0  # executor bytes now included

    def test_engine_byte_budget_evicts(self):
        B = np.ones((80, 16), dtype=np.float32)
        probe = plan(random_csr(96, 80, 0.12, seed=71), feature_dim=16)
        probe.multiply(B)
        budget = int(plan_nbytes(probe) * 1.5)  # fits one plan, not two
        eng = SpMMEngine(capacity=8, max_bytes=budget)
        for seed in (71, 72, 73):
            eng.spmm(random_csr(96, 80, 0.12, seed=seed), B)
        s = eng.stats
        assert s["cached_plans"] == 1 and s["evictions"] == 2
        assert s["max_bytes"] == budget
        assert 0 < s["cached_bytes"] <= budget

    def test_engine_prep_stats(self):
        eng = SpMMEngine()
        csr = random_csr(96, 80, 0.12, seed=74)
        B = np.ones((80, 16), dtype=np.float32)
        for _ in range(3):
            eng.spmm(csr, B)
        s = eng.stats
        assert s["prepared_plans"] == 1
        assert s["prep_misses"] == 1 and s["prep_hits"] == 2
        assert s["prepared_bytes"] > 0
        assert s["cached_bytes"] >= s["prepared_bytes"]

    def test_engine_exec_budget_forces_lazy(self):
        eng = SpMMEngine()
        csr = random_csr(96, 80, 0.12, seed=75)
        B = np.ones((80, 16), dtype=np.float32)
        p = eng.get_plan(csr, feature_dim=16).prepare(16, max_bytes=0)
        C = eng.spmm(csr, B)
        assert eng.get_plan(csr, feature_dim=16) is p
        assert p.executor is not None and not p.executor.materialized
        assert np.array_equal(C, plan(csr, feature_dim=16).multiply(B))

    def test_default_engine_is_byte_budgeted(self):
        reset_default_engine()
        try:
            eng = default_engine()
            assert eng.cache.max_bytes == 256 << 20
            assert eng.cache.capacity == 64
        finally:
            reset_default_engine()


class TestEngine:
    @pytest.fixture()
    def csr(self):
        return random_csr(96, 80, 0.12, seed=21)

    @pytest.fixture()
    def B(self):
        rng = np.random.default_rng(7)
        return rng.uniform(-1.0, 1.0, (80, 16)).astype(np.float32)

    def test_plans_exactly_once(self, csr, B):
        eng = SpMMEngine()
        C0 = eng.spmm(csr, B)
        for _ in range(4):
            # fresh objects with identical content must still hit
            assert np.array_equal(eng.spmm(rebuilt(csr), B), C0)
        s = eng.stats
        assert s["plans_built"] == 1
        assert s["hits"] == 4 and s["misses"] == 1

    def test_matches_uncached_path(self, csr, B):
        eng = SpMMEngine()
        assert np.array_equal(
            eng.spmm(csr, B), repro.spmm(csr, B, use_cache=False)
        )

    def test_value_only_change_repacks(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B)
        csr2 = with_values(csr, (csr.vals * 3.0).astype(np.float32))
        C = eng.spmm(csr2, B)
        s = eng.stats
        assert s["plans_built"] == 1 and s["value_refreshes"] == 1
        # repacked plan must equal a from-scratch plan bit-for-bit
        assert np.array_equal(C, plan(csr2, feature_dim=16).multiply(B))
        # and hit the cache afterwards
        eng.spmm(csr2, B)
        assert eng.stats["hits"] == 1

    def test_value_refresh_does_not_inherit_adaptive_mode(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B)
        # compile the reassociating tier on the cached plan (old values)
        eng.get_plan(csr, feature_dim=16).prepare(numerics="tf32")
        csr2 = with_values(csr, (csr.vals * 3.0).astype(np.float32))
        C = eng.spmm(csr2, B)  # value refresh through the structural plan
        assert eng.stats["value_refreshes"] == 1
        # the refreshed plan must serve exact-mode (bit-for-bit) results
        assert np.array_equal(C, plan(csr2, feature_dim=16).multiply(B))
        # and its meta is a private copy, not an alias of the base's
        base = eng.get_plan(csr, feature_dim=16)
        refreshed = eng.get_plan(csr2, feature_dim=16)
        assert refreshed.tc_plan.meta is not base.tc_plan.meta

    def test_structure_change_rebuilds(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B)
        eng.spmm(random_csr(96, 80, 0.12, seed=22), B)
        s = eng.stats
        assert s["plans_built"] == 2 and s["value_refreshes"] == 0

    def test_lru_eviction(self, B):
        eng = SpMMEngine(capacity=2)
        mats = [random_csr(96, 80, 0.12, seed=30 + i) for i in range(3)]
        for m in mats:
            eng.spmm(m, B)
        assert eng.stats["evictions"] == 1
        eng.spmm(mats[0], B)  # evicted: replanned
        assert eng.stats["plans_built"] == 4

    def test_reuse_across_feature_dims(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B)
        eng.spmm(csr, np.hstack([B, B]))  # N=32: numerics are N-agnostic
        assert eng.stats["plans_built"] == 1 and eng.stats["hits"] == 1

    def test_separate_keys_per_config_and_device(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B, device="a800")
        eng.spmm(csr, B, device="h100")
        eng.spmm(csr, B, config=repro.AccConfig.baseline())
        assert eng.stats["plans_built"] == 3

    def test_accepts_coo(self, csr, B):
        eng = SpMMEngine()
        C = eng.spmm(csr_to_coo(csr), B)
        assert np.array_equal(C, eng.spmm(csr, B))
        assert eng.stats["plans_built"] == 1

    def test_clear(self, csr, B):
        eng = SpMMEngine()
        eng.spmm(csr, B)
        eng.clear()
        assert eng.stats["cached_plans"] == 0 and eng.stats["requests"] == 0

    def test_zero_dim_served_without_planning(self):
        from repro.sparse.ops import take_rows

        full = random_csr(32, 24, 0.2, seed=61)
        empty = take_rows(full, np.array([], dtype=np.int64))
        eng = SpMMEngine()
        C = eng.spmm(empty, np.ones((24, 8), dtype=np.float32))
        assert C.shape == (0, 8)
        Cs = eng.multiply_many(empty, np.ones((3, 24, 8), dtype=np.float32))
        assert Cs.shape == (3, 0, 8)
        assert eng.stats["plans_built"] == 0
        # plan() itself names the problem instead of crashing downstream
        with pytest.raises(ValidationError, match="zero-dimension"):
            plan(empty, feature_dim=8)
        # the uncached convenience path answers too
        assert repro.spmm(empty, np.ones((24, 8), np.float32),
                          use_cache=False).shape == (0, 8)

    def test_failed_build_releases_build_lock(self, csr, B):
        # concurrent misses share one failing build: it runs once, every
        # request raises its error, and its in-flight entry is released
        eng = SpMMEngine()
        with pytest.raises(ValidationError):
            eng.spmm(csr, B[:-1])  # fails inside multiply, after planning
        bad = random_csr(96, 80, 0.12, seed=62)
        M = 6

        def failing_build(*args, **kwargs):
            # fail only once every other request waits on this build
            assert wait_until(lambda: eng.stats["coalesced_waits"] == M - 1)
            raise RuntimeError("boom")

        def request(_):
            with pytest.raises(RuntimeError, match="boom"):
                eng.spmm(bad, B)

        with mock.patch(
            "repro.serve.engine.build_plan", side_effect=failing_build
        ) as build:
            with ThreadPoolExecutor(M) as pool:
                list(pool.map(request, range(M)))
        assert build.call_count == 1
        with eng._lock:
            assert not eng._inflight, "failed build leaked its in-flight entry"
        # and the next request starts a fresh build
        assert eng.spmm(bad, B).shape == (96, 16)
        assert eng.stats["plans_built"] == 2

    def test_held_build_does_not_block_other_keys(self, csr, B):
        eng = SpMMEngine()
        want = eng.spmm(csr, B)  # cached before the held build starts
        other = random_csr(96, 80, 0.12, seed=63)
        held, release = threading.Event(), threading.Event()

        def held_build(*args, **kwargs):
            held.set()
            assert release.wait(60)
            return plan(*args, **kwargs)

        with mock.patch(
            "repro.serve.engine.build_plan", side_effect=held_build
        ), ThreadPoolExecutor(2) as pool:
            building = pool.submit(eng.spmm, other, B)
            try:
                assert held.wait(60)
                C = pool.submit(eng.spmm, csr, B).result(timeout=60)
                still_building = not building.done()
            finally:
                release.set()
            building.result(timeout=60)
        assert still_building
        assert np.array_equal(C, want)
        assert eng.stats["plans_built"] == 2


class TestMultiplyMany:
    @pytest.fixture()
    def setup(self):
        csr = random_csr(100, 64, 0.1, seed=41)
        rng = np.random.default_rng(13)
        Bs = rng.uniform(-1.0, 1.0, (4, 64, 16)).astype(np.float32)
        return csr, Bs

    def test_bit_for_bit_vs_looped(self, setup):
        csr, Bs = setup
        p = plan(csr, feature_dim=16)
        batched = p.multiply_many(Bs)
        assert batched.shape == (4, 100, 16)
        for i in range(Bs.shape[0]):
            assert np.array_equal(batched[i], p.multiply(Bs[i]))

    def test_engine_batched(self, setup):
        csr, Bs = setup
        eng = SpMMEngine()
        batched = eng.multiply_many(csr, Bs)
        for i in range(Bs.shape[0]):
            assert np.array_equal(batched[i], eng.spmm(csr, Bs[i]))
        assert eng.stats["plans_built"] == 1

    def test_accepts_sequence_of_2d(self, setup):
        csr, Bs = setup
        p = plan(csr, feature_dim=16)
        assert np.array_equal(p.multiply_many(list(Bs)), p.multiply_many(Bs))

    def test_bad_shapes_rejected(self, setup):
        csr, Bs = setup
        p = plan(csr, feature_dim=16)
        with pytest.raises(ValidationError):
            p.multiply_many(Bs[:, :-1])
        with pytest.raises(ValidationError):
            p.multiply_many(Bs[0])


class TestDefaultEngineRouting:
    @pytest.fixture(autouse=True)
    def fresh_default(self):
        reset_default_engine()
        yield
        reset_default_engine()

    def test_spmm_routes_through_default_engine(self):
        csr = random_csr(64, 64, 0.1, seed=51)
        B = np.ones((64, 8), dtype=np.float32)
        repro.spmm(csr, B)
        repro.spmm(csr, B)
        assert default_engine().stats["plans_built"] == 1
        assert default_engine().stats["hits"] == 1

    def test_opt_out_bypasses_cache(self):
        csr = random_csr(64, 64, 0.1, seed=52)
        B = np.ones((64, 8), dtype=np.float32)
        repro.spmm(csr, B, use_cache=False)
        assert default_engine().stats["requests"] == 0

    def test_spmm_many_routes_through_default_engine(self):
        csr = random_csr(64, 64, 0.1, seed=53)
        Bs = np.ones((2, 64, 8), dtype=np.float32)
        Cs = repro.spmm_many(csr, Bs)
        assert Cs.shape == (2, 64, 8)
        assert default_engine().stats["plans_built"] == 1
