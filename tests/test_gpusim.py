"""Unit tests for the GPU simulator: specs, caches, MMA, pipeline, engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.gpusim import (
    A800,
    DEVICES,
    H100,
    RTX4090,
    Machine,
    get_device,
    mma_m16n8k8,
    tf32_round,
)
from repro.gpusim.cache import (
    CachePolicy,
    ReuseDistanceCache,
    SetAssocCache,
    simulate_hierarchy,
)
from repro.gpusim.pipeline import (
    PipelineMode,
    StageTimes,
    pipeline_gap,
    simulate_pipeline,
)
from repro.gpusim.tensorcore import MMA_FLOPS, batched_tile_mma, tf32_ulp


class TestSpecs:
    def test_table3_values(self):
        assert RTX4090.tf32_tflops == 82.6
        assert A800.tf32_tflops == 156.0
        assert H100.tf32_tflops == 494.7
        assert RTX4090.mem_bw_gbs == 1008.0
        assert A800.mem_bw_gbs == 1935.0
        assert H100.mem_bw_gbs == 3350.0

    def test_get_device_aliases(self):
        assert get_device("A800") is A800
        assert get_device("rtx-4090") is RTX4090
        assert get_device(H100) is H100
        with pytest.raises(ValidationError):
            get_device("v100")

    def test_h100_cusparse_strongest(self):
        """§4.2: cuSPARSE improves dramatically on H100."""
        assert H100.cusparse_efficiency > A800.cusparse_efficiency
        assert A800.cusparse_efficiency > RTX4090.cusparse_efficiency

    def test_mma_seconds_positive(self):
        for spec in DEVICES.values():
            assert spec.mma_m16n8k8_seconds() > 0

    def test_with_overrides(self):
        spec = A800.with_overrides(tc_kernel_efficiency=0.5)
        assert spec.tc_kernel_efficiency == 0.5
        assert spec.n_sms == A800.n_sms

    def test_physical_caches_recorded(self):
        for spec in DEVICES.values():
            assert spec.physical_l2_bytes > spec.l2_bytes
            assert spec.physical_l1_bytes_per_sm > spec.l1_bytes_per_sm


class TestTF32:
    def test_round_is_idempotent(self):
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        once = tf32_round(x)
        np.testing.assert_array_equal(once, tf32_round(once))

    def test_round_error_within_half_ulp(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, 1000).astype(np.float32)
        err = np.abs(tf32_round(x).astype(np.float64) - x)
        assert (err <= 2.0**-11 * np.abs(x) + 1e-12).all()

    def test_specials_pass_through(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0], dtype=np.float32)
        out = tf32_round(x)
        assert np.isinf(out[0]) and np.isinf(out[1]) and np.isnan(out[2])
        assert out[3] == 0.0

    def test_exactly_representable_unchanged(self):
        # 1.5 has mantissa 0.5 -> representable in 10 bits
        assert tf32_round(np.float32(1.5)) == np.float32(1.5)

    def test_ulp_scale(self):
        assert tf32_ulp(1.0) == pytest.approx(2.0**-10)
        assert tf32_ulp(4.0) == pytest.approx(2.0**-8)


class TestMMA:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            mma_m16n8k8(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_accumulates(self):
        a = np.ones((16, 8), np.float32)
        b = np.ones((8, 8), np.float32)
        c = np.full((16, 8), 2.0, np.float32)
        out = mma_m16n8k8(a, b, c)
        np.testing.assert_allclose(out, 10.0)

    def test_mma_flops_constant(self):
        assert MMA_FLOPS == 2048

    def test_error_vs_float64(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (16, 8)).astype(np.float32)
        b = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(mma_m16n8k8(a, b) - exact).max()
        # 8-term dot product with tf32 inputs: comfortably < 8 * 2^-11 * 8
        assert err < 0.05
        assert err > 0  # tf32 genuinely loses precision

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        a_tiles = rng.uniform(-1, 1, (5, 8, 8)).astype(np.float32)
        b_tiles = rng.uniform(-1, 1, (5, 8, 16)).astype(np.float32)
        batch = batched_tile_mma(b_tiles, a_tiles)
        for k in range(5):
            expect = tf32_round(a_tiles[k]) @ tf32_round(b_tiles[k])
            np.testing.assert_allclose(batch[k], expect, rtol=1e-6)


class TestSetAssocCache:
    def test_repeat_hits(self):
        c = SetAssocCache(capacity_lines=8, ways=4)
        assert not c.access(1)
        assert c.access(1)

    def test_capacity_eviction(self):
        c = SetAssocCache(capacity_lines=4, ways=4)  # one set
        for line in range(5):
            c.access(line)
        assert not c.access(0)  # evicted by line 4

    def test_lru_order(self):
        c = SetAssocCache(capacity_lines=2, ways=2)
        c.access(0)
        c.access(1)
        c.access(0)  # refresh 0
        c.access(2)  # evicts 1 (LRU)
        assert c.access(0)
        assert not c.access(1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValidationError):
            SetAssocCache(0)


class TestReuseDistanceCache:
    def test_small_working_set_all_hits(self):
        stream = np.tile(np.arange(4), 50)
        stats = ReuseDistanceCache(16).hits(stream)
        assert stats.hit_rate > 0.95

    def test_streaming_no_hits(self):
        stats = ReuseDistanceCache(16).hits(np.arange(1000))
        assert stats.hits == 0

    def test_capacity_monotone(self):
        """More capacity never lowers the hit count (inclusion property)."""
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 200, 3000)
        hits = [
            ReuseDistanceCache(c).hits(stream).hits for c in (8, 32, 128, 512)
        ]
        assert hits == sorted(hits)

    def test_segments_partition_reuse(self):
        # same line touched in two different segments: no cross-segment hit
        stream = np.array([7, 7])
        segs = np.array([0, 1])
        stats = ReuseDistanceCache(16).hits(stream, segments=segs)
        assert stats.hits == 0
        stats_same = ReuseDistanceCache(16).hits(stream, segments=np.zeros(2, int))
        assert stats_same.hits == 1

    def test_agrees_with_exact_on_easy_streams(self):
        """Working-set approx == exact LRU for fully-associative repeats."""
        stream = np.tile(np.arange(8), 40)
        approx = ReuseDistanceCache(8).hits(stream).hits
        exact = SetAssocCache(8, ways=8).run(stream).sum()
        assert abs(int(approx) - int(exact)) <= 8  # first-touch misses only

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_property_hits_bounded(self, cap, seed):
        stream = np.random.default_rng(seed).integers(0, 32, 500)
        stats = ReuseDistanceCache(cap).hits(stream)
        distinct = np.unique(stream).size
        assert stats.hits <= 500 - distinct  # can't hit first touches


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self):
        stream = np.tile(np.arange(4), 100)
        h = simulate_hierarchy(stream, None, 8, 64)
        assert h.l2.accesses == h.l1.accesses - h.l1.hits

    def test_policy_cv_bypasses(self):
        stream = np.tile(np.arange(4), 100)
        h = simulate_hierarchy(stream, None, 8, 64, CachePolicy.CV)
        assert h.l1.hits == 0 and h.l2.hits == 0

    def test_policy_cg_skips_l1(self):
        stream = np.tile(np.arange(4), 100)
        h = simulate_hierarchy(stream, None, 8, 64, CachePolicy.CG)
        assert h.l1.hits == 0 and h.l2.hits > 0

    def test_policy_flags(self):
        assert CachePolicy.CA.allocates_l1 and CachePolicy.CA.allocates_l2
        assert not CachePolicy.CG.allocates_l1
        assert CachePolicy.CS.capacity_share < 1.0
        assert not CachePolicy.CV.allocates_l2
        assert CachePolicy.WT is CachePolicy("wt")


class TestPipeline:
    def make(self, la=2.0, lb=3.0, mm=1.0, k=6, sync=0.1):
        return StageTimes(
            load_a=np.full(k, la), load_b=np.full(k, lb),
            mma=np.full(k, mm), sync=sync,
        )

    def test_ordering_acc_fastest(self):
        st_ = self.make()
        t_sync = simulate_pipeline(st_, PipelineMode.SYNCHRONOUS).total_s
        t_dtc = simulate_pipeline(st_, PipelineMode.DTC).total_s
        t_acc = simulate_pipeline(st_, PipelineMode.ACC).total_s
        assert t_acc < t_dtc < t_sync

    def test_gap_positive(self):
        assert pipeline_gap(self.make()) > 0

    def test_busy_equals_mma_sum(self):
        st_ = self.make(k=5)
        for mode in PipelineMode:
            r = simulate_pipeline(st_, mode)
            assert r.busy_s == pytest.approx(5 * 1.0)
            assert r.total_s == pytest.approx(r.busy_s + r.bubble_s)

    def test_single_block(self):
        st_ = StageTimes(load_a=[2.0], load_b=[3.0], mma=[1.0], sync=0.1)
        r = simulate_pipeline(st_, PipelineMode.ACC)
        assert r.total_s == pytest.approx(2.0 + 3.0 + 1.0 + 0.1)

    def test_empty(self):
        st_ = StageTimes(
            load_a=np.empty(0), load_b=np.empty(0), mma=np.empty(0),
            writeback=0.5,
        )
        r = simulate_pipeline(st_, PipelineMode.ACC)
        assert r.total_s == pytest.approx(0.5)

    def test_compute_bound_acc_hides_loads(self):
        # mma dominates: Acc total ~= warmup + sum(mma); DTC adds B loads
        st_ = self.make(la=0.1, lb=0.2, mm=5.0, k=10, sync=0.0)
        t_acc = simulate_pipeline(st_, PipelineMode.ACC).total_s
        assert t_acc == pytest.approx(0.1 + 0.2 + 10 * 5.0, rel=0.05)

    def test_negative_stage_rejected(self):
        with pytest.raises(ValidationError):
            StageTimes(load_a=[-1.0], load_b=[1.0], mma=[1.0])

    @given(
        k=st.integers(min_value=1, max_value=20),
        la=st.floats(min_value=0.0, max_value=10.0),
        lb=st.floats(min_value=0.0, max_value=10.0),
        mm=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_acc_never_slower(self, k, la, lb, mm):
        st_ = StageTimes(
            load_a=np.full(k, la), load_b=np.full(k, lb), mma=np.full(k, mm),
        )
        t_dtc = simulate_pipeline(st_, PipelineMode.DTC).total_s
        t_acc = simulate_pipeline(st_, PipelineMode.ACC).total_s
        assert t_acc <= t_dtc + 1e-12


class TestMachine:
    def test_single_tb(self):
        m = Machine(A800)
        res = m.schedule(np.array([5e-6]))
        assert res.makespan_s == pytest.approx(5e-6)

    def test_perfect_parallelism(self):
        m = Machine(A800)
        n_slots = A800.n_sms * A800.max_tb_per_sm
        res = m.schedule(np.full(n_slots, 1e-6))
        assert res.makespan_s == pytest.approx(1e-6)

    def test_makespan_at_least_longest(self):
        m = Machine(A800)
        res = m.schedule(np.array([1e-3] + [1e-6] * 50))
        assert res.makespan_s >= 1e-3

    def test_fluid_aggregate_bound(self):
        m = Machine(A800)
        n_slots = A800.n_sms * A800.max_tb_per_sm
        durations = np.full(2 * n_slots, 1e-6)
        t = m.fluid_makespan(durations, durations)
        assert t == pytest.approx(2e-6)

    def test_fluid_straggler_bound(self):
        m = Machine(A800)
        shared = np.array([1e-6, 1e-6])
        solo = np.array([1e-6, 5e-4])
        assert m.fluid_makespan(shared, solo) == pytest.approx(5e-4)

    def test_fluid_empty(self):
        assert Machine(A800).fluid_makespan(np.empty(0)) == 0.0

    def test_imbalance_metric(self):
        m = Machine(A800)
        res = m.schedule(np.full(A800.n_sms, 1e-6))
        assert res.imbalance == pytest.approx(1.0)
