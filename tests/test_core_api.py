"""Tests for the public core API: config, planner, spmm."""

import numpy as np
import pytest

import repro
from repro.core import AccConfig, plan, spmm
from repro.errors import ValidationError
from repro.gpusim.pipeline import PipelineMode
from repro.kernels import reference_spmm
from repro.tune.policy import relative_error

from tests.conftest import random_csr


class TestConfig:
    def test_paper_default_all_on(self):
        cfg = AccConfig.paper_default()
        assert cfg.use_bittcf and cfg.reorder and cfg.cache_policy
        assert cfg.pipeline and cfg.load_balance
        assert cfg.pipeline_mode is PipelineMode.ACC

    def test_baseline_all_off(self):
        cfg = AccConfig.baseline()
        assert not (cfg.use_bittcf or cfg.reorder or cfg.cache_policy)
        assert cfg.pipeline_mode is PipelineMode.DTC

    def test_ablation_ladder_cumulative(self):
        ladder = AccConfig.ablation_ladder()
        assert [c.label for c in ladder] == [
            "base", "+BTCF", "+RO", "+CP", "+PP", "+LB",
        ]
        # each step keeps previous switches on
        assert ladder[1].use_bittcf and not ladder[1].reorder
        assert ladder[2].use_bittcf and ladder[2].reorder
        final = ladder[-1]
        assert final.use_bittcf and final.reorder and final.cache_policy
        assert final.pipeline and final.load_balance

    def test_replace(self):
        cfg = AccConfig.paper_default().replace(reorder=False)
        assert not cfg.reorder and cfg.use_bittcf

    def test_paper_constants(self):
        cfg = AccConfig.paper_default()
        assert cfg.ibd_threshold == 8.0
        assert cfg.max_blocks_per_tb == 32


class TestPlanAndSpmm:
    @pytest.fixture(scope="class")
    def setup(self):
        csr = random_csr(80, 64, 0.15, seed=41)
        rng = np.random.default_rng(42)
        B = rng.uniform(0.1, 1.0, (64, 32)).astype(np.float32)
        return csr, B, reference_spmm(csr, B)

    def test_spmm_matches_reference(self, setup):
        csr, B, ref = setup
        C = spmm(csr, B, device="a800")
        assert relative_error(C, ref) < 5e-3

    def test_spmm_accepts_coo(self, setup):
        from repro.sparse.convert import csr_to_coo

        csr, B, ref = setup
        C = spmm(csr_to_coo(csr), B)
        assert relative_error(C, ref) < 5e-3

    def test_plan_reuse_many_b(self, setup):
        csr, B, ref = setup
        p = plan(csr, feature_dim=32, device="a800")
        C1 = p.multiply(B)
        C2 = p.multiply(B * 2.0)
        assert relative_error(C2, 2.0 * np.asarray(C1, np.float64)) < 1e-5

    def test_plan_stats_exposed(self, setup):
        csr, B, _ = setup
        p = plan(csr, feature_dim=32)
        stats = p.stats
        assert stats["n_blocks"] > 0
        assert stats["format"] == "bittcf"
        assert stats["reorder"] == "affinity"
        assert stats["build_seconds"] >= 0

    def test_plan_profile(self, setup):
        csr, B, _ = setup
        p = plan(csr, feature_dim=32)
        prof = p.profile()
        assert prof.time_s > 0
        summary = prof.summary()
        assert {"kernel", "device", "time_ms", "GFLOPS"} <= set(summary)

    def test_plan_with_ablation_config(self, setup):
        csr, B, ref = setup
        for cfg in AccConfig.ablation_ladder():
            p = plan(csr, feature_dim=32, config=cfg)
            C = p.multiply(B)
            assert relative_error(C, ref) < 5e-3, cfg.label

    def test_bad_b_shape_rejected(self, setup):
        csr, B, _ = setup
        p = plan(csr, feature_dim=32)
        with pytest.raises(ValidationError):
            p.multiply(B[:-1])

    def test_top_level_exports(self):
        assert repro.plan is plan
        assert repro.spmm is spmm
        assert "a800" in repro.DEVICES
