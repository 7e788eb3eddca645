"""End-to-end integration and property tests across the whole pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import AccConfig
from repro.gpusim import get_device
from repro.kernels import KERNELS, reference_spmm
from repro.kernels.accspmm import AccSpMMKernel
from repro.tune.policy import relative_error
from repro.reorder import REORDERERS
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import gcn_normalize, transpose

from tests.conftest import random_csr

DEV = get_device("a800")


class TestEndToEnd:
    def test_full_pipeline_on_dataset(self):
        """Dataset -> plan -> multiply -> validate, the README flow."""
        A = repro.load_dataset("DD")
        rng = np.random.default_rng(71)
        B = rng.uniform(0.1, 1.0, (A.n_cols, 64)).astype(np.float32)
        p = repro.plan(A, feature_dim=64, device="a800")
        C = p.multiply(B)
        assert relative_error(C, reference_spmm(A, B)) < 5e-3
        assert p.stats["mean_nnz_tc"] > 0
        prof = p.profile()
        assert prof.gflops > 0

    def test_reorder_then_kernel_consistency(self):
        """Any precomputed ordering fed to the kernel keeps numerics."""
        csr = random_csr(120, 96, 0.1, seed=72)
        rng = np.random.default_rng(73)
        B = rng.uniform(0.1, 1.0, (96, 32)).astype(np.float32)
        ref = reference_spmm(csr, B)
        for name in ("affinity", "rabbit", "dtc-lsh", "metis"):
            res = REORDERERS[name](csr, 0)
            out = AccSpMMKernel(reorder=res).multiply(csr, B, DEV)
            assert relative_error(out.C, ref) < 5e-3, name

    def test_gcn_pipeline(self):
        """ops.gcn_normalize -> plan -> two aggregations (gnn example)."""
        A = gcn_normalize(random_csr(128, 128, 0.08, seed=74, values="ones"))
        rng = np.random.default_rng(75)
        X = rng.uniform(0.0, 1.0, (128, 16)).astype(np.float32)
        p = repro.plan(A, 16)
        H = p.multiply(X)
        Z = p.multiply(np.maximum(H, 0.0))
        ref_h = reference_spmm(A, X)
        ref_z = reference_spmm(A, np.maximum(ref_h, 0.0).astype(np.float32))
        assert relative_error(Z, ref_z) < 1e-2

    def test_transpose_spmm_identity(self):
        """(A^T)^T B == A B through the full kernel."""
        csr = random_csr(64, 64, 0.15, seed=76)
        rng = np.random.default_rng(77)
        B = rng.uniform(0.1, 1.0, (64, 16)).astype(np.float32)
        c1 = repro.spmm(csr, B)
        c2 = repro.spmm(transpose(transpose(csr)), B)
        np.testing.assert_allclose(c1, c2, rtol=1e-5)

    def test_matrix_market_to_spmm(self, tmp_path):
        """File -> COO -> CSR -> spmm round trip."""
        from repro.sparse import load_matrix_market, save_matrix_market
        from repro.sparse.convert import csr_to_coo

        csr = random_csr(48, 48, 0.2, seed=78)
        path = tmp_path / "m.mtx"
        save_matrix_market(csr_to_coo(csr), path)
        loaded = coo_to_csr(load_matrix_market(path))
        B = np.random.default_rng(79).uniform(
            0.1, 1.0, (48, 8)
        ).astype(np.float32)
        assert relative_error(
            repro.spmm(loaded, B), reference_spmm(csr, B)
        ) < 5e-3

    def test_ablation_monotone_on_community_graph(self, medium_graph_csr):
        """Adding optimisations never hurts on a well-structured matrix."""
        times = []
        for cfg in AccConfig.ablation_ladder():
            p = repro.plan(medium_graph_csr, 128, "h100", config=cfg)
            times.append(p.profile().time_s)
        # the full configuration is the fastest of the ladder
        assert times[-1] == min(times)

    @pytest.mark.parametrize("device", ["rtx4090", "a800", "h100"])
    def test_all_kernels_all_devices_smoke(self, device):
        csr = random_csr(64, 64, 0.15, seed=80)
        B = np.zeros((64, 32), np.float32)
        for name, k in KERNELS.items():
            prof = k().multiply(csr, B, device, execute=False).profile
            assert prof.time_s > 0, (name, device)


class TestNumericProperties:
    @given(
        n=st.integers(min_value=8, max_value=48),
        density=st.floats(min_value=0.05, max_value=0.5),
        ncols=st.sampled_from([8, 16, 32]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_acc_kernel_matches_reference(
        self, n, density, ncols, seed
    ):
        """The flagship property: Acc-SpMM == A @ B within TF32 bounds."""
        rng = np.random.default_rng(seed)
        dense = np.where(
            rng.random((n, n)) < density,
            rng.uniform(0.25, 2.0, (n, n)),
            0.0,
        ).astype(np.float32)
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        if csr.nnz == 0:
            return
        B = rng.uniform(0.25, 1.0, (n, ncols)).astype(np.float32)
        out = AccSpMMKernel(reorder=True).multiply(csr, B, DEV)
        assert relative_error(out.C, reference_spmm(csr, B)) < 1e-2

    @given(
        scale=st.floats(min_value=0.125, max_value=8.0),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_linearity(self, scale, seed):
        """spmm(A, s*B) == s * spmm(A, B) (exactly, in fp32 scaling)."""
        csr = random_csr(32, 32, 0.2, seed=81)
        rng = np.random.default_rng(seed)
        B = rng.uniform(0.1, 1.0, (32, 8)).astype(np.float32)
        p = repro.plan(csr, 8)
        c1 = np.asarray(p.multiply(B), dtype=np.float64)
        c2 = np.asarray(p.multiply((scale * B).astype(np.float32)),
                        dtype=np.float64)
        np.testing.assert_allclose(c2, scale * c1, rtol=2e-3, atol=1e-6)

    def test_zero_b_gives_zero(self):
        csr = random_csr(24, 24, 0.3, seed=82)
        C = repro.spmm(csr, np.zeros((24, 8), np.float32))
        assert np.abs(C).sum() == 0.0

    def test_identity_matrix_copies_b(self):
        n = 16
        eye = coo_to_csr(COOMatrix(
            n, n, np.arange(n), np.arange(n), np.ones(n, np.float32)
        ))
        B = np.random.default_rng(83).uniform(0.1, 1.0, (n, 8)).astype(
            np.float32
        )
        C = repro.spmm(eye, B)
        np.testing.assert_allclose(C, B, rtol=1e-3)
