"""Kernel tests: numeric correctness vs the float64 oracle + timing sanity."""

import numpy as np
import pytest

from repro.gpusim import get_device
from repro.gpusim.pipeline import PipelineMode
from repro.kernels import (
    KERNELS,
    AccSpMMKernel,
    CuSparseKernel,
    DTCKernel,
    ReferenceKernel,
    SparseTIRKernel,
    SputnikKernel,
    TCGNNKernel,
    reference_spmm,
)
from repro.tune.policy import EXACT, relative_error

from tests.conftest import random_csr


DEV = get_device("a800")


@pytest.fixture(scope="module")
def workload():
    """Positive A and B: no cancellation, so relative error is meaningful."""
    csr = random_csr(96, 80, 0.12, seed=21)
    rng = np.random.default_rng(22)
    B = rng.uniform(0.1, 1.0, size=(80, 48)).astype(np.float32)
    return csr, B, reference_spmm(csr, B)


@pytest.fixture(scope="module")
def signed_workload():
    """Signed B with cancellation: checked against the TF32 error bound."""
    csr = random_csr(96, 80, 0.12, seed=31)
    rng = np.random.default_rng(32)
    B = rng.uniform(-1.0, 1.0, size=(80, 48)).astype(np.float32)
    return csr, B, reference_spmm(csr, B)


CUDA_KERNELS = [CuSparseKernel, SputnikKernel, SparseTIRKernel]
TC_KERNELS = [TCGNNKernel, DTCKernel, AccSpMMKernel]


class TestNumericCorrectness:
    @pytest.mark.parametrize("kcls", CUDA_KERNELS)
    def test_cuda_kernels_fp32_accurate(self, kcls, workload):
        csr, B, ref = workload
        res = kcls().multiply(csr, B, DEV)
        # fp32 gather-FMA with cancellation: ~k * 2^-24 per output
        assert relative_error(res.C, ref) < 5e-4

    @pytest.mark.parametrize("kcls", TC_KERNELS)
    def test_tc_kernels_tf32_accurate(self, kcls, workload):
        csr, B, ref = workload
        res = kcls().multiply(csr, B, DEV)
        # TF32 inputs: ~2^-11 relative per product
        assert relative_error(res.C, ref) < 5e-3

    def test_acc_reordered_output_in_original_order(self, workload):
        csr, B, ref = workload
        res = AccSpMMKernel(reorder=True).multiply(csr, B, DEV)
        assert relative_error(res.C, ref) < 5e-3

    @pytest.mark.parametrize("kcls", TC_KERNELS)
    def test_signed_data_within_tf32_error_bound(self, kcls, signed_workload):
        """With cancellation, |C - ref| must obey the forward bound."""
        csr, B, ref = signed_workload
        res = kcls().multiply(csr, B, DEV)
        # |A| @ |B| gives the bound's abs-dot term per output element
        abs_csr = type(csr)(
            csr.n_rows, csr.n_cols, csr.indptr, csr.indices, np.abs(csr.vals)
        )
        abs_dot = abs_csr.matmat(np.abs(B).astype(np.float64))
        bound = EXACT.error_bound(int(csr.row_lengths().max())) * abs_dot
        assert (np.abs(res.C - ref) <= bound + 1e-9).all()

    def test_acc_all_lb_modes_same_numeric(self, workload):
        csr, B, ref = workload
        for lb in ("off", "adaptive", "always"):
            res = AccSpMMKernel(load_balance=lb).multiply(csr, B, DEV)
            assert relative_error(res.C, ref) < 5e-3

    def test_rectangular_matrix(self):
        csr = random_csr(40, 72, 0.2, seed=23)
        B = np.random.default_rng(24).uniform(0.1, 1, (72, 16)).astype(np.float32)
        ref = reference_spmm(csr, B)
        for kcls in TC_KERNELS + CUDA_KERNELS:
            res = kcls().multiply(csr, B, DEV)
            assert relative_error(res.C, ref) < 5e-3, kcls.__name__

    def test_empty_rows_produce_zeros(self):
        from repro.sparse.csr import CSRMatrix

        csr = CSRMatrix(
            16, 16, np.r_[0, np.zeros(8, int), np.full(8, 3, int)],
            np.array([1, 5, 9]), np.array([1.0, 2.0, 3.0], np.float32),
        )
        B = np.eye(16, dtype=np.float32)
        for kcls in TC_KERNELS:
            C = kcls().multiply(csr, B, DEV).C
            assert np.abs(C[:8]).sum() == 0

    def test_execute_false_skips_numeric(self, workload):
        csr, B, _ = workload
        res = AccSpMMKernel().multiply(csr, B, DEV, execute=False)
        assert res.C is None
        assert res.profile.time_s > 0

    def test_reference_kernel(self, workload):
        csr, B, ref = workload
        res = ReferenceKernel().multiply(csr, B, DEV)
        np.testing.assert_allclose(res.C, ref)

    def test_b_shape_validated(self, workload):
        csr, B, _ = workload
        with pytest.raises(Exception):
            AccSpMMKernel().multiply(csr, B[:-1], DEV)


class TestTimingSanity:
    @pytest.mark.parametrize("kname", list(KERNELS))
    def test_profile_fields_populated(self, kname, workload):
        csr, B, _ = workload
        p = KERNELS[kname]().multiply(csr, B, DEV, execute=False).profile
        assert p.time_s > 0
        assert p.gflops > 0
        assert p.useful_flops == 2.0 * csr.nnz * B.shape[1]
        assert p.bytes_from_dram > 0
        assert p.bytes_requested >= p.bytes_from_dram

    def test_acc_pipeline_beats_dtc_pipeline(self, workload):
        csr, B, _ = workload
        t_acc = AccSpMMKernel(pipeline=PipelineMode.ACC).multiply(
            csr, B, DEV, execute=False).profile.time_s
        t_dtc = AccSpMMKernel(pipeline=PipelineMode.DTC).multiply(
            csr, B, DEV, execute=False).profile.time_s
        assert t_acc <= t_dtc * 1.0001

    def test_issued_flops_exceed_useful_for_tc(self, workload):
        csr, B, _ = workload
        p = AccSpMMKernel().multiply(csr, B, DEV, execute=False).profile
        assert p.issued_flops >= p.useful_flops  # padded zero positions

    def test_bigger_feature_dim_more_time(self, workload):
        csr, _, _ = workload
        times = []
        for n in (32, 128, 512):
            B = np.zeros((csr.n_cols, n), np.float32)
            times.append(
                AccSpMMKernel().multiply(csr, B, DEV, execute=False).profile.time_s
            )
        assert times[0] < times[1] < times[2]

    def test_devices_rank_by_speed(self, workload):
        csr, B, _ = workload
        t = {}
        for d in ("rtx4090", "a800", "h100"):
            t[d] = AccSpMMKernel().multiply(
                csr, B, get_device(d), execute=False).profile.time_s
        # H100 has the most bandwidth and flops: never slower than A800
        assert t["h100"] <= t["a800"] * 1.01

    def test_reorder_helps_community_graph(self, medium_graph_csr):
        B = np.zeros((medium_graph_csr.n_cols, 128), np.float32)
        with_r = AccSpMMKernel(reorder=True).multiply(
            medium_graph_csr, B, DEV, execute=False).profile
        without = AccSpMMKernel(reorder=False).multiply(
            medium_graph_csr, B, DEV, execute=False).profile
        assert with_r.time_s < without.time_s

    def test_meta_propagated(self, workload):
        csr, B, _ = workload
        res = AccSpMMKernel().multiply(csr, B, DEV, execute=False)
        assert res.plan_meta["format"] == "bittcf"
        assert "mean_nnz_tc" in res.plan_meta


class TestKernelOrderingOnDatasets:
    """The Figure 7-9 ranking on one representative dataset per type."""

    @pytest.mark.parametrize("abbr", ["DD", "FY-RSR"])
    def test_acc_beats_all_baselines(self, abbr):
        from repro.sparse.datasets import load_dataset

        csr = load_dataset(abbr)
        B = np.zeros((csr.n_cols, 128), np.float32)
        gflops = {
            name: k().multiply(csr, B, DEV, execute=False).profile.gflops
            for name, k in KERNELS.items()
        }
        assert gflops["acc"] == max(gflops.values())
        assert gflops["dtc"] > gflops["tcgnn"]
        assert gflops["acc"] > gflops["cusparse"] * 1.3
