"""Tests for the pipeline trace renderer and the CSR structural ops."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gpusim.pipeline import PipelineMode, StageTimes, simulate_pipeline
from repro.gpusim.trace import (
    figure5_gap_demo,
    render_trace,
    trace_pipeline,
    trace_span,
)
from repro.sparse.ops import (
    add,
    diagonal,
    gcn_normalize,
    scale_cols,
    scale_rows,
    take_cols,
    take_rows,
    transpose,
    with_self_loops,
)

from tests.conftest import random_csr


def stages(k=4, la=1.0, lb=3.0, mm=1.5, sync=0.1, latency=0.2):
    return StageTimes(
        load_a=np.full(k, la), load_b=np.full(k, lb), mma=np.full(k, mm),
        sync=sync, latency=latency,
    )


class TestTrace:
    @pytest.mark.parametrize("mode", list(PipelineMode))
    def test_trace_span_matches_simulator(self, mode):
        st = stages()
        span = trace_span(trace_pipeline(st, mode))
        sim = simulate_pipeline(st, mode).total_s
        # the trace replays the same schedule (writeback excluded)
        assert span == pytest.approx(sim, rel=0.15)

    def test_mma_events_cover_every_iteration(self):
        for mode in PipelineMode:
            ev = trace_pipeline(stages(k=5), mode)
            mma_iters = sorted(e.iteration for e in ev if e.lane == "TCMMA")
            assert mma_iters == [0, 1, 2, 3, 4]

    def test_acc_overlaps_dtc_serializes(self):
        st = stages(k=6)
        acc = trace_pipeline(st, PipelineMode.ACC)
        dtc = trace_pipeline(st, PipelineMode.DTC)
        # in ACC, some B load runs concurrently with an MMA
        def overlaps(evs):
            mmas = [e for e in evs if e.lane == "TCMMA"]
            loads = [e for e in evs if e.lane == "GToReg_B"]
            return any(
                ld.start < m.end and m.start < ld.end
                for m in mmas for ld in loads
            )
        assert overlaps(acc)
        assert not overlaps(dtc)  # B loads fully serialized before MMA

    def test_events_are_ordered_per_lane(self):
        for mode in PipelineMode:
            ev = trace_pipeline(stages(k=4), mode)
            for lane in ("GToSHM_A", "GToReg_B", "TCMMA"):
                ends = [e.end for e in ev if e.lane == lane]
                starts = [e.start for e in ev if e.lane == lane]
                assert all(a <= b for a, b in zip(starts, starts[1:]))
                assert all(e >= s for s, e in zip(starts, ends))

    def test_render_contains_lanes(self):
        text = render_trace(trace_pipeline(stages(), PipelineMode.ACC))
        for lane in ("GToSHM_A", "GToReg_B", "TCMMA"):
            assert lane in text

    def test_render_empty(self):
        assert "empty" in render_trace([])

    def test_figure5_demo_gap_positive(self):
        text = figure5_gap_demo()
        assert "GAP" in text
        gap = float(text.rsplit("GAP = ", 1)[1].split()[0])
        assert gap > 0


class TestOps:
    def test_transpose_matches_dense(self, small_csr):
        np.testing.assert_allclose(
            transpose(small_csr).to_dense(), small_csr.to_dense().T
        )

    def test_transpose_involution(self, small_csr):
        back = transpose(transpose(small_csr))
        np.testing.assert_array_equal(back.indices, small_csr.indices)
        np.testing.assert_allclose(back.vals, small_csr.vals)

    def test_take_rows(self, small_csr):
        rows = np.array([5, 0, 9])
        sub = take_rows(small_csr, rows)
        np.testing.assert_allclose(
            sub.to_dense(), small_csr.to_dense()[rows]
        )

    def test_take_rows_out_of_range(self, small_csr):
        with pytest.raises(ValidationError):
            take_rows(small_csr, np.array([small_csr.n_rows]))

    def test_take_cols(self, small_csr):
        cols = np.array([1, 3, 8])
        sub = take_cols(small_csr, cols)
        np.testing.assert_allclose(
            sub.to_dense(), small_csr.to_dense()[:, cols]
        )

    def test_diagonal(self):
        csr = random_csr(16, 16, 0.5, seed=61)
        np.testing.assert_allclose(
            diagonal(csr), np.diag(csr.to_dense())
        )

    def test_scale_rows_cols(self, small_csr):
        f = np.arange(1, small_csr.n_rows + 1, dtype=np.float64)
        g = np.arange(1, small_csr.n_cols + 1, dtype=np.float64)
        np.testing.assert_allclose(
            scale_rows(small_csr, f).to_dense(),
            np.diag(f) @ small_csr.to_dense(),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            scale_cols(small_csr, g).to_dense(),
            small_csr.to_dense() @ np.diag(g),
            rtol=1e-6,
        )

    def test_scale_shape_validated(self, small_csr):
        with pytest.raises(ValidationError):
            scale_rows(small_csr, np.ones(3))

    def test_add(self):
        a = random_csr(12, 12, 0.3, seed=62)
        b = random_csr(12, 12, 0.3, seed=63)
        np.testing.assert_allclose(
            add(a, b).to_dense(), a.to_dense() + b.to_dense(), rtol=1e-6
        )

    def test_add_shape_mismatch(self, small_csr):
        with pytest.raises(ValidationError):
            add(small_csr, random_csr(8, 8, 0.3, seed=64))

    def test_self_loops(self):
        csr = random_csr(10, 10, 0.2, seed=65)
        hat = with_self_loops(csr, weight=2.0)
        np.testing.assert_allclose(
            hat.to_dense(), csr.to_dense() + 2.0 * np.eye(10), rtol=1e-6
        )

    def test_gcn_normalize_row_sums(self):
        csr = random_csr(20, 20, 0.2, seed=66, values="ones")
        norm = gcn_normalize(csr)
        dense = norm.to_dense()
        # symmetric normalisation of a symmetric-ish matrix keeps entries
        # in [0, 1] and the diagonal positive
        assert (dense >= 0).all() and dense.max() <= 1.0 + 1e-6
        assert (np.diag(dense) > 0).all()
