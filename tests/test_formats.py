"""Unit tests for the tiled formats (BitTCF, ME-TCF, TCF) and footprints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import BitTCF, MeTCF, TCF, build_tiling, format_footprint
from repro.util.bitops import popcount64

from tests.conftest import random_csr


@pytest.fixture
def trio(small_csr):
    t = build_tiling(small_csr)
    return (
        small_csr,
        BitTCF.from_csr(small_csr, t),
        MeTCF.from_csr(small_csr, t),
        TCF.from_csr(small_csr, t),
    )


class TestBitTCF:
    def test_popcounts_match_offsets(self, trio):
        _, bit, _, _ = trio
        counts = np.asarray(popcount64(bit.tc_local_bit), dtype=np.int64)
        np.testing.assert_array_equal(counts, bit.tiling.nnz_per_block())

    def test_roundtrip_to_csr(self, trio):
        csr, bit, _, _ = trio
        back = bit.to_csr()
        np.testing.assert_array_equal(back.indptr, csr.indptr)
        np.testing.assert_array_equal(back.indices, csr.indices)
        np.testing.assert_allclose(back.vals, csr.vals)

    def test_metadata_formula(self, trio):
        csr, bit, _, _ = trio
        m_windows = -(-csr.n_rows // 8)
        expected = 4 * (m_windows + 11 * bit.tiling.n_blocks + 2)
        assert bit.metadata_bytes() == expected

    def test_block_dense_matches_batch(self, trio):
        _, bit, _, _ = trio
        batch = bit.blocks_dense(np.arange(bit.tiling.n_blocks))
        for b in range(bit.tiling.n_blocks):
            np.testing.assert_allclose(batch[b], bit.block_dense(b))

    def test_corrupt_bitmask_rejected(self, trio):
        _, bit, _, _ = trio
        bad = bit.tc_local_bit.copy()
        bad[0] = np.uint64(0)  # popcount no longer matches
        with pytest.raises(FormatError):
            BitTCF(bit.tiling, bad, bit.vals)

    def test_wrong_val_count_rejected(self, trio):
        _, bit, _, _ = trio
        with pytest.raises(FormatError):
            BitTCF(bit.tiling, bit.tc_local_bit, bit.vals[:-1])


class TestMeTCF:
    def test_local_ids_monotone_within_block(self, trio):
        _, _, me, _ = trio
        t = me.tiling
        ids = me.tc_local_id.astype(np.int64)
        for b in range(t.n_blocks):
            lo, hi = t.tc_offset[b], t.tc_offset[b + 1]
            assert (np.diff(ids[lo:hi]) > 0).all()

    def test_bitmask_equivalence(self, trio):
        _, bit, me, _ = trio
        np.testing.assert_array_equal(me.to_bitmask(), bit.tc_local_bit)

    def test_metadata_grows_with_nnz(self):
        sparse = random_csr(64, 64, 0.05, seed=10)
        dense = random_csr(64, 64, 0.5, seed=10)
        me_sparse = MeTCF.from_csr(sparse)
        me_dense = MeTCF.from_csr(dense)
        # per-block occupancy bytes: ME-TCF pays 1 byte per nnz
        assert (
            me_dense.metadata_bytes() - 4 * (9 + me_dense.tiling.n_blocks * 9 + 1)
            > me_sparse.metadata_bytes()
            - 4 * (9 + me_sparse.tiling.n_blocks * 9 + 1)
        )


class TestTCF:
    def test_dense_tiles_match_decompression(self, trio):
        _, bit, me, tcf = trio
        for b in range(tcf.tiling.n_blocks):
            np.testing.assert_allclose(tcf.block_dense(b), bit.block_dense(b))
            np.testing.assert_allclose(tcf.block_dense(b), me.block_dense(b))

    def test_tcf_largest_metadata(self, trio):
        _, bit, me, tcf = trio
        assert tcf.metadata_bytes() > me.metadata_bytes()
        assert tcf.metadata_bytes() > bit.metadata_bytes()


class TestFootprints:
    def test_paper_ordering_bittcf_smallest(self):
        """Figure 12's ordering: BitTCF < ME-TCF << TCF metadata."""
        for seed, density in [(0, 0.1), (1, 0.3), (2, 0.6)]:
            csr = random_csr(80, 80, density, seed=seed)
            t = build_tiling(csr)
            bit = format_footprint(BitTCF.from_csr(csr, t), "bit")
            me = format_footprint(MeTCF.from_csr(csr, t), "me")
            tcf = format_footprint(TCF.from_csr(csr, t), "tcf")
            assert bit.metadata_bytes <= me.metadata_bytes < tcf.metadata_bytes

    def test_bittcf_advantage_grows_with_density(self):
        """§3.3: "BitTCF can effectively save memory as nnz increases"."""
        gaps = []
        for density in (0.15, 0.35, 0.7):
            csr = random_csr(64, 64, density, seed=3)
            t = build_tiling(csr)
            me = MeTCF.from_csr(csr, t).metadata_bytes()
            bit = BitTCF.from_csr(csr, t).metadata_bytes()
            gaps.append(me - bit)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_ratio_vs(self):
        csr = random_csr(40, 40, 0.3, seed=4)
        t = build_tiling(csr)
        tcf = format_footprint(TCF.from_csr(csr, t))
        bit = format_footprint(BitTCF.from_csr(csr, t))
        assert bit.ratio_vs(tcf) > 1.0
        assert tcf.ratio_vs(tcf) == pytest.approx(1.0)

    def test_value_bytes(self):
        csr = random_csr(40, 40, 0.3, seed=5)
        fp = format_footprint(BitTCF.from_csr(csr))
        assert fp.value_bytes == 4 * csr.nnz
        assert fp.total_bytes == fp.metadata_bytes + fp.value_bytes


@given(
    density=st.floats(min_value=0.05, max_value=0.8),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=30, deadline=None)
def test_property_formats_agree_on_every_block(density, seed):
    """All three formats decompress every block identically."""
    csr = random_csr(24, 24, density, seed=seed)
    if csr.nnz == 0:
        return
    t = build_tiling(csr)
    bit = BitTCF.from_csr(csr, t)
    me = MeTCF.from_csr(csr, t)
    tcf = TCF.from_csr(csr, t)
    for b in range(t.n_blocks):
        d = bit.block_dense(b)
        np.testing.assert_allclose(me.block_dense(b), d)
        np.testing.assert_allclose(tcf.block_dense(b), d)
