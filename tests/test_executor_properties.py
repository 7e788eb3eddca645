"""Property suite for the executor's fold-order layout.

The contract under test (see :mod:`repro.kernels.executor`): an
``exact``-tier multiply through a compiled chunk program — blocks in
fold order, one gather, one batched MMA, slice-add folds, a composed
output ``take`` — is **bit-for-bit** equal to
:func:`~repro.kernels.tc_common.execute_tiled_reference` on the cpu arm
and on the cupy arm (served by ``tests/fake_cupy.py``).  Hypothesis
draws the window structure directly: TC-GNN keeps the identity row
order, so a window given ``b`` blocks' worth of distinct columns tiles
into exactly ``b`` TC blocks.  Covered: empty windows, windows of 1-8
and 9+ blocks, partly filled blocks (padding slots), a ragged last
window, multi-chunk programs forced through ``exec_chunk_elems`` (so
windows straddle chunk boundaries), over-budget lazy executors, batched
right-hand sides, widths 1/8/16/64, and ``B`` holding ``-0.0``, ``±inf``
and NaN against negative A values.

NaN payloads are the one thing compared loosely: numpy's own add keeps
the first operand's NaN in its SIMD body and the second's in its scalar
tail, ``reduceat`` included, so no whole-array fold can promise which
NaN survives when two meet.  Which outputs are NaN, and every other bit,
must match.

The suite is skipped where hypothesis is not installed (it is in CI's
test matrix).
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.kernels.executor as executor_mod  # noqa: E402
import repro.kernels.tc_common as tc_common  # noqa: E402
from conftest import same_bits  # noqa: E402
from fake_cupy import make_fake_cupy  # noqa: E402
from repro.backend import reset_backend, resolve_backend  # noqa: E402
from repro.gpusim.specs import get_device  # noqa: E402
from repro.kernels.accspmm import AccSpMMKernel  # noqa: E402
from repro.kernels.executor import (  # noqa: E402
    STEPPED_MAX_SEG,
    _fold_layout,
    _segments,
    get_executor,
)
from repro.kernels.tc_common import execute_tiled, execute_tiled_reference  # noqa: E402
from repro.kernels.tcgnn import TCGNNKernel  # noqa: E402
from repro.sparse.convert import coo_to_csr  # noqa: E402
from repro.sparse.coo import COOMatrix  # noqa: E402

DEVICE = get_device("a800")
ARMS = ("cpu", "cupy")
#: block counts a drawn window may have: empty, short (1-8), long (9+)
WINDOW_BLOCKS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 12)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
@contextlib.contextmanager
def arm_backend(arm: str):
    """The resolved backend for ``arm``; ``"cupy"`` is served by a fresh
    fake installed as ``sys.modules["cupy"]`` for the block's duration."""
    if arm == "cpu":
        yield resolve_backend("cpu")
        return
    saved = sys.modules.get("cupy")
    sys.modules["cupy"] = make_fake_cupy()
    reset_backend()
    try:
        backend = resolve_backend("cupy")
        assert backend.name == "cupy"  # the fake must not have fallen back
        yield backend
    finally:
        reset_backend()
        if saved is None:
            sys.modules.pop("cupy", None)
        else:
            sys.modules["cupy"] = saved


def windowed_csr(blocks, tail: int, seed: int, negative: float):
    """A CSR whose RowWindow ``w`` holds ``blocks[w]`` TC blocks under
    the identity row order: ``8 * (b - 1) + 1 .. 8 * b`` distinct
    columns (a partly filled last block leaves padding slots), spread
    over the window's rows.  ``tail`` rows are cut from the last window;
    a ``negative`` share of the values is negative."""
    r = np.random.default_rng(seed)
    n_cols = 8 * (max(blocks) + 1)
    n_rows = max(1, 8 * len(blocks) - tail)
    dense = np.zeros((n_rows, n_cols), dtype=np.float32)
    for w, b in enumerate(blocks):
        rows = np.arange(8 * w, min(8 * w + 8, n_rows))
        if b == 0 or rows.size == 0:
            continue
        n_distinct = 8 * (b - 1) + int(r.integers(1, 9))
        cols = r.choice(n_cols, size=n_distinct, replace=False)
        # every chosen column gets one entry, some rows get extras
        extra = int(r.integers(0, n_distinct + 1))
        rr = np.concatenate([r.choice(rows, n_distinct), r.choice(rows, extra)])
        cc = np.concatenate([cols, r.choice(cols, extra)])
        vals = r.uniform(0.1, 1.0, rr.size)
        vals[r.random(rr.size) < negative] *= -1.0
        dense[rr, cc] = vals
    return coo_to_csr(COOMatrix.from_dense(dense))


def special_b(shape, seed: int, specials: bool) -> np.ndarray:
    """Random ``B``; with ``specials``, salted with -0.0, +0.0, ±inf and
    NaN (zeros against negative A values make -0.0 products)."""
    r = np.random.default_rng(seed)
    B = r.uniform(-1.0, 1.0, shape).astype(np.float32)
    if specials:
        u = r.random(shape)
        B[u < 0.15] = np.float32(-0.0)
        B[(u >= 0.15) & (u < 0.2)] = np.float32(0.0)
        B[(u >= 0.2) & (u < 0.22)] = np.float32(np.inf)
        B[(u >= 0.22) & (u < 0.24)] = np.float32(-np.inf)
        B[(u >= 0.24) & (u < 0.26)] = np.float32(np.nan)
    return B


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def exec_case(draw):
    """A windowed matrix plus how to multiply it: width, batch, chunk
    size (``None``: one chunk), lazy tiles, special values in ``B``."""
    blocks = draw(
        st.lists(st.sampled_from(WINDOW_BLOCKS), min_size=1, max_size=10)
    )
    if not any(blocks):
        blocks[0] = draw(st.integers(1, 12))
    return {
        "blocks": blocks,
        "tail": draw(st.integers(0, 7)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "negative": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "n": draw(st.sampled_from([1, 8, 16, 64])),
        "batch": draw(st.sampled_from([None, 1, 3])),
        "bpc": draw(st.one_of(st.none(), st.integers(1, 30))),
        "lazy": draw(st.booleans()),
        "specials": draw(st.booleans()),
    }


def run_case(case, arm: str):
    """``(executor, exact-tier result, reference)`` for one drawn case."""
    csr = windowed_csr(
        case["blocks"], case["tail"], case["seed"], case["negative"]
    )
    n = case["n"]
    tc = TCGNNKernel().plan(csr, n, DEVICE)
    bc = tc.tiling.block_cols
    if case["bpc"] is not None:
        tc.meta["exec_chunk_elems"] = case["bpc"] * bc * n
    if case["lazy"]:
        tc.meta["exec_max_bytes"] = 0
    shape = (csr.n_cols, n) if case["batch"] is None else (
        case["batch"], csr.n_cols, n
    )
    B = special_b(shape, case["seed"] + 1, case["specials"])
    with np.errstate(invalid="ignore"), arm_backend(arm) as backend:
        C = execute_tiled(tc, B, backend=backend)
        ref = execute_tiled_reference(tc, B, blocks_per_chunk=case["bpc"])
    return get_executor(tc), C, ref


# ----------------------------------------------------------------------
# the contract: exact tier == reference, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=40, deadline=None)
@given(case=exec_case())
def test_exact_bitwise_equal_to_reference(arm, case):
    ex, C, ref = run_case(case, arm)
    assert same_bits(C, ref)
    assert ex.materialized is not case["lazy"]
    long_windows = any(b > STEPPED_MAX_SEG for b in case["blocks"])
    assert set(ex.stats.strategies) <= {"direct", "stepped"}
    if case["bpc"] is None and long_windows:
        assert ex.stats.strategies == {"stepped": 1}


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=25, deadline=None)
@given(case=exec_case())
def test_reduceat_fallback_bitwise_equal_to_reference(arm, case):
    """A failed order probe caps the slab layout at one block per
    window and hands longer windows to ``reduceat`` (``device_reduceat``
    on the cupy arm)."""
    with mock.patch.object(executor_mod, "_stepped_replica_ok", lambda: False):
        ex, C, ref = run_case(case, arm)
    assert same_bits(C, ref)
    assert "stepped" not in ex.stats.strategies
    if any(b > 1 for b in case["blocks"]) and case["bpc"] is None:
        assert ex.stats.strategies == {"reduceat": 1}


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.sampled_from([8, 16]),
    bpc=st.one_of(st.none(), st.integers(2, 20)),
)
def test_affinity_ordered_plans(arm, seed, n, bpc):
    """The Acc-SpMM kernel's reordered windows take the same layout."""
    r = np.random.default_rng(seed)
    dense = np.where(r.random((72, 64)) < 0.12, r.uniform(-1, 1, (72, 64)), 0.0)
    dense[r.integers(0, 72), r.choice(64, 60, replace=False)] = 0.5  # hub row
    csr = coo_to_csr(COOMatrix.from_dense(dense.astype(np.float32)))
    tc = AccSpMMKernel().plan(csr, n, DEVICE)
    if bpc is not None:
        tc.meta["exec_chunk_elems"] = bpc * tc.tiling.block_cols * n
    B = special_b((csr.n_cols, n), seed, specials=True)
    with np.errstate(invalid="ignore"), arm_backend(arm) as backend:
        C = execute_tiled(tc, B, backend=backend)
        assert same_bits(C, execute_tiled_reference(tc, B, blocks_per_chunk=bpc))


# ----------------------------------------------------------------------
# signed zeros: the fold keeps the reference's ``0 + fold``
# ----------------------------------------------------------------------
def _negzero(mma):
    """``mma`` with every zero result turned into ``-0.0`` — partial
    products a BLAS that seeds its accumulator with the first product
    could emit, which numpy's own matmul never does."""

    def wrapped(*args, **kwargs):
        out = mma(*args, **kwargs)
        out[out == 0] = np.float32(-0.0)
        return out

    return wrapped


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("bpc", [None, 3])
def test_negative_zero_partials_fold_to_reference(arm, bpc):
    """A window whose partials are all ``-0.0`` folds to ``-0.0``; the
    reference adds it into a zeroed accumulator and stores ``+0.0``,
    and so must every program shape."""
    csr = windowed_csr([2, 0, 1, 9, 4, 1], tail=3, seed=5, negative=1.0)
    tc = TCGNNKernel().plan(csr, 8, DEVICE)
    if bpc is not None:
        tc.meta["exec_chunk_elems"] = bpc * tc.tiling.block_cols * 8
    B = np.zeros((csr.n_cols, 8), dtype=np.float32)
    B[::3] = np.float32(-0.0)
    B[1::5] = np.float32(0.5)

    mma = _negzero(tc_common.batched_tile_mma)
    with contextlib.ExitStack() as stack:
        backend = stack.enter_context(arm_backend(arm))
        stack.enter_context(mock.patch.object(tc_common, "batched_tile_mma", mma))
        stack.enter_context(mock.patch.object(executor_mod, "batched_tile_mma", mma))
        if arm == "cupy":
            cp = sys.modules["cupy"]
            stack.enter_context(mock.patch.object(cp, "matmul", _negzero(cp.matmul)))
        C = execute_tiled(tc, B, backend=backend)
        ref = execute_tiled_reference(tc, B, blocks_per_chunk=bpc)
    assert np.signbit(ref[ref == 0]).sum() == 0  # the reference's +0.0s
    assert (ref == 0).any()
    assert same_bits(C, ref)


# ----------------------------------------------------------------------
# the layout itself
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    lens=st.lists(st.integers(1, 14), min_size=1, max_size=40),
    cap=st.sampled_from([1, STEPPED_MAX_SEG]),
)
def test_fold_layout_shape(lens, cap):
    """Short windows step-major by descending length, then the long
    windows contiguous; the order is a permutation of the chunk."""
    w = np.repeat(np.arange(len(lens), dtype=np.int64) * 2, lens)
    wins, first, seg = _segments(w)
    order, steps, fold_wins, long_first = _fold_layout(wins, first, seg, cap)
    assert np.array_equal(np.sort(order), np.arange(w.size))
    short = [(L, i) for i, L in enumerate(lens) if L <= cap]
    short.sort(key=lambda t: -t[0])  # stable: ties keep window order
    assert list(steps) == [
        sum(1 for L, _ in short if L > s) for s in range(max([0] + [L for L, _ in short]))
    ]
    # slab s holds block s of every window still open at step s
    at = 0
    for s, m in enumerate(steps):
        want = [first[i] + s for _, i in short[:m]]
        assert order[at : at + m].tolist() == want
        at += m
    long_ = [i for i, L in enumerate(lens) if L > cap]
    assert fold_wins.tolist() == [wins[i] for _, i in short] + [wins[i] for i in long_]
    if long_:
        starts = np.cumsum([0] + [lens[i] for i in long_[:-1]])
        assert long_first.tolist() == starts.tolist()
        assert order[at:].tolist() == [
            int(first[i]) + j for i in long_ for j in range(lens[i])
        ]
    else:
        assert long_first is None and at == w.size
