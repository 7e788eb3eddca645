"""Property suite for structural deltas (``repro.sparse.delta`` +
``AccPlan.apply_delta``).

The contract under test is the streaming path's whole reason to exist
(see ``docs/STREAMING.md``): a plan patched with
:meth:`~repro.core.planner.AccPlan.apply_delta` must be **bit-for-bit**
identical to planning the edited matrix from scratch with the base
plan's reordering pinned — same tiling arrays, packed values, TB
schedule, A-tile byte costs, and multiply bits.  Hypothesis drives
random base matrices and random edit streams (upserts, deletions,
duplicate edges, removals of absent edges, emptied rows, empty deltas,
chained steps) across all three tensor-core kernels, every numerics
tier, and both execution arms (the cupy arm served by
``tests/fake_cupy.py``).

Alongside the plan-level property, the delta container itself is pinned
down: ``apply_to`` against a dense numpy reference, last-writer-wins
canonicalisation, removals-before-additions ordering, and a lossless
``as_arrays``/``from_arrays`` round trip.

The suite is skipped where hypothesis is not installed (it is in CI's
test matrix).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import bits_equal, make_b, random_csr  # noqa: E402
from fake_cupy import make_fake_cupy  # noqa: E402
from repro.backend import reset_backend, resolve_backend  # noqa: E402
from repro.core.config import AccConfig  # noqa: E402
from repro.core.planner import AccPlan, plan  # noqa: E402
from repro.gpusim.specs import get_device  # noqa: E402
from repro.kernels.accspmm import AccSpMMKernel  # noqa: E402
from repro.kernels.dtc import DTCKernel  # noqa: E402
from repro.kernels.tc_common import execute_tiled  # noqa: E402
from repro.kernels.tcgnn import TCGNNKernel  # noqa: E402
from repro.sparse.convert import coo_to_csr  # noqa: E402
from repro.sparse.coo import COOMatrix  # noqa: E402
from repro.sparse.delta import GraphDelta  # noqa: E402
from repro.tune import TIERS  # noqa: E402

DEVICE = get_device("a800")
FEATURE_DIM = 16


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def make_csr(n_rows, n_cols, density, seed):
    """A random CSR with arbitrary (possibly non-multiple-of-8) dims."""
    r = np.random.default_rng(seed)
    dense = np.where(
        r.random((n_rows, n_cols)) < density,
        r.uniform(0.1, 1.0, (n_rows, n_cols)),
        0.0,
    )
    return coo_to_csr(COOMatrix.from_dense(dense.astype(np.float32)))


def build_plan(kernel, csr, feature_dim=FEATURE_DIM):
    """An :class:`AccPlan` around an explicit kernel instance."""
    tc = kernel.plan(csr, feature_dim, DEVICE)
    return AccPlan(
        csr=csr,
        config=AccConfig(),
        device=DEVICE,
        feature_dim=feature_dim,
        tc_plan=tc,
        build_seconds=0.0,
        kernel=kernel,
    )


def pinned_fresh(base: AccPlan, new_csr):
    """A from-scratch plan of ``new_csr`` with ``base``'s reordering
    pinned — the reference ``apply_delta`` promises bit-equality with.

    TC-GNN needs no pinning: its SGT "reordering" is the identity and
    is recomputed deterministically from any matrix of the same shape.
    """
    kernel = base.kernel
    opts = dict(kernel.options)
    if not isinstance(kernel, TCGNNKernel):
        opts["reorder"] = base.tc_plan.reorder
    return type(kernel)(**opts).plan(new_csr, base.feature_dim, base.device)


def assert_tc_equal(got, want, B=None):
    """Bit-for-bit plan equality: tiling, values, schedule, multiply."""
    tg, tw = got.tiling, want.tiling
    assert (tg.n_rows, tg.n_cols, tg.window_rows, tg.block_cols) == (
        tw.n_rows,
        tw.n_cols,
        tw.window_rows,
        tw.block_cols,
    )
    for name in type(tg).ARRAY_FIELDS:
        np.testing.assert_array_equal(
            getattr(tg, name), getattr(tw, name), err_msg=f"tiling.{name}"
        )
    assert got.vals_packed.tobytes() == want.vals_packed.tobytes()
    np.testing.assert_array_equal(got.bytes_a_per_block, want.bytes_a_per_block)
    sg, sw = got.schedule, want.schedule
    np.testing.assert_array_equal(sg.tb_start, sw.tb_start)
    np.testing.assert_array_equal(sg.tb_end, sw.tb_end)
    np.testing.assert_array_equal(sg.segments_per_tb, sw.segments_per_tb)
    assert (sg.balanced, sg.strategy) == (sw.balanced, sw.strategy)
    if B is not None:
        assert bits_equal(execute_tiled(got, B), execute_tiled(want, B))


def existing_edges(csr, seed, k):
    """Up to ``k`` actual non-zeros of ``csr`` as (row, col) pairs, so
    removal streams hit present edges, not just random coordinates."""
    if csr.indices.size == 0 or k == 0:
        return []
    r = np.random.default_rng(seed)
    idx = r.choice(csr.indices.size, size=min(k, csr.indices.size), replace=False)
    rows = np.repeat(
        np.arange(csr.n_rows, dtype=np.int64), np.diff(csr.indptr)
    )
    return [(int(rows[i]), int(csr.indices[i])) for i in idx]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def edit_stream(draw):
    """(n_rows, n_cols, base seed, density, steps).

    Each step is (added triples, removed pairs, drop_seed, n_drop):
    the removed pairs are random coordinates (mostly absent — the
    no-op-removal path), while ``n_drop`` edges drawn from the current
    matrix with ``drop_seed`` guarantee real deletions, including the
    possibility of emptying a row entirely.
    """
    n_rows = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3]))
    row = st.integers(0, n_rows - 1)
    col = st.integers(0, n_cols - 1)
    val = st.floats(min_value=0.125, max_value=2.0, width=32)
    step = st.tuples(
        st.lists(st.tuples(row, col, val), max_size=10),
        st.lists(st.tuples(row, col), max_size=6),
        st.integers(0, 2**31 - 1),
        st.integers(0, 6),
    )
    steps = draw(st.lists(step, min_size=1, max_size=3))
    return n_rows, n_cols, seed, density, steps


def dense_apply(dense, delta):
    """The obvious numpy model of a delta: zero removals, then upsert."""
    out = dense.copy()
    out[delta.removed_rows, delta.removed_cols] = 0.0
    out[delta.added_rows, delta.added_cols] = delta.added_vals
    return out


# ----------------------------------------------------------------------
# the tentpole property: patched == pinned fresh, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kernel_cls", [AccSpMMKernel, DTCKernel, TCGNNKernel]
)
@settings(max_examples=12, deadline=None)
@given(data=edit_stream())
def test_stream_bitwise_equal_to_pinned_fresh_plan(kernel_cls, data):
    n_rows, n_cols, seed, density, steps = data
    current = build_plan(kernel_cls(), make_csr(n_rows, n_cols, density, seed))
    for added, removed, drop_seed, n_drop in steps:
        removed = list(removed) + existing_edges(current.csr, drop_seed, n_drop)
        delta = GraphDelta.from_edges(added=added, removed=removed)
        patched = current.apply_delta(delta)
        fresh = pinned_fresh(current, delta.apply_to(current.csr))
        B = make_b(patched.csr, n=8, seed=3)
        assert_tc_equal(patched.tc_plan, fresh, B)
        # the patched plan is itself a valid base: chain the next step
        current = patched
    # dense ground truth for the whole chain (values only — TC rounding
    # is checked bitwise against the fresh plan above, not against
    # float64 matmat)
    B = make_b(current.csr, n=8, seed=3)
    np.testing.assert_allclose(
        current.multiply(B), current.csr.matmat(B), rtol=0, atol=5e-2
    )


def check_executor_caches_rebase(data, chunks: int) -> None:
    """A warm base hands the patched plan no executor: with every tier
    of the base compiled before the delta, the patched plan starts with
    no exec cache, and once multiplied it gives the fresh plan's bits at
    every tier.  ``chunks`` > 1 splits the blocks into about that many
    chunk programs through ``exec_chunk_elems``, a knob the patched plan
    keeps."""
    n_rows, n_cols, seed, density, steps = data
    current = build_plan(AccSpMMKernel(), make_csr(n_rows, n_cols, density, seed))
    t = current.tc_plan.tiling
    if chunks > 1:
        bpc = max(1, t.n_blocks // chunks)
        current.tc_plan.meta["exec_chunk_elems"] = bpc * t.block_cols * 8
    added, removed, drop_seed, n_drop = steps[0]
    B = make_b(current.csr, n=8, seed=3)
    for tier in TIERS:
        current.multiply(B, numerics=tier)  # warm every tier's executor
        if t.n_blocks:
            ex = current.executor_for(tier)
            (prog,) = ex._programs.values()
            assert len(prog) >= min(chunks, t.n_blocks)
    delta = GraphDelta.from_edges(
        added=added,
        removed=list(removed) + existing_edges(current.csr, drop_seed, n_drop),
    )
    patched = current.apply_delta(delta)
    assert patched.tc_plan.exec_cache is None
    fresh = pinned_fresh(current, delta.apply_to(current.csr))
    fresh.meta.update(
        {k: v for k, v in current.tc_plan.meta.items() if k == "exec_chunk_elems"}
    )
    assert patched.tc_plan.meta.get("exec_chunk_elems") == fresh.meta.get(
        "exec_chunk_elems"
    )
    B2 = make_b(patched.csr, n=8, seed=5)
    for tier in TIERS:
        assert bits_equal(
            patched.multiply(B2, numerics=tier),
            execute_tiled(fresh, B2, numerics=tier),
        )


@settings(max_examples=12, deadline=None)
@given(data=edit_stream())
def test_executor_caches_rebase_bitwise(data):
    check_executor_caches_rebase(data, chunks=1)


@settings(max_examples=12, deadline=None)
@given(data=edit_stream())
def test_executor_caches_rebase_bitwise_multi_chunk(data):
    check_executor_caches_rebase(data, chunks=3)


@pytest.mark.parametrize("kernel_cls", [AccSpMMKernel, DTCKernel, TCGNNKernel])
def test_empty_delta_is_bitwise_noop(kernel_cls):
    base = build_plan(kernel_cls(), random_csr(40, 40, density=0.1, seed=2))
    patched = base.apply_delta(GraphDelta.from_edges())
    B = make_b(base.csr, n=8)
    assert_tc_equal(patched.tc_plan, base.tc_plan, B)
    assert patched.csr.indices.size == base.csr.indices.size


def test_emptied_row_and_refilled_row():
    """Deleting every edge of a row (an emptied window) and refilling a
    previously empty row both stay bit-equal to the pinned fresh plan."""
    base = plan(random_csr(48, 40, density=0.12, seed=9), feature_dim=16)
    row = 11
    lo, hi = int(base.csr.indptr[row]), int(base.csr.indptr[row + 1])
    assert hi > lo, "fixture row must be non-empty"
    empty_row = base.apply_delta(
        removed=[(row, int(c)) for c in base.csr.indices[lo:hi]]
    )
    assert int(np.diff(empty_row.csr.indptr)[row]) == 0
    assert_tc_equal(
        empty_row.tc_plan,
        pinned_fresh(base, empty_row.csr),
        make_b(empty_row.csr, n=8),
    )
    refilled = empty_row.apply_delta(added=[(row, 0, 1.5), (row, 39, 0.25)])
    assert_tc_equal(
        refilled.tc_plan,
        pinned_fresh(empty_row, refilled.csr),
        make_b(refilled.csr, n=8),
    )


def test_zero_nnz_base_grows_from_nothing():
    base = plan(make_csr(16, 16, 0.0, 0), feature_dim=16)
    assert base.csr.indices.size == 0
    patched = base.apply_delta(added=[(0, 0, 1.0), (9, 5, 2.0), (15, 15, 0.5)])
    assert patched.csr.indices.size == 3
    assert_tc_equal(
        patched.tc_plan, pinned_fresh(base, patched.csr), make_b(patched.csr, n=8)
    )


# ----------------------------------------------------------------------
# execution arms
# ----------------------------------------------------------------------
@pytest.fixture
def fake(monkeypatch):
    """A fresh fake-cupy module installed as ``sys.modules['cupy']``
    (the idiom of ``test_backend_conformance.py``)."""
    mod = make_fake_cupy()
    monkeypatch.setitem(sys.modules, "cupy", mod)
    monkeypatch.delenv("REPRO_USE_GPU", raising=False)
    monkeypatch.delenv("REPRO_GPU_DEVICE", raising=False)
    reset_backend()
    yield mod
    reset_backend()


@pytest.mark.parametrize("arm", ["cpu", "cupy"])
def test_patched_plan_bitwise_on_both_arms(arm, fake):
    """Rebased executors feed the device arm the same program a fresh
    plan would: patched and pinned-fresh bits agree on cpu *and* on the
    (fake-)cupy arm, and the two arms agree with each other."""
    backend = resolve_backend(arm)
    assert backend.name == arm  # cupy must not have fallen back
    base = plan(random_csr(48, 40, density=0.12, seed=5), feature_dim=16)
    B0 = make_b(base.csr, n=16)
    base.multiply(B0, backend=backend)  # warm the executor pre-delta
    patched = base.apply_delta(
        added=[(0, 1, 0.5), (17, 3, 1.25), (47, 39, 2.0)], removed=[(2, 2)]
    )
    fresh = pinned_fresh(base, patched.csr)
    B = make_b(patched.csr, n=16)
    got = execute_tiled(patched.tc_plan, B, backend=backend)
    assert bits_equal(got, execute_tiled(fresh, B, backend=backend))
    assert bits_equal(got, execute_tiled(fresh, B))  # vs plain cpu arm


# ----------------------------------------------------------------------
# the container itself
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(data=edit_stream())
def test_apply_to_matches_dense_reference(data):
    n_rows, n_cols, seed, density, steps = data
    csr = make_csr(n_rows, n_cols, density, seed)
    dense = csr.to_dense()
    for added, removed, drop_seed, n_drop in steps:
        removed = list(removed) + existing_edges(csr, drop_seed, n_drop)
        delta = GraphDelta.from_edges(added=added, removed=removed)
        csr = delta.apply_to(csr)
        dense = dense_apply(dense, delta)
        assert bits_equal(csr.to_dense(), dense)
        # shape is preserved by construction
        assert (csr.n_rows, csr.n_cols) == (n_rows, n_cols)


def test_duplicate_added_edges_resolve_last_writer_wins():
    delta = GraphDelta.from_edges(
        added=[(1, 2, 0.5), (0, 0, 1.0), (1, 2, 0.75), (1, 2, 0.25)]
    )
    assert delta.added_rows.tolist() == [0, 1]
    assert delta.added_cols.tolist() == [0, 2]
    assert delta.added_vals.tolist() == [1.0, 0.25]


def test_removal_of_absent_edge_is_noop():
    csr = random_csr(16, 16, density=0.1, seed=4)
    absent = [
        (r, c)
        for r in range(csr.n_rows)
        for c in range(csr.n_cols)
        if csr.to_dense()[r, c] == 0.0
    ][:3]
    out = GraphDelta.from_edges(removed=absent).apply_to(csr)
    assert bits_equal(out.to_dense(), csr.to_dense())


def test_edge_in_both_lists_ends_up_added():
    csr = make_csr(8, 8, 0.0, 0)
    delta = GraphDelta.from_edges(added=[(3, 3, 2.0)], removed=[(3, 3)])
    assert delta.apply_to(csr).to_dense()[3, 3] == np.float32(2.0)


@settings(max_examples=50, deadline=None)
@given(data=edit_stream())
def test_arrays_round_trip_is_lossless_and_canonical(data):
    n_rows, n_cols, _, _, steps = data
    added, removed, _, _ = steps[0]
    delta = GraphDelta.from_edges(added=added, removed=removed)
    back = GraphDelta.from_arrays(delta.as_arrays())
    for name in (
        "added_rows",
        "added_cols",
        "added_vals",
        "removed_rows",
        "removed_cols",
    ):
        np.testing.assert_array_equal(getattr(delta, name), getattr(back, name))
    # canonical form: emit the same edits shuffled, get identical arrays
    # (dedupe coordinates first — reversing a list with duplicates would
    # legitimately change which writer is last)
    unique = [(r, c, v) for (r, c), v in {(r, c): v for r, c, v in added}.items()]
    delta = GraphDelta.from_edges(added=unique, removed=removed)
    shuffled = GraphDelta.from_edges(
        added=list(reversed(unique)), removed=list(reversed(removed))
    )
    assert shuffled.as_arrays().keys() == delta.as_arrays().keys()
    for key, arr in delta.as_arrays().items():
        np.testing.assert_array_equal(arr, shuffled.as_arrays()[key])
