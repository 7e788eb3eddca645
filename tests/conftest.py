"""Shared fixtures for the test suite."""

from __future__ import annotations

import resource

import numpy as np
import pytest

from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.random import (
    banded_matrix,
    block_community_graph,
    erdos_renyi,
    powerlaw_graph,
)


#: address-space cap for the test process and the workers it starts:
#: a runaway allocation fails its own test with ``MemoryError`` instead
#: of getting the whole run OOM-killed
MEMORY_CAP_BYTES = 4 << 30


def pytest_configure(config):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def pytest_terminal_summary(terminalreporter):
    """Log the suite's peak resident memory (``ru_maxrss`` is in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    terminalreporter.write_line(f"peak RSS of the test process: {peak / 1024:.0f} MB")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def random_csr(n_rows=64, n_cols=64, density=0.1, seed=0, values="uniform"):
    """Small random CSR helper usable from any test."""
    r = np.random.default_rng(seed)
    mask = r.random((n_rows, n_cols)) < density
    dense = np.where(mask, r.uniform(0.1, 1.0, (n_rows, n_cols)), 0.0)
    if values == "ones":
        dense = mask.astype(np.float32)
    return coo_to_csr(COOMatrix.from_dense(dense.astype(np.float32)))


# ----------------------------------------------------------------------
# helpers shared by the executor/autotune/numerics/backend suites
# (formerly duplicated per test module)
# ----------------------------------------------------------------------
def bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Strict bitwise comparison (catches even -0.0 vs +0.0 drift)."""
    return x.shape == y.shape and np.array_equal(
        x.view(np.uint32), y.view(np.uint32)
    )


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Bitwise equality with NaN payloads aside: which outputs are NaN
    must match, but numpy's add picks which of two meeting NaNs
    survives by array position (see the executor docs)."""
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    xn, yn = np.isnan(x), np.isnan(y)
    return np.array_equal(xn, yn) and np.array_equal(
        x.view(np.uint32)[~xn], y.view(np.uint32)[~yn]
    )


def make_b(csr, n=16, seed=7):
    """A dense B sized to ``csr``'s column count."""
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, (csr.n_cols, n)).astype(np.float32)


def rhs(n_cols, n=16, seed=11, batch=None):
    """A dense B (or a batched stack of them) by explicit column count."""
    r = np.random.default_rng(seed)
    shape = (n_cols, n) if batch is None else (batch, n_cols, n)
    return r.uniform(-1.0, 1.0, shape).astype(np.float32)


def hub_csr(n=128, hub_nnz=90, density=0.06, seed=7):
    """A matrix whose hub row forces RowWindows with > 8 TC blocks
    (exercising the executor's long-segment compaction bucket)."""
    r = np.random.default_rng(seed)
    dense = np.where(
        r.random((n, n)) < density, r.uniform(0.1, 1.0, (n, n)), 0.0
    )
    dense[3, r.choice(n, size=hub_nnz, replace=False)] = r.uniform(
        0.5, 1.5, hub_nnz
    )
    return coo_to_csr(COOMatrix.from_dense(dense.astype(np.float32)))


def dense_band():
    """A near-dense banded matrix (fused-strategy / dense-chunk bait)."""
    return coo_to_csr(banded_matrix(384, bandwidth=24, fill=0.95, seed=31))


def sparse_graph():
    """A very sparse uniform graph (stays on the gather strategies)."""
    return coo_to_csr(erdos_renyi(384, avg_degree=4.0, seed=32))


def max_row_nnz(csr) -> int:
    """Worst-case accumulation depth (the numerics error-bound input)."""
    d = np.diff(csr.indptr)
    return int(d.max()) if d.size else 0


@pytest.fixture
def small_csr():
    """64x64, ~10% dense, positive values (no cancellation)."""
    return random_csr(seed=1)


@pytest.fixture
def medium_graph_csr():
    """A 512-vertex community graph, the reorderers' natural input."""
    return coo_to_csr(
        block_community_graph(512, n_blocks=16, avg_block_degree=6.0, seed=3)
    )


@pytest.fixture
def skewed_csr():
    """Power-law matrix with hub rows (imbalance for the LB tests)."""
    return coo_to_csr(
        powerlaw_graph(512, avg_degree=24.0, exponent=1.9, seed=4)
    )


@pytest.fixture
def uniform_csr():
    """Uniform random graph (well balanced; IBD below threshold)."""
    return coo_to_csr(erdos_renyi(512, avg_degree=6.0, seed=5))


@pytest.fixture(scope="session")
def dense_b():
    r = np.random.default_rng(99)
    return r.uniform(-1.0, 1.0, size=(64, 32)).astype(np.float32)
