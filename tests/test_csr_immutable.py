"""Contract tests for the immutable ``CSRMatrix`` and its fingerprint memo.

A ``CSRMatrix`` stores read-only arrays, so ``fingerprint()`` may hash a
matrix object once and keep the result on it.  These tests pin down the
two halves of that bargain: nothing can change a matrix after
construction (so the memo never goes stale), and inputs that are
already immutable — bytes buffers, another matrix's arrays, views into
the plan store's read-only file maps — are adopted without a copy.
A ``COOMatrix`` follows the same rules, so ``coo_to_csr`` may convert it
once and keep the CSR form (and, through it, the fingerprint) on it.
"""

from __future__ import annotations

import copy
import importlib
import mmap
import pickle
import sys
import threading

import numpy as np
import pytest

import repro
from repro.errors import ValidationError
from repro.serve.fingerprint import fingerprint
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import scale_rows
from repro.sparse.random import erdos_renyi

FIELDS = ("indptr", "indices", "vals")
#: the module, not the same-named function ``repro.serve`` re-exports
fpmod = importlib.import_module("repro.serve.fingerprint")


def small_arrays():
    """Writable source arrays of a fixed 3x4 matrix with 5 entries."""
    return (
        np.array([0, 2, 3, 5], dtype=np.int64),
        np.array([0, 3, 1, 0, 2], dtype=np.int64),
        np.array([1.0, -2.5, 0.5, 3.0, 4.25], dtype=np.float32),
    )


def small_matrix() -> CSRMatrix:
    return CSRMatrix(3, 4, *small_arrays())


@pytest.fixture
def digest_calls(monkeypatch):
    """Counts calls to the fingerprint's hash function."""
    calls = []
    real = fpmod._digest

    def counting(*chunks):
        calls.append(len(chunks))
        return real(*chunks)

    monkeypatch.setattr(fpmod, "_digest", counting)
    return calls


def buffer_under(arr):
    """The object at the end of ``arr``'s ``.base`` / ``memoryview.obj``
    chain: the buffer the array's memory belongs to."""
    obj = arr
    while isinstance(obj, (np.ndarray, memoryview)):
        obj = obj.base if isinstance(obj, np.ndarray) else obj.obj
    return obj


def rests_on_read_only_mmap(arr) -> bool:
    obj = buffer_under(arr)
    if not isinstance(obj, mmap.mmap):
        return False
    with memoryview(obj) as view:
        return view.readonly


class TestReadOnly:
    @pytest.mark.parametrize("name", FIELDS)
    def test_in_place_write_raises(self, name):
        A = small_matrix()
        arr = getattr(A, name)
        with pytest.raises(ValueError):
            arr[0] = arr[1]
        with pytest.raises(ValueError):
            arr.flags.writeable = True

    def test_mutating_the_source_changes_neither_matrix_nor_fingerprint(self):
        indptr, indices, vals = small_arrays()
        A = CSRMatrix(3, 4, indptr, indices, vals)
        before = fingerprint(A)
        kept = [getattr(A, f).copy() for f in FIELDS]
        indptr[1] = 1
        indices[:] = 0
        vals *= 2.0
        for name, want in zip(FIELDS, kept):
            assert np.array_equal(getattr(A, name), want)
        assert fingerprint(A) == before
        assert fingerprint(CSRMatrix(3, 4, *kept)) == before

    def test_read_only_view_of_writable_array_is_copied(self):
        indptr, indices, vals = small_arrays()
        view = vals.view()
        view.flags.writeable = False
        A = CSRMatrix(3, 4, indptr, indices, view)
        assert not np.shares_memory(A.vals, vals)
        before = fingerprint(A)
        vals[0] = 99.0  # the base is still writable
        assert A.vals[0] == np.float32(1.0)
        assert fingerprint(A) == before

    def test_owner_flagged_read_only_is_copied(self):
        # an array owning its memory can be flagged writeable again by
        # whoever holds it, so the flag alone does not make it immutable
        indptr, indices, vals = small_arrays()
        vals.flags.writeable = False
        A = CSRMatrix(3, 4, indptr, indices, vals)
        assert not np.shares_memory(A.vals, vals)
        vals.flags.writeable = True
        vals[0] = 99.0
        assert A.vals[0] == np.float32(1.0)

    @pytest.mark.parametrize("through_memoryview", [False, True])
    def test_read_only_view_of_a_bytearray_is_copied(self, through_memoryview):
        buf = bytearray(small_arrays()[2].tobytes())
        src = memoryview(buf).toreadonly() if through_memoryview else buf
        vals = np.frombuffer(src, dtype=np.float32)
        vals.flags.writeable = False
        A = CSRMatrix(3, 4, small_arrays()[0], small_arrays()[1], vals)
        assert not np.shares_memory(A.vals, vals)
        buf[:4] = np.float32(99.0).tobytes()
        assert A.vals[0] == np.float32(1.0)


    def test_copied_input_keeps_its_shape_for_validation(self):
        indptr, indices, vals = small_arrays()
        with pytest.raises(ValidationError):
            CSRMatrix(3, 4, indptr, indices.reshape(5, 1), vals.reshape(5, 1))


class TestZeroCopy:
    def test_frombuffer_over_bytes_is_adopted(self):
        blobs = [a.tobytes() for a in small_arrays()]
        arrays = [
            np.frombuffer(b, dtype=a.dtype)
            for b, a in zip(blobs, small_arrays())
        ]
        A = CSRMatrix(3, 4, *arrays)
        for name, arr in zip(FIELDS, arrays):
            assert np.shares_memory(getattr(A, name), arr)

    def test_arrays_of_another_matrix_are_adopted(self):
        A = small_matrix()
        B = CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.vals)
        for name in FIELDS:
            assert np.shares_memory(getattr(B, name), getattr(A, name))
        # a derived matrix shares the structure it did not change
        S = scale_rows(A, np.array([1.0, 2.0, 3.0]))
        assert np.shares_memory(S.indptr, A.indptr)
        assert np.shares_memory(S.indices, A.indices)

    def test_warm_started_plan_rests_on_the_store_memmap(self, tmp_path):
        A = coo_to_csr(erdos_renyi(128, avg_degree=6.0, seed=3))
        B = np.ones((A.n_cols, 8), dtype=np.float32)
        repro.SpMMEngine(store=PlanStore(tmp_path)).spmm(A, B)

        engine = repro.SpMMEngine(store=PlanStore(tmp_path))
        assert engine.warm_start() == 1
        plan = engine.lookup(fingerprint(A))
        assert plan is not None
        for name in FIELDS:
            arr = getattr(plan.csr, name)
            assert not arr.flags.writeable
            assert rests_on_read_only_mmap(arr), name


class TestFingerprintMemo:
    def test_second_call_hashes_nothing(self, digest_calls):
        A = small_matrix()
        first = fingerprint(A)
        assert len(digest_calls) == 2  # structure, then values
        second = fingerprint(A)
        assert len(digest_calls) == 2
        assert second == first

    def test_digest_is_unchanged(self):
        # taken before the memo existed: store keys must not drift
        fp = fingerprint(small_matrix())
        assert fp.full == (
            3, 4, 5,
            "bfe11764b261c0201c11548cae8ab952",
            "fd72c3992b889f080eb0c46abe9e42f7",
        )

    @pytest.mark.parametrize(
        "clone",
        [
            lambda m: pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy,
        ],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_are_read_only_and_start_without_the_memo(
        self, clone, digest_calls
    ):
        A = small_matrix()
        want = fingerprint(A)
        C = clone(A)
        assert C._fingerprint is None
        for name in FIELDS:
            arr = getattr(C, name)
            assert np.array_equal(arr, getattr(A, name))
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        del digest_calls[:]
        assert fingerprint(C) == want
        assert len(digest_calls) == 2  # hashed afresh, not carried over

    def test_concurrent_first_calls_agree(self):
        A = coo_to_csr(erdos_renyi(512, avg_degree=8.0, seed=5))
        want = fingerprint(CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.vals))
        results = []
        start = threading.Barrier(8)

        def worker():
            start.wait(10)
            results.append(fingerprint(A))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8
        assert fingerprint(A) == want


# ----------------------------------------------------------------------
# the COO operand: read-only arrays, converted once
# ----------------------------------------------------------------------
def small_coo_arrays():
    """Writable source arrays of a 3x4 COO with a duplicate (0, 3)."""
    return (
        np.array([0, 0, 1, 2, 0], dtype=np.int64),
        np.array([3, 0, 1, 2, 3], dtype=np.int64),
        np.array([1.0, -2.5, 0.5, 3.0, 4.25], dtype=np.float32),
    )


class TestCOOMatrix:
    @pytest.mark.parametrize("name", ["rows", "cols", "vals"])
    def test_in_place_write_raises(self, name):
        A = COOMatrix(3, 4, *small_coo_arrays())
        with pytest.raises(ValueError):
            getattr(A, name)[0] = 0

    def test_mutating_the_source_does_not_reach_the_matrix(self):
        rows, cols, vals = small_coo_arrays()
        A = COOMatrix(3, 4, rows, cols, vals)
        vals[:] = 9.0
        assert A.vals[0] == np.float32(1.0)

    def test_read_only_inputs_are_adopted(self):
        vals = np.frombuffer(small_coo_arrays()[2].tobytes(), dtype=np.float32)
        A = COOMatrix(3, 4, *small_coo_arrays()[:2], vals)
        assert A.vals is vals
        assert COOMatrix(4, 3, A.cols, A.rows, A.vals).vals is vals

    def test_csr_form_is_converted_once(self, digest_calls):
        A = COOMatrix(3, 4, *small_coo_arrays())
        csr = coo_to_csr(A)
        assert csr.nnz == 4  # the duplicate (0, 3) was summed
        fp = fingerprint(csr)
        del digest_calls[:]
        assert coo_to_csr(A) is csr
        assert fingerprint(coo_to_csr(A)) == fp
        assert digest_calls == []
        # the unsummed form is a different matrix, never the stored one
        assert coo_to_csr(A, sum_duplicates=False).nnz == 5
        assert coo_to_csr(A) is csr

    def test_steady_engine_multiply_hashes_nothing(self, digest_calls):
        A = COOMatrix(3, 4, *small_coo_arrays())
        B = np.ones((4, 2), dtype=np.float32)
        engine = repro.SpMMEngine()
        C = engine.spmm(A, B)
        del digest_calls[:]
        assert np.array_equal(engine.spmm(A, B), C)
        assert digest_calls == []
        assert engine.stats["hits"] == 1

    @pytest.mark.parametrize(
        "clone",
        [
            lambda m: pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy,
        ],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_are_read_only_and_start_without_the_csr_form(self, clone):
        A = COOMatrix(3, 4, *small_coo_arrays())
        csr = coo_to_csr(A)
        C = clone(A)
        assert C._csr is None
        for name in ("rows", "cols", "vals"):
            with pytest.raises(ValueError):
                getattr(C, name)[0] = 0
        assert fingerprint(coo_to_csr(C)) == fingerprint(csr)
