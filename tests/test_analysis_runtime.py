"""The runtime lock sanitizer: TrackedLock, guarded audit, cache assert.

The sanitizer is off by default; these tests flip it on per-test (locks
are only tracked if created *after* enabling), drive the serving stack
through real traffic, and assert the discipline holds dynamically —
plus that deliberate violations are caught.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import runtime as rt
from repro.serve.cache import PlanCache
from repro.serve.engine import SpMMEngine
from tests.conftest import random_csr


@pytest.fixture
def sanitizer():
    """Sanitizer on, guard audit installed, clean slate; full teardown."""
    rt.enable()
    rt.reset()
    rt.install_guard_audit()
    yield rt
    rt.uninstall_guard_audit()
    rt.disable()
    rt.reset()


def make_b(csr, n=16, seed=3):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


# ----------------------------------------------------------------------
# the lock factory and TrackedLock semantics
# ----------------------------------------------------------------------
class TestCreateLock:
    def test_plain_rlock_when_disabled(self, monkeypatch):
        monkeypatch.setattr(rt, "_enabled", False)
        lock = rt.create_lock("X._lock")
        assert not isinstance(lock, rt.TrackedLock)
        assert not hasattr(lock, "held_by_current_thread")
        with lock:  # still a working context-manager lock
            pass

    def test_tracked_lock_when_enabled(self, sanitizer):
        lock = rt.create_lock("X._lock")
        assert isinstance(lock, rt.TrackedLock)

    def test_ownership_and_reentrancy(self, sanitizer):
        lock = rt.create_lock("X._lock")
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
            with lock:  # reentrant, not a same-name violation
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()
        assert rt.violations() == []

    def test_ownership_is_per_thread(self, sanitizer):
        lock = rt.create_lock("X._lock")
        seen = []
        with lock:
            t = threading.Thread(
                target=lambda: seen.append(lock.held_by_current_thread())
            )
            t.start()
            t.join()
        assert seen == [False]


class TestLockOrderInversion:
    def test_consistent_order_is_clean(self, sanitizer):
        a, b = rt.create_lock("A._x"), rt.create_lock("B._y")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert rt.violations() == []

    def test_inversion_is_reported(self, sanitizer):
        a, b = rt.create_lock("A._x"), rt.create_lock("B._y")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        kinds = [k for k, _ in rt.violations()]
        assert kinds == ["lock-order"]
        assert "inversion" in rt.violations()[0][1]

    def test_transitive_inversion_is_reported(self, sanitizer):
        a = rt.create_lock("A._x")
        b = rt.create_lock("B._y")
        c = rt.create_lock("C._z")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:  # closes the A -> B -> C -> A cycle
                pass
        assert [k for k, _ in rt.violations()] == ["lock-order"]

    def test_same_name_nesting_is_reported(self, sanitizer):
        l1 = rt.create_lock("SpMMEngine._lock")  # e.g. two shards' locks
        l2 = rt.create_lock("SpMMEngine._lock")
        with l1:
            with l2:
                pass
        kinds = [k for k, _ in rt.violations()]
        assert kinds == ["lock-order"]
        assert "same-name" in rt.violations()[0][1]

    def test_raise_mode(self, sanitizer, monkeypatch):
        monkeypatch.setattr(rt, "_raise", True)
        a, b = rt.create_lock("A._x"), rt.create_lock("B._y")
        with a:
            with b:
                pass
        with pytest.raises(rt.LockOrderViolation):
            with b:
                with a:
                    pass


# ----------------------------------------------------------------------
# the guarded-field read audit and the cache owner assertion
# ----------------------------------------------------------------------
class TestGuardedAudit:
    def test_unlocked_guarded_read_is_reported(self, sanitizer):
        eng = SpMMEngine(capacity=2)
        _ = eng.cache  # direct read, no lock held
        assert ("guarded-access" in {k for k, _ in rt.violations()})
        assert any("SpMMEngine.cache" in m for _, m in rt.violations())

    def test_engine_api_reads_are_clean(self, sanitizer):
        eng = SpMMEngine(capacity=2)
        _ = eng.stats  # lock-held snapshot inside
        _ = eng.capacity
        assert rt.violations() == []

    def test_uninstall_removes_the_hook(self, sanitizer):
        eng = SpMMEngine(capacity=2)
        rt.uninstall_guard_audit()
        _ = eng.cache
        assert rt.violations() == []
        rt.install_guard_audit()  # teardown expects it installed


class TestCacheOwnerAssertion:
    def test_unowned_entry_is_reported(self, sanitizer):
        lock = rt.create_lock("SpMMEngine._lock")
        cache = PlanCache(capacity=2, owner_lock=lock)
        cache.put(("k",), object())
        # put and enforce_limits each assert, so one unlocked call
        # records several violations — all guarded-access
        found = rt.violations()
        assert found and {k for k, _ in found} == {"guarded-access"}
        assert "owner lock" in found[0][1]

    def test_owned_entry_is_clean(self, sanitizer):
        lock = rt.create_lock("SpMMEngine._lock")
        cache = PlanCache(capacity=2, owner_lock=lock)
        with lock:
            cache.put(("k",), object())
            assert cache.get(("k",)) is not None
            cache.clear()
        assert rt.violations() == []

    def test_plain_lock_owner_is_a_noop(self):
        # production configuration: owner_lock is a plain RLock, the
        # duck-typed check never fires, standalone use stays legal
        cache = PlanCache(capacity=2, owner_lock=threading.RLock())
        cache.put(("k",), object())
        assert cache.get(("k",)) is not None


# ----------------------------------------------------------------------
# the serving stack under the sanitizer
# ----------------------------------------------------------------------
class TestEngineUnderSanitizer:
    def test_engine_traffic_is_violation_free(self, sanitizer):
        eng = SpMMEngine(capacity=4)
        A = random_csr(seed=5)
        B = make_b(A)
        C1 = eng.spmm(A, B)
        C2 = eng.spmm(A, B)  # hit path
        assert np.array_equal(C1, C2)
        s = eng.stats
        assert s["hits"] == 1
        eng.clear()
        assert rt.violations() == []

    def test_store_backed_engine_is_violation_free(self, sanitizer, tmp_path):
        eng = SpMMEngine(capacity=4, store=tmp_path / "plans")
        A = random_csr(seed=6)
        eng.spmm(A, make_b(A))
        fresh = SpMMEngine(capacity=4, store=tmp_path / "plans")
        assert fresh.warm_start() == 1
        _ = fresh.stats
        assert rt.violations() == []
