"""Runtime lock sanitizer — the dynamic half of the lock discipline.

The static checkers (REP101/REP102) prove properties about the lexical
structure of the code; this module watches the same properties at run
time, catching what static analysis cannot see: lock-order inversions
that only materialise on particular interleavings, and guarded-field
reads from helper code the AST walk did not associate with a lock.

Everything here is **off by default and free when off**.  The one entry
point serving code uses is :func:`create_lock`, which returns a plain
``threading.RLock`` unless ``REPRO_LOCK_SANITIZER=1`` was set when the
process started (or :func:`enable` was called explicitly, e.g. by the
stress tests).  When enabled it returns a :class:`TrackedLock` that

- records every (outer → inner) acquisition edge into a global graph,
- reports an **inversion** the moment some thread acquires A→B after
  any thread acquired B→A (the classic potential-deadlock witness),
- answers :meth:`TrackedLock.held_by_current_thread`, which powers both
  ``PlanCache._assert_owned`` and the guarded-field read audit.

Lock names follow the static checker's qualification convention,
``ClassName.lockname`` (``SpMMEngine._lock``, ``PlanStore._stats_lock``)
so a dynamic inversion report reads the same as a REP102 finding.

The guarded-field audit instruments classes decorated with
:func:`audit_guarded` (driven by the same ``_GUARDED_BY_`` registry the
static checker reads).  Only *reads* are audited — attribute writes go
through ``__setattr__``, and every guarded mutation in this codebase is
a mutation of the object the attribute points at, not a rebinding — so
``__init__`` needs no exemption and the hot path stays one dict lookup.

Violations are collected in-process (:func:`violations`) and, so CI
cannot miss them, optionally hard-raise under
``REPRO_LOCK_SANITIZER_RAISE=1``.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict


def _env_enabled() -> bool:
    return os.environ.get("REPRO_LOCK_SANITIZER", "") not in ("", "0")


_enabled = _env_enabled()
_raise = os.environ.get("REPRO_LOCK_SANITIZER_RAISE", "") not in ("", "0")

#: global acquisition graph: edge (outer_name, inner_name) -> first witness
_edges: dict[tuple[str, str], str] = {}
_edges_lock = threading.Lock()

#: recorded violations: list of (kind, message)
_violations: list[tuple[str, str]] = []
_violations_lock = threading.Lock()

_tls = threading.local()


class LockOrderViolation(RuntimeError):
    """Raised (under REPRO_LOCK_SANITIZER_RAISE=1) on an inversion."""


class GuardedAccessViolation(RuntimeError):
    """Raised (under REPRO_LOCK_SANITIZER_RAISE=1) on an unlocked read."""


def enabled() -> bool:
    """True when the sanitizer is active for this process."""
    return _enabled


def enable() -> None:
    """Turn the sanitizer on (tests; normally the env var does this).

    Only locks created *after* this call are tracked.
    """
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear the acquisition graph and recorded violations (tests)."""
    with _edges_lock:
        _edges.clear()
    with _violations_lock:
        _violations.clear()


def violations() -> list[tuple[str, str]]:
    """Snapshot of (kind, message) violations recorded so far."""
    with _violations_lock:
        return list(_violations)


def _record(kind: str, message: str, exc_type: type) -> None:
    with _violations_lock:
        _violations.append((kind, message))
    if _raise:
        raise exc_type(message)


def report_unowned(message: str) -> None:
    """Entry point for objects that assert their owner's lock is held
    (e.g. ``PlanCache._assert_owned``); records a guarded-access
    violation, raising under ``REPRO_LOCK_SANITIZER_RAISE=1``."""
    _record("guarded-access", message, GuardedAccessViolation)


def _held_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _reverse_reachable(src: str, dst: str) -> bool:
    """True if dst is reachable from src in the recorded edge graph."""
    adjacency: dict[str, set[str]] = defaultdict(set)
    with _edges_lock:
        for (outer, inner) in _edges:
            adjacency[outer].add(inner)
    seen = {src}
    frontier = [src]
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        for nxt in adjacency[node] - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return False


class TrackedLock:
    """An RLock that reports ownership and checks acquisition order.

    Reentrant like the RLock it wraps; only the outermost acquire of a
    given lock pushes it onto the thread's held stack, so ``A, A`` is
    never mistaken for self-deadlock.
    """

    __slots__ = ("name", "_lock", "_owner", "_count")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.RLock()
        self._owner: int | None = None
        self._count = 0

    # -- ownership ---------------------------------------------------

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    # -- acquire/release with order checking -------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if not got:
            return False
        me = threading.get_ident()
        if self._owner == me:
            self._count += 1
            return True
        self._owner = me
        self._count = 1
        stack = _held_stack()
        if stack:
            outer = stack[-1].name
            self._check_edge(outer)
        stack.append(self)
        return True

    def release(self) -> None:
        me = threading.get_ident()
        if self._owner == me:
            self._count -= 1
            if self._count == 0:
                self._owner = None
                stack = _held_stack()
                if stack and stack[-1] is self:
                    stack.pop()
                elif self in stack:  # out-of-order release: still untrack
                    stack.remove(self)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r})"

    def _check_edge(self, outer: str) -> None:
        if outer == self.name:
            # distinct locks sharing a name (e.g. two per-key build
            # locks) — same class of hazard REP102 flags statically
            _record(
                "lock-order",
                f"nested acquisition of two locks named `{self.name}` — "
                f"same-name locks have no defined order",
                LockOrderViolation,
            )
            return
        edge = (outer, self.name)
        with _edges_lock:
            known = edge in _edges
            if not known:
                witness = f"{outer} -> {self.name}"
                _edges[edge] = witness
        if not known and _reverse_reachable(self.name, outer):
            _record(
                "lock-order",
                f"lock-order inversion: acquiring `{self.name}` while "
                f"holding `{outer}`, but the reverse order "
                f"`{self.name}` -> `{outer}` was also observed — "
                f"potential deadlock",
                LockOrderViolation,
            )


def create_lock(name: str):
    """The factory serving code uses for every named lock.

    Returns a plain ``threading.RLock`` when the sanitizer is off (the
    common case: zero overhead, identical semantics) and a
    :class:`TrackedLock` when on.
    """
    if _enabled:
        return TrackedLock(name)
    return threading.RLock()


# ---------------------------------------------------------------------
# guarded-field read audit
# ---------------------------------------------------------------------

#: classes registered via @audit_guarded: cls -> {attr: lockattr}
_audited: dict[type, dict[str, str]] = {}
_instrumented: set[type] = set()


def audit_guarded(cls: type) -> type:
    """Class decorator registering ``cls._GUARDED_BY_`` for auditing.

    When the sanitizer is enabled at decoration time the class is
    instrumented immediately; otherwise instrumentation can be added
    later with :func:`install_guard_audit` (used by tests that flip the
    sanitizer on after import).
    """
    registry = dict(getattr(cls, "_GUARDED_BY_", {}) or {})
    if registry:
        _audited[cls] = registry
        if _enabled:
            _instrument(cls)
    return cls


def install_guard_audit() -> None:
    """Instrument every registered class (idempotent)."""
    for cls in _audited:
        _instrument(cls)


def uninstall_guard_audit() -> None:
    """Remove instrumentation from every instrumented class."""
    for cls in list(_instrumented):
        if "__getattribute__" in cls.__dict__:
            del cls.__getattribute__
        _instrumented.discard(cls)


def _instrument(cls: type) -> None:
    if cls in _instrumented:
        return
    registry = _audited[cls]

    def __getattribute__(self, attr, _registry=registry):
        lockattr = _registry.get(attr)
        if lockattr is not None and not getattr(_tls, "in_audit", False):
            _tls.in_audit = True
            try:
                lock = object.__getattribute__(self, lockattr)
                held = getattr(lock, "held_by_current_thread", None)
                if held is not None and not held():
                    _record(
                        "guarded-access",
                        f"read of `{type(self).__name__}.{attr}` "
                        f"(guarded by `{lockattr}`) without holding "
                        f"the lock",
                        GuardedAccessViolation,
                    )
            except AttributeError:
                pass  # lock not created yet (mid-__init__)
            finally:
                _tls.in_audit = False
        return object.__getattribute__(self, attr)

    cls.__getattribute__ = __getattribute__
    _instrumented.add(cls)
