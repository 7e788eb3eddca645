"""A gate on a server's engine calls, for batching tests that wait on
state instead of on time.

:class:`EngineGate` wraps ``server.engine.multiply`` and
``server.engine.multiply_many``.  The first call is held until
:meth:`EngineGate.release`, so same-key requests sent meanwhile queue
behind it; every call's kind and stacked operands are recorded.
``held`` and :func:`queued` are plain state, readable from the server's
event loop and from client threads alike.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np

from repro.errors import ValidationError


class EngineGate:
    """Hold the server's first engine call; record every call.

    ``calls`` lists ``(kind, Bs)`` per engine call in call order —
    ``kind`` is ``"multiply"`` or ``"multiply_many"`` and ``Bs`` the
    operands stacked as a 3-D array (a lone ``multiply`` is a stack of
    one).  Call index ``fail_call`` (if given) raises the engine's
    :class:`~repro.errors.ValidationError` instead of executing.
    """

    def __init__(self, server, fail_call: int | None = None):
        self.calls: list = []
        self.held = threading.Event()
        self.fail_call = fail_call
        self._release = asyncio.Event()
        self._loop = None
        engine = server.engine
        multiply, multiply_many = engine.multiply, engine.multiply_many

        async def gated_multiply(A, B, **kw):
            await self._enter("multiply", np.asarray(B)[None])
            return await multiply(A, B, **kw)

        async def gated_multiply_many(A, Bs, **kw):
            await self._enter("multiply_many", np.asarray(Bs))
            return await multiply_many(A, Bs, **kw)

        engine.multiply = gated_multiply
        engine.multiply_many = gated_multiply_many

    async def _enter(self, kind: str, Bs: np.ndarray) -> None:
        index = len(self.calls)
        self.calls.append((kind, Bs))
        if index == 0:
            self._loop = asyncio.get_running_loop()
            self.held.set()
            await self._release.wait()
        if index == self.fail_call:
            raise ValidationError(f"injected failure of engine call {index}")

    @property
    def sizes(self) -> list[int]:
        """Batch size of each engine call, in call order."""
        return [len(Bs) for _, Bs in self.calls]

    def release(self) -> None:
        """Let the held call proceed; callable from any thread."""
        if self._loop is None:
            self._release.set()
        else:
            self._loop.call_soon_threadsafe(self._release.set)


def queued(server) -> int:
    """Requests waiting in the server's batch queues (not executing)."""
    with server._lock:
        return sum(len(b.items) for b in server._batches.values())


async def until(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` on the event loop until it holds; raise
    ``TimeoutError`` after ``timeout`` seconds instead of hanging."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


def wait_until(predicate, timeout: float = 60.0) -> bool:
    """Thread-side :func:`until`: False on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True
