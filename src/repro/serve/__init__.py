"""Plan-reuse serving layer: fingerprints, the plan cache, cross-process
plan persistence, and the :class:`SpMMEngine` front-end for repeated
SpMM traffic.

Typical use::

    import numpy as np
    from repro.serve import SpMMEngine, PlanStore

    engine = SpMMEngine(capacity=64, device="a800")
    C = engine.spmm(A, B)                  # cold: plans once
    C = engine.spmm(A, B2)                 # warm: cache hit
    Cs = engine.multiply_many(A, Bs)       # batched (batch, K, N) pass
    print(engine.stats)                    # hits/misses/evictions/...

Cross-process reuse (a new worker skips planning entirely)::

    engine = SpMMEngine(store=PlanStore("/var/cache/accspmm"), policy="cost")
    engine.warm_start()                    # mmap persisted plans from disk
    C = engine.spmm(A, B)                  # pure cache hit, no replan

Async traffic (one engine, coalesced misses, per-tenant tiers)::

    engine = AsyncSpMMEngine(store="/var/cache/accspmm")
    C = await engine.multiply(A, B, tenant="alice")   # thread-pool exec

See ``docs/SERVING.md`` for cache semantics, the on-disk layout, and the
corruption-handling guarantees; ``docs/CONCURRENCY.md`` for the
coalescing design and thread-safety guarantees; ``python -m
repro.serve.store --help`` for the store maintenance CLI.
"""

from repro.serve.cache import CacheStats, PlanCache
from repro.serve.frames import (
    Frame,
    decode_frame,
    encode_frame,
    read_frame,
    read_frame_from,
    write_frame,
)
from repro.serve.engine import (
    SpMMEngine,
    default_engine,
    plan_build_cost,
    plan_nbytes,
    reset_default_engine,
)
from repro.serve.fingerprint import (
    MatrixFingerprint,
    config_fingerprint,
    fingerprint,
)
from repro.serve.sharded import AsyncSpMMEngine

#: store and server exports are lazy (PEP 562) so `python -m
#: repro.serve.store` / `python -m repro.serve.server` do not import
#: those modules twice (once via the package, once as __main__) —
#: runpy would warn about the duplicate
_STORE_EXPORTS = ("PlanStore", "StoreEntry", "StoreStats")
_SERVER_EXPORTS = ("SpMMServer", "SpMMClient", "ServerConfig")


def __getattr__(name):
    if name in _STORE_EXPORTS:
        from repro.serve import store

        return getattr(store, name)
    if name in _SERVER_EXPORTS:
        from repro.serve import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CacheStats",
    "PlanCache",
    "SpMMEngine",
    "AsyncSpMMEngine",
    "default_engine",
    "plan_build_cost",
    "plan_nbytes",
    "reset_default_engine",
    "MatrixFingerprint",
    "config_fingerprint",
    "fingerprint",
    "PlanStore",
    "StoreEntry",
    "StoreStats",
    "Frame",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "read_frame_from",
    "write_frame",
    "SpMMServer",
    "SpMMClient",
    "ServerConfig",
]
