"""Numerics policy tiers and the per-matrix autotuner.

Two decisions used to be buried in plan metadata and benchmark scripts:

* **how sloppy may the arithmetic be** — the fused-GEMM strategy is
  2-3x faster on dense-ish matrices but reassociates fp32
  accumulation, so it could never be on by default.
  :mod:`repro.tune.policy` makes the trade-off explicit as a
  first-class :class:`NumericsPolicy` (``exact`` | ``tf32`` | ``fast``)
  with a documented, tested error bound per tier, carried from
  :func:`repro.spmm` / engine request down to the executor.
* **which plan geometry to build** — tile shape, kernel, and execution
  strategy are per-matrix choices (the blocking literature in PAPERS.md
  shows they dominate on irregular sparsity).
  :mod:`repro.tune.autotune` picks them from cheap sparsity statistics
  plus the ``gpusim`` cost model (optionally timing candidates on a
  sampled row-window subset) and the result — a
  :class:`~repro.tune.space.TunedConfig` — is persisted in the plan
  meta of every plan file, so tuning is a one-time cost amortised by
  :class:`~repro.serve.store.PlanStore`.

See ``docs/NUMERICS.md`` for tier semantics, error bounds, and the
autotuner knobs.
"""

from repro.tune.policy import (
    EXACT,
    FAST,
    TF32,
    TIERS,
    NumericsPolicy,
    resolve_policy,
)
from repro.tune.space import (
    KERNELS,
    TILE_SHAPES,
    TuneCandidate,
    TunedConfig,
    candidate_configs,
)

__all__ = [
    "NumericsPolicy",
    "resolve_policy",
    "TIERS",
    "EXACT",
    "TF32",
    "FAST",
    "TunedConfig",
    "TuneCandidate",
    "candidate_configs",
    "TILE_SHAPES",
    "KERNELS",
    "autotune",
    "prune_candidates",
]


def __getattr__(name):
    # the autotuner pulls in kernels/formats/gpusim; keep the policy
    # layer importable (serial, engine) without that dependency chain.
    # importlib, not `from ... import`: the latter resolves the
    # attribute through this very hook and recurses.  Importing the
    # submodule sets `repro.tune.autotune` (the module) as a package
    # attribute — the function wins the name: cache it in globals() so
    # every later `repro.tune.autotune` access is the callable, and
    # reach the module itself via ``import repro.tune.autotune``.
    if name in ("autotune", "prune_candidates"):
        import importlib

        mod = importlib.import_module("repro.tune.autotune")
        value = getattr(mod, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
