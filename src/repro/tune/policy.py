"""Numerics policy tiers: ``exact`` | ``tf32`` | ``fast``.

Every SpMM entry point (:func:`repro.spmm`, ``AccPlan.multiply``, the
serving engines) accepts a ``numerics=`` argument resolved through
:func:`resolve_policy`.  The tier keys the compiled executor that serves
the request (see :mod:`repro.kernels.executor`):

``exact`` (default)
    TF32-rounded inputs, fp32 accumulation in the fixed reference
    order.  Bit-for-bit identical to
    :func:`~repro.kernels.tc_common.execute_tiled_reference` — the
    contract every existing caller relies on.
``tf32``
    Same TF32-rounded inputs, but dense chunks may *reassociate* the
    fp32 accumulation (the fused dense-window GEMM strategy).  Same
    worst-case error bound as ``exact``; no longer bit-for-bit.
``fast``
    Reassociation *and* no TF32 input rounding: operands are consumed
    as raw fp32, eliding the per-call rounding pass over ``B`` and the
    per-plan rounding of the packed A values.  Error versus a float64
    oracle drops to plain fp32 accumulation error.

Error bound (documented contract, asserted by
``tests/test_numerics_policy.py``): elementwise,

    ``|C - C_64| <= error_bound(depth) * (|A| @ |B|)``

where ``depth`` is the accumulation depth (max nonzeros per row of A).
The factor combines the input-rounding term — two operands rounded to
TF32's 10-bit mantissa, unit roundoff ``u_in = 2**-11``, zero for
``fast`` whose fp32 inputs are consumed exactly — with the standard
summation term ``gamma_n = n*u / (1 - n*u)`` at fp32 unit roundoff
``u = 2**-24`` over ``depth + 2`` roundings (products, plus slack for
the final write).  The bound is association-free, so one formula covers
the fixed-order, fused, and mixed-strategy executions of a tier.
:func:`relative_error` is the scalar check the tests and examples use
beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

#: The recognised tiers, weakest guarantee last.
TIERS = ("exact", "tf32", "fast")

#: unit roundoff of the *input* rounding step per tier: TF32 keeps a
#: 10-bit mantissa (round-to-nearest-even => u = 2**-11); the fast tier
#: consumes the caller's fp32 operands exactly, so its input step is
#: error-free relative to the float64 oracle over the same fp32 data
_INPUT_UNIT = {"exact": 2.0 ** -11, "tf32": 2.0 ** -11, "fast": 0.0}

#: fp32 unit roundoff — products and accumulation happen in fp32
_ACC_UNIT = 2.0 ** -24


@dataclass(frozen=True)
class NumericsPolicy:
    """An explicit, immutable numerics tier.

    Frozen so a policy can be shared across engines, shards, and threads
    without defensive copies; equality is by tier, so
    ``NumericsPolicy("fast") == FAST``.
    """

    tier: str = "exact"

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValidationError(
                f"unknown numerics tier {self.tier!r}; expected one of "
                f"{', '.join(TIERS)}"
            )

    # ------------------------------------------------------------------
    @property
    def rounds_inputs(self) -> bool:
        """Whether operands are rounded to TF32 before the MMA."""
        return self.tier != "fast"

    @property
    def reassociates(self) -> bool:
        """Whether fp32 accumulation order may differ from the
        reference (``False`` means bit-for-bit)."""
        return self.tier != "exact"

    # ------------------------------------------------------------------
    def error_bound(self, depth: int) -> float:
        """Elementwise relative-error factor versus a float64 oracle.

        ``depth`` is the accumulation depth of the product — for
        ``C = A @ B`` use the maximum nonzero count over rows of ``A``.
        The guarantee (tested property, see the module docstring) is::

            |C - C_64| <= error_bound(depth) * (|A| @ |B|)

        elementwise, for any tier and any summation order the executor
        may choose.
        """
        u_in = _INPUT_UNIT[self.tier]
        n = max(int(depth), 1) + 2
        if n * _ACC_UNIT >= 1.0:  # astronomically deep sums only
            raise ValidationError(
                f"accumulation depth {depth} overflows the gamma bound"
            )
        gamma = n * _ACC_UNIT / (1.0 - n * _ACC_UNIT)
        input_term = 2.0 * u_in + u_in * u_in
        return input_term + gamma + input_term * gamma


#: The three canonical policies (prefer these to ad-hoc construction).
EXACT = NumericsPolicy("exact")
TF32 = NumericsPolicy("tf32")
FAST = NumericsPolicy("fast")

_BY_TIER = {"exact": EXACT, "tf32": TF32, "fast": FAST}


def resolve_policy(numerics=None) -> NumericsPolicy:
    """Coerce a caller-facing ``numerics=`` argument into a policy.

    Accepts ``None`` (the default ``exact`` tier), a tier name string,
    or a ready :class:`NumericsPolicy`; anything else raises
    :class:`~repro.errors.ValidationError`.  This is the single
    entry-point validation for every ``numerics=`` parameter in the
    library.
    """
    if numerics is None:
        return EXACT
    if isinstance(numerics, NumericsPolicy):
        return numerics
    if isinstance(numerics, str):
        policy = _BY_TIER.get(numerics)
        if policy is None:
            raise ValidationError(
                f"unknown numerics tier {numerics!r}; expected one of "
                f"{', '.join(TIERS)}"
            )
        return policy
    raise ValidationError(
        f"numerics must be None, a tier name, or a NumericsPolicy; "
        f"got {type(numerics).__name__}"
    )


def relative_error(
    approx: np.ndarray, exact: np.ndarray, floor: float = 1e-30
) -> float:
    """Max relative error with a denominator floor (avoids 0/0)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.abs(exact), max(floor, float(np.abs(exact).max()) * 1e-9))
    return float(np.max(np.abs(approx - exact) / denom))
