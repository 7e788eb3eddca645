"""TF32 numerics and the ``m16n8k8`` MMA primitive.

TF32 is fp32 with the mantissa truncated to 10 explicit bits (19-bit
significand arithmetic on the tensor core); accumulation stays full fp32.
``tf32_round`` implements IEEE round-to-nearest-even on the dropped 13
mantissa bits, matching NVIDIA's conversion, so numeric results from the
simulated kernels carry genuine TF32 error — the tolerance the tests
check against.

The paper's kernels use the *swapped* operand trick (§3.4): the MMA's
left operand is a 16x8 slice of (dense B transposed) and the right operand
the 8x8 sparse tile, producing a 16x8 slice of C transposed.  That lets A
be tiled 8x8 (denser blocks) while still using the m16n8k8 shape.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: flops of one m16n8k8 MMA (2 * M * N * K)
MMA_FLOPS = 2 * 16 * 8 * 8


def tf32_round(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round float32 values to TF32 precision (10-bit mantissa, RNE).

    Works on any shape; returns float32 with the low 13 mantissa bits
    cleared after round-to-nearest-even.  NaNs and infinities pass
    through unchanged.

    ``out``, a float32 array of ``x``'s shape that does not overlap it,
    receives the result instead of a new array (the executor rounds
    ``B`` straight into the operand it gathers from).

    Idempotent: re-rounding an already-TF32 value is a no-op (the
    rounding increment cannot carry past the cleared low 13 bits), which
    is what lets the prepared executor round operands once ahead of time.
    """
    x = np.asarray(x, dtype=np.float32)
    if out is None:
        if not x.flags.c_contiguous:  # 0-d arrays are contiguous: shape kept
            x = np.ascontiguousarray(x)
        bits = x.view(np.uint32)
        rounding = bits >> np.uint32(13)
    else:
        if out.dtype != np.float32 or out.shape != x.shape:
            raise ValidationError(
                f"out must be float32 of shape {x.shape}; got "
                f"{out.dtype} {out.shape}"
            )
        if np.may_share_memory(x, out):
            raise ValidationError("out must not overlap the input")
        bits = x.view(np.uint32)
        rounding = out.view(np.uint32)
        np.right_shift(bits, np.uint32(13), out=rounding)
    rounding &= np.uint32(1)  # RNE: round half to even
    rounding += np.uint32(0xFFF)
    rounding += bits
    rounding &= np.uint32(0xFFFFE000)
    nonfinite = ~np.isfinite(x)
    if nonfinite.any():
        rounding[nonfinite] = bits[nonfinite]
    if out is not None:
        return out
    return rounding.view(np.float32).reshape(x.shape)


def tf32_ulp(x: float) -> float:
    """Size of one TF32 unit-in-last-place near ``x`` (error bounds)."""
    if x == 0 or not np.isfinite(x):
        return 2.0**-10
    return float(2.0 ** (np.floor(np.log2(abs(x))) - 10))


def mma_m16n8k8(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None
) -> np.ndarray:
    """One warp-level MMA: ``d = a @ b + c`` with TF32 inputs.

    ``a`` is 16x8, ``b`` is 8x8, ``c``/``d`` are 16x8 float32 accumulators.
    Inputs are TF32-rounded; products and accumulation are fp32, the
    tensor-core dataflow.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.shape != (16, 8) or b.shape != (8, 8):
        raise ValidationError(
            f"m16n8k8 expects a(16x8) and b(8x8); got {a.shape} and {b.shape}"
        )
    acc = (
        np.zeros((16, 8), dtype=np.float32)
        if c is None
        else np.asarray(c, dtype=np.float32).copy()
    )
    if acc.shape != (16, 8):
        raise ValidationError("accumulator must be 16x8")
    prod = tf32_round(a).astype(np.float32) @ tf32_round(b).astype(np.float32)
    return acc + prod.astype(np.float32)


def batched_tile_mma(
    b_tiles: np.ndarray,
    a_tiles: np.ndarray,
    assume_rounded: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised swapped MMA over many blocks.

    ``b_tiles``: ``(k, 8, N)`` gathered dense-B tiles (rows = condensed
    columns of the block); ``a_tiles``: ``(k, 8, 8)`` decompressed sparse
    tiles.  Returns ``(k, 8, N)`` float32 partial C tiles
    (``A_tile @ B_tile`` per block) with TF32 input rounding — numerically
    identical to looping the swapped m16n8k8 over 16-column slabs, since
    both round inputs once and accumulate in fp32.

    ``assume_rounded=True`` skips the input rounding: the caller promises
    both operands are already TF32 (the prepared executor rounds A tiles
    at compile time and B once per call).  Because ``tf32_round`` is
    idempotent, results are bit-for-bit identical to the default path on
    pre-rounded operands.  Direct callers with raw fp32 operands keep the
    default, which rounds for them.

    The ``fast`` numerics tier (:mod:`repro.tune.policy`) reuses this
    entry point with *raw fp32* operands under ``assume_rounded=True`` —
    deliberately breaking the TF32 promise to model full-precision
    tensor-core input feeds.  That contract lives in the tier: callers
    opt in through a :class:`~repro.tune.NumericsPolicy`, never by
    passing unrounded operands here ad hoc.

    ``out``, a float32 ``(k, 8, N)`` array, receives the partials
    instead of a new array (the executor writes them into the rows it
    folds and takes to the output).
    """
    if assume_rounded:
        return np.matmul(a_tiles, b_tiles, out=out)
    a32 = tf32_round(np.asarray(a_tiles, dtype=np.float32))
    b32 = tf32_round(np.asarray(b_tiles, dtype=np.float32))
    return np.matmul(a32, b32, out=out)
