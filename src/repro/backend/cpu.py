"""The numpy execution arm: replays a prepared executor's chunk programs.

The executor (:class:`repro.kernels.executor.TCExecPlan`) owns the
compiled state and the per-chunk step (``_run_chunk``); this arm owns
the loop around it — the ``(K + 1, N)`` operand (``B``, TF32-rounded
unless the tier skips rounding, over one zero row that padding slots
gather), member/chunk iteration and buffers.  Every chunk's exit writes
straight into the caller's output, which is never zero-filled: each row
is written by the one chunk that opens its window before any later
chunk adds into it.  Per (member, chunk) the fp32 accumulation order is
the reference's, so at the ``exact`` tier results are bit-for-bit
identical to :func:`~repro.kernels.tc_common.execute_tiled_reference`.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import DeviceBackend
from repro.gpusim.tensorcore import tf32_round


class CpuBackend(DeviceBackend):
    """Host execution; the default arm and the transparent fallback.

    ``fallback_reason`` is set when this instance stands in for a
    requested-but-unavailable cupy arm (see
    :func:`repro.backend.get_backend`); it rides into :meth:`info` so
    the serving stats show *why* traffic is on the CPU.
    """

    name = "cpu"

    def __init__(self, fallback_reason: str | None = None) -> None:
        super().__init__()
        self.fallback_reason = fallback_reason

    def info(self) -> dict:
        out = {"name": self.name}
        if self.fallback_reason is not None:
            out["fallback_from"] = "cupy"
            out["fallback_reason"] = self.fallback_reason
        return out

    def execute(self, ex, B: np.ndarray) -> np.ndarray:
        single = B.ndim == 2
        if single:
            B = B[None]
        batch, _, n = B.shape
        t = ex.tiling
        n_out = ex.out_rank.size
        if not (t.n_blocks and batch):
            out = np.zeros((batch, n_out, n), dtype=np.float32)
            return out[0] if single else out
        out = np.empty((batch, n_out, n), dtype=np.float32)
        with ex._lock:
            ex.stats.calls += 1
        prog = ex._program_for(n)
        max_rows = max(cp.k for cp in prog) * t.block_cols
        buf = ex._pool.acquire(max_rows, n)
        try:
            if batch == 1 or (ex.materialized and len(prog) == 1):
                # member-outer: one member's operand stays
                # cache-resident; a whole-matrix program reads the
                # resident tile stack as it is.  Per (member, chunk) the
                # work — and therefore the fp32 accumulation order — is
                # identical to the chunk-outer reference loop.
                for i in range(batch):
                    B_ext = _operand(ex, B[i])
                    for cp in prog:
                        ex._run_chunk(
                            cp, ex._chunk_tiles(cp), B_ext, out[i], buf, n
                        )
            else:
                # multi-B over lazy tiles or several chunks: fetch
                # (or decompress) each chunk's tiles once and share
                # them across the whole batch
                B_ext = _operand(ex, B)
                for cp in prog:
                    tiles = ex._chunk_tiles(cp)
                    for i in range(batch):
                        ex._run_chunk(cp, tiles, B_ext[i], out[i], buf, n)
        finally:
            ex._pool.release(buf)
        return out[0] if single else out


def _operand(ex, B: np.ndarray) -> np.ndarray:
    """``B`` as the MMA sees it (TF32-rounded, or raw fp32 in a tier
    that skips rounding) over one zero row along axis -2: the row every
    padding slot of a compiled program gathers."""
    shape = B.shape[:-2] + (B.shape[-2] + 1, B.shape[-1])
    B_ext = np.empty(shape, dtype=np.float32)
    B_ext[..., -1, :] = 0.0
    if ex.numerics.rounds_inputs:
        tf32_round(B, out=B_ext[..., :-1, :])
    else:
        B_ext[..., :-1, :] = B
    return B_ext
