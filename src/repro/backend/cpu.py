"""The numpy execution arm: replays a prepared executor's chunk programs.

The executor (:class:`repro.kernels.executor.TCExecPlan`) owns the
compiled state and the per-chunk step (``_run_chunk``); this arm owns
the loop around it — TF32 rounding of ``B``, member/chunk iteration,
buffers and the output.  Per (member, chunk) the fp32 accumulation order
is the reference's, so at the ``exact`` tier results are bit-for-bit
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
        wr = t.window_rows
        n_out = ex.out_rank.size
        out = np.zeros((batch, n_out, n), dtype=np.float32)
        if t.n_blocks and batch:
            with ex._lock:
                ex.stats.calls += 1
            prog = ex._program_for(n)
            max_rows = max(cp.k for cp in prog) * t.block_cols
            buf = ex._pool.acquire(max_rows, n)
            acc = np.zeros((t.n_windows, wr, n), dtype=np.float32)
            try:
                if batch == 1 or (ex.materialized and len(prog) == 1):
                    # member-outer: one member's rounded B + accumulator
                    # stay cache-resident; a whole-matrix program reads
                    # the resident tile stack as it is.  Per (member,
                    # chunk) the work — and therefore the fp32
                    # accumulation order — is identical to the
                    # chunk-outer reference loop.
                    for i in range(batch):
                        if i:
                            acc.fill(0.0)
                        B_r_i = (
                            tf32_round(B[i])
                            if ex.numerics.rounds_inputs
                            else np.asarray(B[i], dtype=np.float32)
                        )
                        for cp in prog:
                            ex._run_chunk(
                                cp, ex._chunk_tiles(cp), B_r_i, acc, buf, n
                            )
                        ex._finish_member(acc, out[i], n)
                else:
                    # multi-B over lazy tiles or several chunks: fetch
                    # (or decompress) each chunk's tiles once and share
                    # them across the whole batch
                    B_r = (
                        tf32_round(B)
                        if ex.numerics.rounds_inputs
                        else np.asarray(B, dtype=np.float32)
                    )
                    accs = np.zeros(
                        (batch, t.n_windows, wr, n), dtype=np.float32
                    )
                    for cp in prog:
                        tiles = ex._chunk_tiles(cp)
                        for i in range(batch):
                            ex._run_chunk(cp, tiles, B_r[i], accs[i], buf, n)
                    for i in range(batch):
                        ex._finish_member(accs[i], out[i], n)
            finally:
                ex._pool.release(buf)
        return out[0] if single else out
