"""The cupy execution arm: device-resident replay of a prepared executor.

The executor (:class:`~repro.kernels.executor.TCExecPlan`) was designed
as exactly the device-resident state a kernel launch needs — pre-rounded
tiles in fold order, gather positions, fold steps, exit indices.
:class:`CupyBackend` uploads that state **once per executor** into a
:class:`DeviceExecState` (cached on the executor instance, so the
existing stale-value pruning in
:func:`~repro.kernels.executor.get_executor` — which drops executors
whose ``vals_packed`` identity changed — invalidates the device mirror
with them) and replays gather → batched tile MMA → fold → exit on
device per call.  Only ``B`` moves host→device per multiply (one upload
even for a whole ``multiply_many`` batch) and only the result moves
back.

The device replays the host program shape: ``B`` is rounded into a
``(K + 1, N)`` operand whose zero last row the padding slots gather,
then per chunk one gather through the program's fold-order positions,
one batched MMA into the chunk's folded array, the step-major slice
adds of :func:`~repro.kernels.executor.fold_slabs`, and the exit: add
``+0.0`` to the folded rows, take them to the output in original row
order, and add the rows of a window an earlier chunk opened.
``np.add.reduceat`` has no cupy equivalent, so the long windows that
follow the slabs use :func:`device_reduceat`, a replica of numpy's
per-segment ``a[first] + pairwise_sum(a[first+1:])`` accumulation (the
same pairwise blocking numpy's reduce kernel uses).  Because the
replica mirrors a numpy implementation detail, a one-time probe
(:func:`reduceat_replica_ok`) validates it bitwise against
``np.add.reduceat`` — including signed-zero edge cases — and a failed
probe makes backend resolution fall back to the CPU arm: correctness
never depends on the replica, availability of the cupy arm does.

Bitwise expectations: with the fake-cupy conformance shim (numpy
underneath) every arm operation is the numpy operation, so results are
bit-for-bit with the CPU arm across all numerics tiers.  On real CUDA
hardware the elementwise stages (rounding, folds, permutation) are
bit-exact too, while ``cupy.matmul`` may order its fp32 accumulation
differently from numpy's — the same reassociation tolerance the
``tf32``/``fast`` tiers already document.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.backend.base import DeviceBackend
from repro.kernels.executor import fold_slabs

#: numpy's pairwise-summation block size (``PW_BLOCKSIZE``)
_PW_BLOCKSIZE = 128

_replica_ok: bool | None = None


def _pairwise_rows(xp, a, lo: int, n: int):
    """Sum ``a[lo:lo+n]`` along axis 0 in numpy's pairwise order.

    Replicates ``pairwise_sum`` from numpy's reduce kernel: sequential
    from +0.0 below 8 elements, an 8-accumulator unrolled loop up to
    :data:`_PW_BLOCKSIZE`, recursive halving (rounded down to a multiple
    of 8) above it.  Elementwise adds are IEEE-correctly-rounded on both
    host and device, so an identical add tree yields identical bits.
    """
    if n < 8:
        res = xp.zeros(a.shape[1:], dtype=a.dtype)
        for i in range(n):
            res = res + a[lo + i]
        return res
    if n <= _PW_BLOCKSIZE:
        r = [a[lo + j] for j in range(8)]
        i = 8
        while i < n - (n % 8):
            for j in range(8):
                r[j] = r[j] + a[lo + i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            res = res + a[lo + i]
            i += 1
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_rows(xp, a, lo, n2) + _pairwise_rows(xp, a, lo + n2, n - n2)


def device_reduceat(xp, a, first: list):
    """``np.add.reduceat(a, first, axis=0)`` for array module ``xp``.

    ``first`` is a list of python ints (strictly increasing segment
    starts, as the executor's ``np.unique(..., return_index=True)``
    produces).  Per segment the accumulation is
    ``a[f] + pairwise_sum(a[f+1:end])`` — numpy's own order, validated
    by :func:`reduceat_replica_ok`.
    """
    k = int(a.shape[0])
    ends = list(first[1:]) + [k]
    outs = []
    for f, e in zip(first, ends):
        c = e - f
        if c <= 1:
            outs.append(a[f])
        else:
            outs.append(a[f] + _pairwise_rows(xp, a, f + 1, c - 1))
    return xp.stack(outs, axis=0)


def reduceat_replica_ok() -> bool:
    """One-time probe: does :func:`device_reduceat` (run with numpy)
    match ``np.add.reduceat`` bit for bit?

    Covers every pairwise branch (sequential, 8-wide unrolled with and
    without remainder, recursive split) plus signed-zero inputs, whose
    ``+0.0``-initialised sequential case is the subtlest bit to get
    right.  A failed probe demotes backend resolution to the CPU arm.
    """
    global _replica_ok
    if _replica_ok is None:
        rng = np.random.default_rng(0x6B)
        lens = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128, 129, 200, 257, 2]
        first_np = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(np.asarray(lens[:-1], dtype=np.int64), out=first_np[1:])
        total = int(sum(lens))
        part = rng.standard_normal((total, 3, 2)).astype(np.float32)
        # salt in signed zeros: 0.0 + (-0.0) == +0.0 while a left fold
        # seeded with a[first] keeps -0.0 — exactly the divergence the
        # replica must reproduce
        zero_rows = rng.integers(0, total, size=total // 4)
        part[zero_rows] = np.float32(-0.0)
        part[rng.integers(0, total, size=total // 8)] = np.float32(0.0)
        ref = np.add.reduceat(part, first_np, axis=0)
        out = device_reduceat(np, part, [int(f) for f in first_np])
        _replica_ok = (
            ref.shape == out.shape
            and ref.dtype == out.dtype
            and ref.tobytes() == np.ascontiguousarray(out).tobytes()
        )
    return _replica_ok


def _tf32_round_device(xp, x, out) -> None:
    """:func:`repro.gpusim.tensorcore.tf32_round` into ``out``,
    array-module generic.

    Same integer arithmetic on the same uint32 views, so the cleared
    mantissas are bit-identical to the host rounding; ``x`` must be a
    C-contiguous float32 device array (the upload path guarantees it)
    and ``out`` a float32 device array of its shape that does not
    overlap it.
    """
    bits = x.view(xp.uint32)
    rounding = out.view(xp.uint32)
    xp.right_shift(bits, xp.uint32(13), out=rounding)
    rounding &= 1  # RNE: round half to even
    rounding += 0xFFF
    rounding += bits
    rounding &= 0xFFFFE000
    nonfinite = ~xp.isfinite(x)
    if bool(nonfinite.any()):
        rounding[nonfinite] = bits[nonfinite]


class _DeviceChunk:
    """Device-resident index arrays mirroring one ``_ChunkProgram``."""

    __slots__ = (
        "pos",
        "tile_rows",
        "scatter",
        "long_first",
        "fused",
        "exit_src",
        "exit_dst",
        "cont_src",
        "cont_dst",
    )


class DeviceExecState:
    """The upload-once device mirror of one executor.

    Created on first device execution, cached on the executor instance
    (``ex._device_state``), and garbage-collected with it — value
    refreshes drop stale executors from ``plan.exec_cache`` (see
    :func:`~repro.kernels.executor.get_executor`), which frees the
    device arrays and their ``device_bytes`` accounting through a
    ``weakref.finalize`` hook.  Compiled device chunk programs are
    cached per N-class alongside the executor's own host programs.
    """

    def __init__(self, backend: "CupyBackend", ex) -> None:
        self.backend = backend
        self._lock = threading.Lock()
        self._bytes_box = [0]
        t = ex.tiling
        #: host copy for python-int chunk slicing of the lazy value path
        self.tc_offset = np.asarray(t.tc_offset, dtype=np.int64)
        up = self._upload
        self.tiles_all = up(ex.tiles_all)
        self.vals_rounded = up(ex.vals_rounded)
        #: blocks-per-chunk -> (host program identity, device chunks)
        self._programs: dict = {}
        weakref.finalize(self, backend._free_device_bytes, self._bytes_box)

    def _upload(self, arr):
        if arr is None:
            return None
        return self.backend._upload(arr, self._bytes_box)

    @property
    def device_bytes(self) -> int:
        return self._bytes_box[0]

    # ------------------------------------------------------------------
    def program_for(self, ex, n: int):
        """``(host program, device chunks)`` for feature dim ``n``.

        The host program comes from the executor's own compile cache
        (counting its prep hit/miss exactly as the CPU arm does); the
        device side is uploaded once per host program identity, so a
        host-side recompile (program-cache eviction) rebuilds the
        mirror too.
        """
        host_prog = ex._program_for(n)
        bpc = ex._blocks_per_chunk(n)
        with self._lock:
            cached = self._programs.get(bpc)
            if cached is not None and cached[0] is host_prog:
                return cached
        dev = [self._build_chunk(ex, hp) for hp in host_prog]
        with self._lock:
            cached = self._programs.get(bpc)
            if cached is None or cached[0] is not host_prog:
                while len(self._programs) >= ex._MAX_PROGRAMS:
                    self._programs.pop(next(iter(self._programs)))
                cached = (host_prog, dev)
                self._programs[bpc] = cached
        return cached

    def _build_chunk(self, ex, hp) -> _DeviceChunk:
        up = self._upload
        dc = _DeviceChunk()
        dc.pos = up(hp.pos)
        dc.exit_src = up(hp.exit_src)
        dc.exit_dst = up(hp.exit_dst)
        dc.cont_src = up(hp.cont_src)
        dc.cont_dst = up(hp.cont_dst)
        dc.tile_rows = dc.scatter = dc.long_first = None
        dc.fused = [
            (up(rows2d), up(a_fused)) for rows2d, a_fused in hp.fused_groups
        ]
        if hp.strategy == "fused":
            return dc
        dc.tile_rows = up(hp.tile_rows)
        dc.scatter = up(hp.scatter)
        if hp.long_first is not None:
            dc.long_first = [int(f) for f in hp.long_first]
        return dc


class CupyBackend(DeviceBackend):
    """Device-resident execution through a cupy-compatible module.

    ``cp`` is the module :func:`repro.backend.loader.load_cupy`
    produced — real cupy or the conformance suite's fake; both expose
    the same surface.  ``device`` selects the CUDA ordinal via
    ``cp.cuda.Device(device).use()`` at construction (a failure there
    is caught by backend resolution and demoted to a CPU fallback).
    """

    name = "cupy"

    def __init__(self, cp, device: int = 0) -> None:
        super().__init__()
        self.cp = cp
        self.device_index = int(device)
        cp.cuda.Device(self.device_index).use()

    # ------------------------------------------------------------------
    # transfer accounting
    # ------------------------------------------------------------------
    def _upload(self, arr: np.ndarray, box: list | None = None):
        d = self.cp.asarray(arr)
        self.stats.count_upload(arr.nbytes)
        if box is not None:
            box[0] += int(arr.nbytes)
            self.stats.add_device_bytes(arr.nbytes)
        return d

    def _download(self, d) -> np.ndarray:
        out = self.cp.asnumpy(d)
        self.stats.count_download(out.nbytes)
        return out

    def _free_device_bytes(self, box: list) -> None:
        self.stats.add_device_bytes(-box[0])

    def info(self) -> dict:
        d = self.stats.as_dict()
        return {
            "name": self.name,
            "device": self.device_index,
            "transfers": {
                k: d[k]
                for k in (
                    "uploads",
                    "downloads",
                    "bytes_to_device",
                    "bytes_from_device",
                )
            },
            "device_bytes": d["device_bytes"],
        }

    # ------------------------------------------------------------------
    # upload-once state
    # ------------------------------------------------------------------
    def _state_for(self, ex) -> DeviceExecState:
        state = getattr(ex, "_device_state", None)
        if state is not None and state.backend is self:
            return state
        with ex._lock:
            state = getattr(ex, "_device_state", None)
            if state is None or state.backend is not self:
                state = DeviceExecState(self, ex)
                ex._device_state = state
        return state

    def prepare(self, ex, n: int) -> None:
        """Eager upload: build the device mirror and the device chunk
        program for feature dim ``n`` now, so the first multiply pays
        only for ``B`` and the result."""
        if ex.tiling.n_blocks:
            self._state_for(ex).program_for(ex, n)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, ex, B: np.ndarray) -> np.ndarray:
        single = B.ndim == 2
        if single:
            B = B[None]
        batch, k_rows, n = B.shape
        t = ex.tiling
        n_out = ex.out_rank.size
        if not t.n_blocks or not batch:
            out = np.zeros((batch, n_out, n), dtype=np.float32)
            return out[0] if single else out
        with ex._lock:
            ex.stats.calls += 1
        xp = self.cp
        state = self._state_for(ex)
        host_prog, dev_prog = state.program_for(ex, n)
        # one upload per call, batch included — multiply_many maps the
        # whole stack onto a single transfer
        B_d = self._upload(np.ascontiguousarray(B, dtype=np.float32))
        # the gather operand: B (rounded straight into it) over one zero
        # row for the padding slots
        B_ext = xp.empty((batch, k_rows + 1, n), dtype=np.float32)
        B_ext[:, -1] = 0.0
        if ex.numerics.rounds_inputs:
            _tf32_round_device(xp, B_d, out=B_ext[:, :k_rows])
        else:
            B_ext[:, :k_rows] = B_d
        out_d = xp.empty((batch, n_out, n), dtype=np.float32)
        # chunk-outer: each chunk's tiles are fetched (or decompressed)
        # once per call and shared across the batch
        for hp, dc in zip(host_prog, dev_prog):
            tiles = self._chunk_tiles(xp, state, ex, hp, dc)
            for i in range(batch):
                self._run_chunk(xp, ex, hp, dc, tiles, B_ext[i], out_d[i], n)
        out = self._download(out_d)
        return out[0] if single else out

    def _chunk_tiles(self, xp, state: DeviceExecState, ex, hp, dc):
        """Device A tiles of one chunk in program order (the resident
        stack, a gather from it, or a lazy scatter)."""
        if hp.strategy == "fused":
            return None  # fused chunks carry their A slabs
        if state.tiles_all is not None:
            if dc.tile_rows is None:
                return state.tiles_all
            return xp.take(state.tiles_all, dc.tile_rows, axis=0)
        t = ex.tiling
        wr, bc = t.window_rows, t.block_cols
        lo = int(state.tc_offset[hp.b0])
        hi = int(state.tc_offset[hp.b1])
        tiles = xp.zeros(hp.k * wr * bc, dtype=np.float32)
        tiles[dc.scatter] = state.vals_rounded[lo:hi]
        return tiles.reshape(hp.k, wr, bc)

    def _run_chunk(self, xp, ex, hp, dc, tiles, B_ext_i, out_i, n: int) -> None:
        """One (chunk, batch member) step, all operands device-resident.

        The op sequence — gather, batched MMA into the folded array, the
        program's fold, the exit — mirrors ``TCExecPlan._run_chunk``
        exactly."""
        wr, bc = ex.tiling.window_rows, ex.tiling.block_cols
        gathered = xp.take(B_ext_i, dc.pos, axis=0)
        g3 = gathered.reshape(hp.k, bc, n)
        folded = xp.empty((hp.n_groups * wr + 1, n), dtype=np.float32)
        folded[-1] = 0.0
        f3 = folded[:-1].reshape(hp.n_groups, wr, n)
        if hp.strategy == "fused":
            at = 0
            for rows2d, a_fused in dc.fused:
                g = rows2d.shape[0]
                b_f = g3[rows2d].reshape(g, -1, n)
                xp.matmul(a_fused, b_f, out=f3[at : at + g])
                at += g
        else:
            nl = hp.n_long
            # batched_tile_mma(g3, tiles, assume_rounded=True): A_tile @ B_tile
            part = xp.matmul(tiles, g3, out=f3[nl:])
            fold_slabs(part, hp.steps)
            if nl:
                f3[:nl] = device_reduceat(
                    xp, part[sum(hp.steps) :], dc.long_first
                )
        head = folded[: hp.n_fold * wr]
        head += np.float32(0.0)
        if dc.exit_dst is None:
            xp.take(folded, dc.exit_src, axis=0, out=out_i)
        else:
            out_i[dc.exit_dst] = xp.take(folded, dc.exit_src, axis=0)
        if dc.cont_dst is not None:
            out_i[dc.cont_dst] += xp.take(folded, dc.cont_src, axis=0)
