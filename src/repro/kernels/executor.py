"""Prepared executors: the B-invariant half of tiled SpMM, compiled once.

Steady-state serving traffic multiplies one planned sparse matrix against
a stream of dense right-hand sides.  Everything in that loop that does
not depend on ``B`` is the same on every call:

* **tile decompression** — scattering ``vals_packed`` into dense
  ``(k, 8, 8)`` A tiles (and the TF32 rounding of those tiles, which is
  value- not B-dependent);
* **gather geometry** — the ``SparseAToB`` positions that pull rows of B
  into each block's slab, with padding slots sent to a zero row;
* **window segmentation** — which blocks fold into which RowWindow, and
  in what order;
* **the exit** — where each folded row lands in the output, in original
  row order (the rank array that undoes row relabeling, composed with
  the fold order).

:class:`TCExecPlan` materialises all of that once per
:class:`~repro.kernels.tc_common.TCPlan` and replays it per call.
Results are bit-for-bit identical to the unprepared reference path
(:func:`~repro.kernels.tc_common.execute_tiled_reference`): TF32 rounding
is elementwise and idempotent, so rounding B before the gather (instead
of rounding each gathered slab) and rounding A values before the scatter
(instead of each decompressed tile) commute exactly, every block's MMA
sees the reference's operands, and every window's partial products are
added in the reference's order.  NaN payloads are the one exception:
numpy's elementwise add keeps the first operand's NaN in its SIMD body
and the second's in its scalar tail (``reduceat`` included), so when two
NaNs with different payloads meet, which one survives depends on array
position.  Which outputs are NaN, and every other bit, match.

Materialisation respects a byte budget: when the dense A tiles of a huge
matrix would exceed ``exec_max_bytes`` the executor keeps precomputed
flat scatter indices instead and decompresses per chunk on the fly
(still cheaper than the reference, which also re-derives the indices).

**Fold order.**  The reference folds each chunk with
``np.add.reduceat``, which costs ~25 ns per (segment, inner element)
pair and so dominates its multiply.  A compiled chunk instead holds its
TC blocks in the order the fold consumes them, baked into its gather
positions, pad slots and A tiles (into the scatter indices when the
tiles are lazy):

* *short* windows (at most :data:`STEPPED_MAX_SEG` blocks) come first,
  sorted by block count, descending, and laid out step-major: block
  ``s`` of every window with more than ``s`` blocks forms one contiguous
  slab, so each fold step is one in-place slice add over a prefix;
* *long* windows follow, each window's blocks contiguous, and are folded
  by ``reduceat`` itself (compaction preserves per-segment bits).

A multiply rounds ``B`` into a ``(K + 1, N)`` operand whose last row is
zero, the row every padding slot gathers.  Each chunk then runs one
unbuffered gather (``np.take(..., mode="clip")`` into a pooled buffer),
one batched MMA over the pre-rounded tiles into the chunk's *folded
array*, the slice adds, and its exit: one add of ``+0.0`` to the folded
rows and one ``take`` straight into the caller's output in original row
order.  A single-chunk program writes every output row, rows of windows
that own no block from the folded array's zero row.  In a multi-chunk
program each chunk writes the rows of the windows it opens and adds the
rows of the one window it continues (windows can straddle chunk
boundaries), the reference's per-element order ``0 + s1 + s2``.  The
layout relies on three preconditions:

* windows are contiguous in block order (``block_window`` is
  non-decreasing), so a window's blocks in a chunk are one segment;
* ``reduceat`` accumulates a segment of up to 8 blocks as
  ``a[first] + leftfold(a[first+1:])``.  That is a numpy implementation
  detail (its pairwise sum is sequential below 8 elements), so a
  one-time probe (:func:`_stepped_replica_ok`) checks it; if it ever
  fails, compilation caps the slab layout at one block per window and
  hands every longer window to ``reduceat``;
* ``x + 0`` sets the signed zero as the reference's ``0 + x`` does: the
  reference adds each fold into a zeroed accumulator, which turns a
  ``-0.0`` fold into ``+0.0`` and changes nothing else, so the exit adds
  ``+0.0`` to the folded rows before it takes them.  A continued window
  then adds ``s2 + 0`` to ``0 + s1``, which has the bits of
  ``(0 + s1) + s2``.

Each chunk program keeps a strategy label (reported in
:attr:`ExecStats.strategies`):

* ``"direct"`` — every window in the chunk owns exactly one block, so
  the fold has no steps;
* ``"stepped"`` — the fold-order layout above;
* ``"reduceat"`` — the same layout capped at one block per window (the
  probe failed);
* ``"fused"`` — high-``MeanNNZTC`` chunks in the reassociating tiers
  (``tf32``/``fast``) run one dense GEMM per RowWindow group (blocks
  concatenated along K) in block order.  This reassociates the fp32
  accumulation, so it is *not* bit-for-bit with the reference — it
  stays within the documented tier error bound
  (:meth:`repro.tune.NumericsPolicy.error_bound`).

Each executor serves one numerics tier of :mod:`repro.tune.policy`:
``exact`` restricts strategies to the bit-for-bit set; ``tf32``
additionally fuses dense chunks; ``fast`` fuses *and* elides TF32 input
rounding — ``B`` and the packed A values are consumed as raw fp32,
removing the per-call rounding pass over ``B`` entirely.  A plan can
hold one compiled executor per tier simultaneously (``exec_cache`` is a
tier-keyed dict), sharing the value-independent gather geometry, so
mixed-tier traffic against one cached plan never thrashes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.gpusim.tensorcore import batched_tile_mma, tf32_round
from repro.tune.policy import resolve_policy
from repro.util.ragged import ragged_gather_indices

#: Dense-tile materialisation budget (per plan) before the executor
#: falls back to lazy per-chunk decompression.
DEFAULT_MAX_MATERIALIZED_BYTES = 256 << 20

#: ``MeanNNZTC`` above which the reassociating tiers fuse a chunk's windows
#: into dense GEMMs (8 of 64 slots filled — tiles are dense enough that
#: one big GEMM beats many tiny ones plus the segmented sum).
FUSED_DENSITY_THRESHOLD = 8.0

#: Per-member gathered-B slab target, in *elements* (~64 MB of fp32).
#: Must match the historical ``execute_tiled`` chunking so chunk
#: boundaries — and therefore fp32 accumulation order — are unchanged.
CHUNK_TARGET_ELEMS = 16 << 20

#: Longest segment the stepped replica handles itself: ``reduceat``
#: accumulates ``a[first] + pairwise(rest)``, and numpy's pairwise sum
#: is sequential only below 8 elements (rest ≤ 7 ⇒ length ≤ 8).
STEPPED_MAX_SEG = 8

_stepped_ok: bool | None = None


def _stepped_replica_ok() -> bool:
    """One-time probe: does this numpy's ``reduceat`` accumulate each
    segment as ``a[first] + leftfold(a[first+1:])`` for lengths ≤ 8?

    The slab fold reproduces exactly that order; if a numpy upgrade
    ever changes the kernel, this probe fails and compilation caps the
    slabs at one block per window, handing every longer window to
    ``reduceat`` itself — correctness never depends on the probe, only
    speed does.
    """
    global _stepped_ok
    if _stepped_ok is None:
        rng = np.random.default_rng(0xACC)
        lens = np.array([1, 2, 3, 4, 5, 6, 7, 8, 1, 8, 2, 5], dtype=np.int64)
        first = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=first[1:])
        part = rng.standard_normal((int(lens.sum()), 4, 4)).astype(np.float32)
        ref = np.add.reduceat(part, first, axis=0)
        out = np.empty_like(ref)
        for i, (f, c) in enumerate(zip(first, lens)):
            if c == 1:
                out[i] = part[f]
            else:
                rest = part[f + 1]
                for j in range(2, c):
                    rest = rest + part[f + j]
                out[i] = part[f] + rest
        _stepped_ok = bool(np.array_equal(out, ref))
    return _stepped_ok


@dataclass
class ExecStats:
    """Counters for one executor lifetime (prep-hit accounting)."""

    #: multiply calls served by this executor
    calls: int = 0
    #: calls that found their chunk program already compiled
    prep_hits: int = 0
    #: calls that had to compile a chunk program first (per N-class)
    prep_misses: int = 0
    #: chunk strategy -> number of chunks compiled with it
    strategies: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "prep_hits": self.prep_hits,
            "prep_misses": self.prep_misses,
            "strategies": dict(self.strategies),
        }


@dataclass
class _ChunkProgram:
    """Frozen B-invariant execution state for one block chunk.

    Non-fused chunks hold their blocks in fold order (see the module
    docstring): ``steps`` short-window slabs, then the long windows.
    A multiply folds the chunk into its *folded array*: ``n_groups``
    row groups of ``window_rows`` rows and one zero row after them.
    The first ``n_fold`` groups hold one folded window each; the exit
    indices take them to the output in original row order.
    """

    b0: int
    b1: int
    strategy: str  # "direct" | "stepped" | "reduceat" | "fused"
    #: gather rows into the ``(K + 1, N)`` operand for the chunk's
    #: blocks in program order; padding slots read row ``K``, its zero
    #: row
    pos: np.ndarray
    #: row groups of the folded array (its zero row follows them): the
    #: long windows' folds, then the MMA's ``k`` partials (fused: one
    #: group per window)
    n_groups: int = 0
    #: leading groups that hold a folded window: the long windows, then
    #: slab 0's short windows (fused: all of them)
    n_fold: int = 0
    #: row of the folded array for each output row the chunk writes
    #: (the zero row for windows that own no block)
    exit_src: np.ndarray | None = None
    #: the output rows ``exit_src`` feeds; ``None`` when the chunk
    #: writes every output row in order (a single-chunk program)
    exit_dst: np.ndarray | None = None
    #: rows of the one window an earlier chunk opened: output rows
    #: (``cont_dst``) add folded rows (``cont_src``); ``None`` if none
    cont_src: np.ndarray | None = None
    cont_dst: np.ndarray | None = None
    #: rows of ``tiles_all`` holding the chunk's tiles in program order;
    #: ``None`` when they arrive in program order anyway (a whole-matrix
    #: program over the resident stack, a lazy executor's baked
    #: ``scatter``) and for fused chunks, which never read them
    tile_rows: np.ndarray | None = None
    #: windows still open at each fold step: slab ``s`` is the
    #: ``steps[s]`` rows starting at ``sum(steps[:s])``
    steps: tuple = ()
    #: ``reduceat`` starts of the long windows, relative to the long
    #: region (``None``: no long windows)
    long_first: np.ndarray | None = None
    #: lazy executors: flat index of each of the chunk's nnz into its
    #: program-order tile stack
    scatter: np.ndarray | None = None
    #: fused strategy: [((g, L) block rows, (g, 8, L*8) A)], one entry
    #: per window length; group outputs fill the folded array in order
    fused_groups: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.b1 - self.b0

    @property
    def n_short(self) -> int:
        """Folded rows the slabs produce (one per short window)."""
        return self.steps[0] if self.steps else 0

    @property
    def n_long(self) -> int:
        """Windows folded by ``reduceat``."""
        return 0 if self.long_first is None else int(self.long_first.size)


def _segments(w: np.ndarray):
    """``(windows, first block, block count)`` of a chunk's segments;
    ``w`` is its ``block_window`` slice (windows contiguous)."""
    wins, first = np.unique(w, return_index=True)
    return wins, first, np.diff(np.append(first, w.size))


def _fold_layout(wins, first, seg, cap: int):
    """Fold order of one chunk: windows of at most ``cap`` blocks
    step-major by block count (descending, stable), then the longer ones
    contiguous.  Returns ``(order, steps, wins, long_first)`` with
    ``order`` chunk-relative."""
    short = np.flatnonzero(seg <= cap)
    short = short[np.argsort(-seg[short], kind="stable")]
    neg_len = -seg[short]
    n_steps = int(-neg_len[0]) if short.size else 0
    steps = tuple(
        int(np.searchsorted(neg_len, -s, side="left")) for s in range(n_steps)
    )
    parts = [first[short[:m]] + s for s, m in enumerate(steps)]
    long_ = np.flatnonzero(seg > cap)
    long_first = None
    if long_.size:
        parts.append(ragged_gather_indices(first[long_], seg[long_]))
        long_first = np.zeros(long_.size, dtype=np.int64)
        np.cumsum(seg[long_][:-1], out=long_first[1:])
    fold_wins = np.concatenate([wins[short], wins[long_]])
    return np.concatenate(parts), steps, fold_wins, long_first


def fold_slabs(part, steps: tuple) -> None:
    """Fold the step-major short region of ``part`` in place.

    Step ``s >= 2`` adds slab ``s`` into the open prefix of slab 1
    (``rest = a1 + a2 + ...``, left to right), then slab 0 takes
    ``rest + a0`` — ``reduceat``'s order for segments of up to 8 blocks.
    ``rest`` goes first because ``reduceat`` keeps the rest's NaN when
    both are NaN, and numpy's vector add keeps its first operand's.
    Slab 0 then holds one folded row group per short window.  Works on
    any array module whose arrays take numpy ufuncs.
    """
    if len(steps) < 2:
        return
    rest = steps[0]
    lo = rest + steps[1]
    for m in steps[2:]:
        part[rest : rest + m] += part[lo : lo + m]
        lo += m
    head = part[: steps[1]]
    np.add(part[rest : rest + steps[1]], head, out=head)


class _BufferPool:
    """A small thread-safe pool of gather buffers.

    ``execute`` runs concurrently on engine-cached plans, so the
    preallocated ``(rows, N)`` slabs cannot simply live on the executor;
    each call checks one out and returns it, and the pool keeps at most
    a handful alive.
    """

    _MAX_POOLED = 4

    def __init__(self) -> None:
        self._free: list[np.ndarray] = []
        self._lock = threading.Lock()

    def acquire(self, rows: int, n: int) -> np.ndarray:
        with self._lock:
            for i, buf in enumerate(self._free):
                if buf.shape[0] >= rows and buf.shape[1] == n:
                    return self._free.pop(i)
        return np.empty((rows, n), dtype=np.float32)

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < self._MAX_POOLED:
                self._free.append(buf)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(b.nbytes for b in self._free)


class TCExecPlan:
    """The compiled, B-invariant half of :func:`execute_tiled`.

    Built once per :class:`~repro.kernels.tc_common.TCPlan` (lazily, on
    the first multiply) and cached on the plan.  Chunk programs are
    compiled per feature-dimension class — chunk boundaries depend on N
    through the slab-size formula — and cached in ``_programs``.

    ``numerics`` is the tier the executor serves (anything
    :func:`~repro.tune.policy.resolve_policy` accepts; ``exact`` by
    default): ``exact`` restricts strategies to the bit-for-bit
    ``"direct"``/``"stepped"``/``"reduceat"`` set, ``tf32`` lets dense
    chunks use the ``"fused"`` GEMM strategy (fp32 reassociation), and
    ``fast`` fuses *and* skips TF32 input rounding.  Other knobs come
    from ``plan.meta``:

    ``exec_max_bytes``
        Dense-tile materialisation budget (default
        :data:`DEFAULT_MAX_MATERIALIZED_BYTES`).  Over budget, tiles are
        decompressed lazily per chunk from precomputed scatter indices.
    ``exec_chunk_elems``
        Slab-size target override (tests force multi-chunk execution on
        small matrices with it).

    ``geometry_from`` donates the value-independent arrays (gather
    positions, pad slots, output permutation, scatter indices) of an
    already-built sibling executor on the *same tiling* — the per-tier
    executors of one plan share that geometry instead of recomputing it.
    """

    def __init__(
        self,
        plan,
        numerics=None,
        geometry_from: "TCExecPlan | None" = None,
    ) -> None:
        t = plan.tiling
        self.tiling = t
        #: identity of the packed values this executor was compiled from;
        #: value refreshes swap ``vals_packed``, invalidating us
        self.vals_ref = plan.vals_packed
        #: the :class:`~repro.tune.policy.NumericsPolicy` served
        self.numerics = resolve_policy(numerics)
        self.max_bytes = plan.meta.get(
            "exec_max_bytes", DEFAULT_MAX_MATERIALIZED_BYTES
        )
        self.chunk_elems = plan.meta.get("exec_chunk_elems", CHUNK_TARGET_ELEMS)
        tuned = plan.meta.get("tuned")
        #: the autotuner's fuse-or-not verdict (None: fall back to the
        #: per-chunk density heuristic)
        self._fused_hint = (
            tuned.get("fused") if isinstance(tuned, dict) else None
        )
        self.stats = ExecStats()
        self._lock = threading.Lock()
        self._programs: dict[int, list[_ChunkProgram]] = {}
        self._pool = _BufferPool()
        self._win_rows: tuple[np.ndarray, np.ndarray] | None = None

        donor = geometry_from
        if donor is not None and donor.tiling is not t:
            donor = None  # geometry is tiling-derived; mismatched donors lie

        wr, bc = t.window_rows, t.block_cols
        if donor is not None:
            self.out_rank = donor.out_rank
        else:
            #: output rows in original order: original row r lives at rank[r]
            self.out_rank = plan.reorder.row_perm.rank[: plan.n_rows_original]

        if t.n_blocks == 0:
            self.vals_rounded = np.zeros(0, dtype=np.float32)
            self.scatter_flat = np.zeros(0, dtype=np.int64)
            self.tiles_all = None
            self._tile_pos = None
            self.pos_all = np.zeros(0, dtype=np.int64)
            self.pad_all = np.zeros(0, dtype=np.int64)
            self.materialized = False
            return

        # A-side values: TF32 rounding is value-invariant across calls,
        # so round once here instead of once per multiply.  The fast tier
        # consumes the packed fp32 values as-is (the attribute keeps its
        # name; "rounded" then means "as the MMA will see them").
        self.vals_rounded = (
            tf32_round(plan.vals_packed)
            if self.numerics.rounds_inputs
            else np.ascontiguousarray(plan.vals_packed, dtype=np.float32)
        )

        # flat scatter index of each nnz into the dense (n_blocks, wr, bc)
        # tile stack — the decompression the reference re-derives per call
        if donor is not None and donor.scatter_flat is not None:
            self.scatter_flat = donor.scatter_flat
        else:
            counts = t.nnz_per_block()
            block_of_nnz = np.repeat(
                np.arange(t.n_blocks, dtype=np.int64), counts
            )
            self.scatter_flat = (
                block_of_nnz * wr + t.local_rows.astype(np.int64)
            ) * bc + t.local_cols.astype(np.int64)

        tile_bytes = t.n_blocks * wr * bc * 4
        self.materialized = tile_bytes <= self.max_bytes
        if self.materialized:
            # the tile stack is value-derived and never persisted, so it
            # is built straight in the whole-matrix fold order: a
            # single-chunk program reads it as is, other chunks gather
            # their tiles through ``_tile_pos``
            cap = STEPPED_MAX_SEG if _stepped_replica_ok() else 1
            order = _fold_layout(*_segments(t.block_window), cap)[0]
            #: row of ``tiles_all`` holding each block's tile
            self._tile_pos = np.empty(t.n_blocks, dtype=np.int64)
            self._tile_pos[order] = np.arange(t.n_blocks, dtype=np.int64)
            tsz = wr * bc
            blk = self.scatter_flat // tsz
            tiles = np.zeros(t.n_blocks * tsz, dtype=np.float32)
            tiles[self.scatter_flat + (self._tile_pos[blk] - blk) * tsz] = (
                self.vals_rounded
            )
            self.tiles_all = tiles.reshape(t.n_blocks, wr, bc)
            # the scatter descriptors exist only to feed lazy per-chunk
            # decompression; with the tiles resident they are dead weight
            # (12 bytes per nnz) — drop them so they are neither pinned
            # nor charged to the cache budget
            self.scatter_flat = None
            self.vals_rounded = None
        else:
            self.tiles_all = None
            self._tile_pos = None

        # gather geometry: padding slots (-1) hold row 0 and are listed
        # in pad_all; compiled programs send them to row K
        if donor is not None:
            self.pos_all = donor.pos_all
            self.pad_all = donor.pad_all
        else:
            slots = t.sparse_a_to_b
            self.pos_all = np.maximum(slots, 0)
            self.pad_all = np.flatnonzero(slots < 0)  # sorted flat slot ids

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def prepare_for(self, n: int) -> "TCExecPlan":
        """Compile (or fetch) the chunk program for feature dim ``n``."""
        if self.tiling.n_blocks:
            self._program_for(n)
        return self

    def is_prepared_for(self, n: int) -> bool:
        """Whether a multiply at feature dim ``n`` needs no compilation
        (the engine uses this to skip budget re-checks on pure hits)."""
        if not self.tiling.n_blocks:
            return True
        with self._lock:
            return self._blocks_per_chunk(n) in self._programs

    #: retained chunk programs (distinct N-classes); beyond this the
    #: oldest is dropped and recompiled on demand
    _MAX_PROGRAMS = 8

    def _blocks_per_chunk(self, n: int) -> int:
        bc = self.tiling.block_cols
        bpc = max(1, self.chunk_elems // max(1, bc * n))
        # every bpc >= n_blocks yields the same single-chunk program —
        # collapse them to one cache key (chunk boundaries are unchanged)
        return min(bpc, self.tiling.n_blocks) or 1

    def _program_for(self, n: int) -> list[_ChunkProgram]:
        """The chunk program for feature dimension ``n`` (compile once).

        Returns the cached program when the N-class was seen before (a
        prep hit); otherwise compiles and caches it.
        """
        bpc = self._blocks_per_chunk(n)
        with self._lock:
            prog = self._programs.get(bpc)
            if prog is not None:
                self.stats.prep_hits += 1
                return prog
        prog = self._compile(bpc)
        with self._lock:
            self.stats.prep_misses += 1
            existing = self._programs.get(bpc)
            if existing is None:
                while len(self._programs) >= self._MAX_PROGRAMS:
                    self._programs.pop(next(iter(self._programs)))
                self._programs[bpc] = existing = prog
                for cp in prog:
                    key = cp.strategy
                    self.stats.strategies[key] = (
                        self.stats.strategies.get(key, 0) + 1
                    )
        return existing

    def _compile(self, bpc: int) -> list[_ChunkProgram]:
        t = self.tiling
        counts_nnz = t.nnz_per_block()
        return [
            self._compile_chunk(b0, min(b0 + bpc, t.n_blocks), counts_nnz)
            for b0 in range(0, t.n_blocks, bpc)
        ]

    def _compile_chunk(
        self, b0: int, b1: int, counts_nnz: np.ndarray
    ) -> _ChunkProgram:
        """Compile one chunk ``[b0, b1)``."""
        t = self.tiling
        wr, bc = t.window_rows, t.block_cols
        k = b1 - b0
        wins, first, seg = _segments(t.block_window[b0:b1])
        # padding slots read row K of the operand, its zero row
        pos = self.pos_all[b0 * bc : b1 * bc].copy()
        lo = np.searchsorted(self.pad_all, b0 * bc)
        hi = np.searchsorted(self.pad_all, b1 * bc)
        pos[self.pad_all[lo:hi] - b0 * bc] = t.n_cols
        mean_nnz = counts_nnz[b0:b1].mean() if k else 0.0
        if (seg == 1).all():
            strategy = "direct"
        elif (
            self.numerics.reassociates
            and self.materialized
            and (
                self._fused_hint
                if self._fused_hint is not None
                else mean_nnz >= FUSED_DENSITY_THRESHOLD
            )
        ):
            cp = _ChunkProgram(b0=b0, b1=b1, strategy="fused", pos=pos)
            cp.fused_groups, fold_wins = self._compile_fused(
                b0, b1, wins, first, seg
            )
            cp.n_groups = cp.n_fold = fold_wins.size
            self._compile_exit(cp, fold_wins)
            return cp
        elif _stepped_replica_ok():
            strategy = "stepped"
        else:
            strategy = "reduceat"
        cap = STEPPED_MAX_SEG if strategy == "stepped" else 1
        rel, steps, fold_wins, long_first = _fold_layout(wins, first, seg, cap)
        order = rel + b0
        cp = _ChunkProgram(
            b0=b0,
            b1=b1,
            strategy=strategy,
            pos=pos.reshape(k, bc)[rel].reshape(-1),
            steps=steps,
            long_first=long_first,
        )
        # folded array: the long windows' folds, then the MMA's k
        # partials, whose slab 0 holds the short windows' folds
        ns, nl = cp.n_short, cp.n_long
        cp.n_groups, cp.n_fold = nl + k, nl + ns
        self._compile_exit(
            cp, np.concatenate([fold_wins[ns:], fold_wins[:ns]])
        )
        if not self.materialized:
            # lazy tiles: bake the order into the chunk's scatter indices
            tsz = wr * bc
            flat = self.scatter_flat[t.tc_offset[b0] : t.tc_offset[b1]]
            blk = flat // tsz
            rank = np.empty(k, dtype=np.int64)
            rank[rel] = np.arange(k, dtype=np.int64)
            # chunk-relative, so 32 bits nearly always suffice: lazy
            # executors exist for huge matrices, where the indices
            # rival the tiles in size
            cp.scatter = (rank[blk - b0] * tsz + (flat - blk * tsz)).astype(
                np.int32 if k * tsz < 2**31 else np.int64
            )
        else:
            tile_rows = self._tile_pos[order]
            # a whole-matrix program reads the stack as it was built
            whole = b0 == 0 and b1 == t.n_blocks
            if not (
                whole and np.array_equal(tile_rows, np.arange(k, dtype=np.int64))
            ):
                cp.tile_rows = tile_rows
        return cp

    def _rows_by_window(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, starts)``: output rows sorted by RowWindow; window
        ``w``'s rows are ``rows[starts[w]:starts[w + 1]]``.  Built once,
        for multi-chunk exits."""
        cached = self._win_rows
        if cached is None:
            t = self.tiling
            rows = np.argsort(self.out_rank, kind="stable")
            starts = np.searchsorted(
                self.out_rank[rows],
                np.arange(t.n_windows + 1, dtype=np.int64) * t.window_rows,
            )
            self._win_rows = cached = (rows, starts)
        return cached

    def _compile_exit(self, cp: _ChunkProgram, fold_wins: np.ndarray) -> None:
        """Exit indices of ``cp``; ``fold_wins[g]`` is the window whose
        folded rows group ``g`` of the folded array holds.

        A chunk writes the rows of every window it opens: those whose
        first block it holds, and the block-less windows between its
        predecessor's last window and its own (the last chunk: up to
        the end), which read the zero row.  It adds into the rows of
        the one window an earlier chunk opened, if it continues one.
        """
        t = self.tiling
        wr, bw = t.window_rows, t.block_window
        b0, b1 = cp.b0, cp.b1
        group = np.argsort(fold_wins)  # windows ascending -> their group
        wins = fold_wins[group]
        zero_row = cp.n_groups * wr

        def src_of(rows: np.ndarray | None) -> np.ndarray:
            r = self.out_rank if rows is None else self.out_rank[rows]
            w = r // wr
            at = np.minimum(np.searchsorted(wins, w), wins.size - 1)
            return np.where(wins[at] == w, group[at] * wr + r % wr, zero_row)

        if b0 == 0 and b1 == t.n_blocks:
            cp.exit_src = src_of(None)  # every output row, in order
            return
        rows, starts = self._rows_by_window()
        lo = int(bw[b0 - 1]) + 1 if b0 else 0
        hi = int(bw[b1 - 1]) + 1 if b1 < t.n_blocks else t.n_windows
        cp.exit_dst = rows[starts[lo] : starts[hi]]
        cp.exit_src = src_of(cp.exit_dst)
        if b0 and bw[b0 - 1] == bw[b0]:
            w = int(bw[b0])
            cp.cont_dst = rows[starts[w] : starts[w + 1]]
            cp.cont_src = src_of(cp.cont_dst)

    def _compile_fused(self, b0: int, b1: int, wins, first, seg):
        """Group a chunk's windows by block count and pre-concatenate A.

        A window with L blocks becomes one ``(8, L*8)`` dense A slab; all
        same-L windows share a batched GEMM at execute time.  Returns the
        groups and the window of each folded row group they fill.
        """
        t = self.tiling
        wr, bc = t.window_rows, t.block_cols
        tiles = self.tiles_all[self._tile_pos[b0:b1]]  # block order
        groups, fold_wins = [], []
        for length in np.unique(seg):
            sel = np.flatnonzero(seg == length)
            rows2d = first[sel][:, None] + np.arange(length, dtype=np.int64)
            a = tiles[rows2d]  # (g, L, wr, bc)
            a_fused = np.ascontiguousarray(
                a.transpose(0, 2, 1, 3).reshape(sel.size, wr, length * bc)
            )
            groups.append((rows2d, a_fused))
            fold_wins.append(wins[sel])
        return groups, np.concatenate(fold_wins)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _chunk_tiles(self, cp: _ChunkProgram) -> np.ndarray | None:
        """Pre-rounded dense A tiles of one chunk in program order (the
        resident stack, a gather from it, or a lazy scatter)."""
        if cp.strategy == "fused":
            return None  # fused chunks carry their A slabs
        if self.tiles_all is not None:
            if cp.tile_rows is None:
                return self.tiles_all
            return np.take(self.tiles_all, cp.tile_rows, axis=0)
        t = self.tiling
        wr, bc = t.window_rows, t.block_cols
        lo, hi = t.tc_offset[cp.b0], t.tc_offset[cp.b1]
        tiles = np.zeros(cp.k * wr * bc, dtype=np.float32)
        tiles[cp.scatter] = self.vals_rounded[lo:hi]
        return tiles.reshape(cp.k, wr, bc)

    def _run_chunk(
        self, cp: _ChunkProgram, tiles, B_ext, out_i, buf, n: int
    ) -> None:
        """One (chunk, batch member) step: gather from ``B_ext`` (the
        member's ``(K + 1, N)`` operand), MMA, fold, and the exit into
        the member's output ``out_i``."""
        wr, bc = self.tiling.window_rows, self.tiling.block_cols
        gathered = buf[: cp.k * bc]
        # mode="clip" skips the bounds check that makes take buffer its
        # whole output before copying it into ``out``
        np.take(B_ext, cp.pos, axis=0, out=gathered, mode="clip")
        g3 = gathered.reshape(cp.k, bc, n)
        folded = np.empty((cp.n_groups * wr + 1, n), dtype=np.float32)
        folded[-1] = 0.0
        f3 = folded[:-1].reshape(cp.n_groups, wr, n)
        if cp.strategy == "fused":
            at = 0
            for rows2d, a_fused in cp.fused_groups:
                g = rows2d.shape[0]
                b_f = g3[rows2d].reshape(g, -1, n)
                np.matmul(a_fused, b_f, out=f3[at : at + g])
                at += g
        else:
            nl = cp.n_long
            part = batched_tile_mma(g3, tiles, assume_rounded=True, out=f3[nl:])
            fold_slabs(part, cp.steps)
            if nl:
                np.add.reduceat(
                    part[sum(cp.steps) :], cp.long_first, axis=0, out=f3[:nl]
                )
        # the exit: +0.0 is the reference's zeroed accumulator (0 + x
        # turns a -0.0 fold into +0.0), then original row order
        head = folded[: cp.n_fold * wr]
        np.add(head, np.float32(0.0), out=head)
        if cp.exit_dst is None:
            np.take(folded, cp.exit_src, axis=0, out=out_i, mode="clip")
        else:
            out_i[cp.exit_dst] = folded[cp.exit_src]
        if cp.cont_dst is not None:
            out_i[cp.cont_dst] += folded[cp.cont_src]

    def execute(self, B: np.ndarray, backend=None) -> np.ndarray:
        """SpMM over the prepared state; ``B`` is ``(K, N)`` or
        ``(batch, K, N)``.  Bit-for-bit equal to the reference path at
        the ``exact`` tier.

        ``backend`` selects the execution arm — ``None`` (the process
        default), ``"cpu"``, ``"cupy"``, or a
        :class:`~repro.backend.base.DeviceBackend` instance.  The numpy
        loop itself lives in :class:`~repro.backend.cpu.CpuBackend`
        (extracted from this method); the cupy arm keeps an upload-once
        device mirror of this executor's compiled state
        (:class:`~repro.backend.gpu.DeviceExecState`), cached on the
        instance so the stale-value pruning in :func:`get_executor`
        invalidates it together with the executor.
        """
        from repro.backend import resolve_backend

        # the arms gather with mode="clip", which clamps instead of
        # raising: a B of the wrong height must be refused here
        if B.ndim not in (2, 3) or B.shape[-2] != self.tiling.n_cols:
            raise ValidationError(
                f"B must be ({self.tiling.n_cols}, N) or "
                f"(batch, {self.tiling.n_cols}, N); got {B.shape}"
            )
        return resolve_backend(backend).execute(self, B)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes pinned by the prepared state (cache accounting)."""

        def arr_bytes(*arrays) -> int:
            return sum(a.nbytes for a in arrays if a is not None)

        total = arr_bytes(
            self.vals_rounded,
            self.scatter_flat,
            self.tiles_all,
            self._tile_pos,
            self.pos_all,
            self.pad_all,
            self.out_rank,
            *(self._win_rows or ()),
        ) + self._pool.nbytes
        with self._lock:
            programs = [cp for prog in self._programs.values() for cp in prog]
        for cp in programs:
            total += arr_bytes(
                cp.pos,
                cp.exit_src,
                cp.exit_dst,
                cp.cont_src,
                cp.cont_dst,
                cp.tile_rows,
                cp.long_first,
                cp.scatter,
            )
            for rows2d, a_fused in cp.fused_groups:
                total += rows2d.nbytes + a_fused.nbytes
        return total


# ----------------------------------------------------------------------
def get_executor(plan, numerics=None) -> TCExecPlan:
    """The plan's cached executor for a numerics tier (``exact`` by
    default), (re)built when missing or stale.

    ``plan.exec_cache`` is a tier-keyed dict — one compiled executor per
    tier — so mixed-tier traffic against a single cached plan reuses,
    never evicts.  Sibling executors donate their value-independent
    gather geometry to new tiers.  Executors bake in ``vals_packed``
    (rounded values, materialised tiles), so a value refresh — which
    swaps ``vals_packed`` on a copied plan — must not reuse them;
    staleness is detected by array identity and stale entries of
    *every* tier are dropped together.  A benign race may build twice
    under concurrency; both results are correct and one wins the cache
    slot.
    """
    policy = resolve_policy(numerics)
    cache = getattr(plan, "exec_cache", None)
    if cache is None:
        cache = {}
        plan.exec_cache = cache
    ex = cache.get(policy.tier)
    if ex is not None and ex.vals_ref is plan.vals_packed:
        return ex
    for tier, e in list(cache.items()):
        if e.vals_ref is not plan.vals_packed:
            cache.pop(tier, None)
    donor = next(iter(cache.values()), None)
    ex = TCExecPlan(plan, numerics=policy, geometry_from=donor)
    cache[policy.tier] = ex
    return ex
