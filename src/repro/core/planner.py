"""The Acc-SpMM planner: reorder → compress → balance, reusable across B's.

SpMM in iterative applications (GNN training, solvers) multiplies the same
sparse matrix against many dense matrices; the paper amortises its
conversion cost accordingly ("For iterative applications, the overhead of
this conversion is minimal").  :class:`AccPlan` is that amortised object:
build once with :func:`plan`, call :meth:`~AccPlan.multiply` per B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AccConfig
from repro.errors import ValidationError
from repro.gpusim.counters import KernelProfile
from repro.gpusim.specs import DeviceSpec, get_device
from repro.kernels.accspmm import AccSpMMKernel
from repro.kernels.base import SpMMKernel
from repro.kernels.tc_common import TCPlan
from repro.sparse.csr import CSRMatrix
from repro.util.timing import Timer


@dataclass
class AccPlan:
    """A prepared Acc-SpMM pipeline for one sparse matrix."""

    csr: CSRMatrix
    config: AccConfig
    device: DeviceSpec
    feature_dim: int
    tc_plan: TCPlan
    build_seconds: float
    kernel: SpMMKernel = field(repr=False, default=None)  # type: ignore

    # ------------------------------------------------------------------
    def multiply(self, B: np.ndarray, numerics=None, backend=None) -> np.ndarray:
        """C = A @ B using the planned representation.

        Served by the plan's prepared executor: the first call compiles
        the B-invariant execution state (decompressed pre-rounded tiles,
        gather positions, window segmentation) and steady-state calls
        replay it — see :mod:`repro.kernels.executor`.  ``numerics``
        selects a :mod:`repro.tune` tier (``"exact"`` — the bit-for-bit
        default — ``"tf32"``, or ``"fast"``); each tier keeps its own
        compiled executor on the plan, so mixing tiers does not thrash.
        ``backend`` selects the execution arm (``"cpu"``, ``"cupy"``, a
        :class:`~repro.backend.base.DeviceBackend` instance, or ``None``
        for the process default — see :mod:`repro.backend`).
        """
        B = np.ascontiguousarray(B, dtype=np.float32)
        if B.ndim != 2 or B.shape[0] != self.csr.n_cols:
            raise ValidationError(
                f"B must be ({self.csr.n_cols}, N); got {B.shape}"
            )
        if backend is None:
            return self.kernel.execute(self.tc_plan, B, numerics=numerics)
        return self.kernel.execute(
            self.tc_plan, B, numerics=numerics, backend=backend
        )

    def prepare(
        self,
        feature_dim: int | None = None,
        max_bytes: int | None = None,
        numerics=None,
        backend=None,
    ) -> "AccPlan":
        """Eagerly build a prepared executor (it is otherwise built
        lazily on the first multiply).

        ``numerics`` names the tier whose executor is compiled (``exact``
        by default).  ``max_bytes`` bounds dense-tile materialisation;
        over it, the executor falls back to lazy per-chunk
        decompression.  ``backend`` additionally warms that arm — on the
        cupy arm this performs the one-time device upload of the
        compiled state, so the first multiply is steady-state.  Returns
        ``self``.
        """
        from repro.kernels.executor import get_executor

        meta = self.tc_plan.meta
        if max_bytes is not None and meta.get("exec_max_bytes") != int(max_bytes):
            meta["exec_max_bytes"] = int(max_bytes)
            self.tc_plan.exec_cache = None  # budget is baked into executors
        ex = get_executor(self.tc_plan, numerics=numerics)
        ex.prepare_for(feature_dim or self.feature_dim)
        if backend is not None:
            from repro.backend import resolve_backend

            resolve_backend(backend).prepare(
                ex, feature_dim or self.feature_dim
            )
        return self

    @property
    def executor(self):
        """The prepared executor of the ``exact`` tier, or ``None``
        before its first multiply (other tiers' executors may exist; see
        :meth:`executor_for`)."""
        return self.executor_for()

    def executor_for(self, numerics=None):
        """The compiled executor serving a numerics tier, or ``None``."""
        from repro.tune.policy import resolve_policy

        return (self.tc_plan.exec_cache or {}).get(resolve_policy(numerics).tier)

    # ------------------------------------------------------------------
    def to_bytes(self, include_executor: bool = True) -> bytes:
        """Serialise this plan to a versioned, self-describing container.

        The bytes round-trip through :meth:`from_bytes` into a plan that
        multiplies **bit-for-bit** identically; they are also exactly
        what :class:`repro.serve.store.PlanStore` persists to disk.  With
        ``include_executor`` (default) the structural half of an
        already-built prepared executor (gather geometry, pad masks, the
        output permutation) rides along, so a process loading the plan
        skips that part of executor compilation.  No pickle is involved —
        the container is a JSON header plus raw array payloads.
        """
        from repro.serve.serial import plan_to_bytes

        return plan_to_bytes(self, include_executor=include_executor)

    @staticmethod
    def from_bytes(data: bytes) -> "AccPlan":
        """Rebuild a plan serialised by :meth:`to_bytes`.

        Raises :class:`repro.errors.StoreError` (or its
        ``StoreVersionError`` subclass) on corrupt, truncated, or
        version-incompatible input — never returns a half-built plan.
        """
        from repro.serve.serial import plan_from_bytes

        return plan_from_bytes(data)

    def nbytes(self) -> int:
        """Estimated bytes pinned by this plan (cache byte budgeting).

        Counts the matrix, its reordered copy, the tiling and schedule
        arrays, the packed values, the permutations, and — once built —
        the prepared executor's materialised state.  Shared arrays are
        deduplicated by identity.
        """
        # identity-based dedup without id(): plan graphs share a handful
        # of arrays at most, so a linear `is` scan beats keeping
        # process-dependent id() values around in a determinism-audited
        # path (REP201)
        seen: list = []
        total = 0

        def add(arr) -> None:
            nonlocal total
            if isinstance(arr, np.ndarray) and not any(
                s is arr for s in seen
            ):
                seen.append(arr)
                total += arr.nbytes

        tc = self.tc_plan
        for m in (self.csr, tc.csr_reordered):
            add(m.indptr)
            add(m.indices)
            add(m.vals)
        t = tc.tiling
        for a in (
            t.row_window_offset,
            t.tc_offset,
            t.sparse_a_to_b,
            t.local_rows,
            t.local_cols,
            t.block_window,
            t.perm_nnz,
        ):
            add(a)
        add(tc.vals_packed)
        add(tc.bytes_a_per_block)
        s = tc.schedule
        add(s.tb_start)
        add(s.tb_end)
        add(s.segments_per_tb)
        for perm in (tc.reorder.row_perm, tc.reorder.col_perm):
            if perm is not None:
                add(perm.order)
                add(perm.rank)
        for ex in (tc.exec_cache or {}).values():
            total += ex.nbytes
        return total

    def multiply_many(self, Bs, numerics=None, backend=None) -> np.ndarray:
        """Batched ``C[i] = A @ Bs[i]`` in one pass over the plan.

        ``Bs`` is a ``(batch, n_cols, N)`` array or a sequence of
        equally-shaped ``(n_cols, N)`` matrices.  The tiled A
        representation is decompressed once and shared across the batch
        (on the cupy arm the whole stack rides a single upload); each
        slice of the result is bit-for-bit identical to
        ``multiply(Bs[i])``.
        """
        if not isinstance(Bs, np.ndarray):
            Bs = np.stack([np.asarray(b, dtype=np.float32) for b in Bs])
        Bs = np.ascontiguousarray(Bs, dtype=np.float32)
        if Bs.ndim != 3 or Bs.shape[1] != self.csr.n_cols:
            raise ValidationError(
                f"Bs must be (batch, {self.csr.n_cols}, N); got {Bs.shape}"
            )
        if backend is None:
            return self.kernel.execute(self.tc_plan, Bs, numerics=numerics)
        return self.kernel.execute(
            self.tc_plan, Bs, numerics=numerics, backend=backend
        )

    def apply_delta(self, added=None, removed=None) -> "AccPlan":
        """A new plan for the edited matrix, patched window-locally.

        ``added``/``removed`` are edge lists as accepted by
        :meth:`repro.sparse.delta.GraphDelta.from_edges` (``added`` may
        also be a ready :class:`~repro.sparse.delta.GraphDelta`).  Only
        the RowWindows an edit touches are re-tiled
        (:func:`repro.formats.tiling.retile_windows`); clean windows are
        spliced from this plan, the base reordering is kept (a delta
        never changes the matrix shape, so the permutation stays valid),
        and compiled executors are rebased chunk-by-chunk — only chunks
        intersecting a dirty window recompile, and the fresh executor
        instances force the device mirrors to re-upload, keeping host
        and device program caches in lockstep.

        The result is **bit-for-bit identical** to planning the edited
        matrix from scratch with this plan's reordering pinned
        (``kernel.plan`` with ``reorder=<this ReorderResult>``) — same
        tiling arrays, packed values, TB schedule, and multiply output —
        while skipping the reordering pass and the global nnz sort that
        dominate full-plan cost.  ``self`` is not modified.

        The new plan's ``build_seconds`` is this plan's plus the patch's
        own time: what a worker without the derived plan pays to rebuild
        it, which is what the plan store's admission and cheapest-first
        gc rank it by.
        """
        from repro.formats.tiling import retile_windows
        from repro.sparse.delta import GraphDelta

        if isinstance(added, GraphDelta):
            if removed is not None:
                raise ValidationError(
                    "pass either a GraphDelta or added/removed edge "
                    "lists, not both"
                )
            delta = added
        else:
            delta = GraphDelta.from_edges(added=added, removed=removed)
        timer = Timer()
        with timer:
            delta.validate_for(self.csr.n_rows, self.csr.n_cols)
            tc = self.tc_plan
            reorder = tc.reorder
            new_csr = delta.apply_to(self.csr)
            if reorder.row_perm.is_identity() and reorder.col_perm is None:
                # fresh plans share the CSR object under an identity
                # reordering; match them so equality checks see `is`
                delta_r = delta
                new_csr_r = new_csr
            else:
                col_rank = (
                    reorder.col_perm.rank
                    if reorder.col_perm is not None
                    else None
                )
                delta_r = delta.permuted(reorder.row_perm.rank, col_rank)
                new_csr_r = delta_r.apply_to(tc.csr_reordered)
            if delta.is_empty:
                dirty_windows = np.zeros(0, dtype=np.int64)
            else:
                dirty_windows = np.unique(
                    delta_r.touched_rows()
                    // np.int64(tc.tiling.window_rows)
                )
            new_tiling = retile_windows(tc.tiling, new_csr_r, dirty_windows)
            new_tc = self.kernel.assemble(
                new_csr,
                reorder,
                new_csr_r,
                new_tiling,
                self.feature_dim,
                self.device,
            )
            # carry the matrix-derived and engine-owned knobs
            for key in ("tuned", "exec_max_bytes", "exec_chunk_elems"):
                if key in tc.meta:
                    new_tc.meta[key] = tc.meta[key]
            if tc.exec_cache:
                rwo = new_tiling.row_window_offset
                dirty_blocks = (
                    np.concatenate(
                        [
                            np.arange(rwo[w], rwo[w + 1], dtype=np.int64)
                            for w in dirty_windows.tolist()
                        ]
                    )
                    if dirty_windows.size
                    else np.zeros(0, dtype=np.int64)
                )
                from repro.kernels.executor import TCExecPlan

                cache = {}
                donor = None
                for tier, old_ex in tc.exec_cache.items():
                    ex = TCExecPlan(new_tc, numerics=tier, geometry_from=donor)
                    ex.rebase_from(old_ex, dirty_blocks)
                    cache[tier] = ex
                    donor = ex
                new_tc.exec_cache = cache
        return AccPlan(
            csr=new_csr,
            config=self.config,
            device=self.device,
            feature_dim=self.feature_dim,
            tc_plan=new_tc,
            build_seconds=self.build_seconds + timer.elapsed,
            kernel=self.kernel,
        )

    def profile(self, feature_dim: int | None = None) -> KernelProfile:
        """Simulated launch profile on the plan's device."""
        n = feature_dim or self.feature_dim
        prof = self.kernel.simulate(self.tc_plan, n, self.device)
        prof.kernel = self.config.label
        prof.device = self.device.name
        return prof

    @property
    def stats(self) -> dict:
        """Plan-level facts: ordering, format, schedule, density, and —
        once the first multiply built it — the prepared executor."""
        out = {
            "build_seconds": round(self.build_seconds, 4),
            "n_blocks": self.tc_plan.tiling.n_blocks,
            "n_windows": self.tc_plan.tiling.n_windows,
            "mean_nnz_tc": round(self.tc_plan.tiling.mean_nnz_per_block(), 3),
            **self.tc_plan.meta,
        }
        ex = self.executor
        if ex is not None:
            out["executor"] = {
                "materialized": ex.materialized,
                "numerics": ex.numerics.tier,
                "nbytes": ex.nbytes,
                **ex.stats.as_dict(),
            }
        return out


def kernel_for_config(cfg: AccConfig, tuned=None) -> SpMMKernel:
    """The kernel a configuration (plus optional tuned verdict) describes.

    Shared by :func:`plan` and the deserialisation path
    (:mod:`repro.serve.serial`), which must rebuild the exact kernel a
    persisted plan was created with.  ``tuned`` — a
    :class:`repro.tune.TunedConfig` — overrides the kernel choice and
    tile geometry; without it the paper-default Acc-SpMM kernel on 8x8
    tiles is built.
    """
    shape = None
    if tuned is not None:
        shape = tuned.tile_shape
        if tuned.kernel == "dtc":
            from repro.kernels.dtc import DTCKernel

            return DTCKernel(tile_shape=shape)
        if tuned.kernel == "tcgnn":
            from repro.kernels.tcgnn import TCGNNKernel

            return TCGNNKernel(tile_shape=shape)
    return AccSpMMKernel(
        reorder=cfg.reorder,
        use_bittcf=cfg.use_bittcf,
        cache_policy=cfg.cache_policy,
        pipeline=cfg.pipeline_mode,
        load_balance="adaptive" if cfg.load_balance else "off",
        tile_shape=shape,
    )


def plan(
    csr: CSRMatrix,
    feature_dim: int = 128,
    device: DeviceSpec | str = "a800",
    config: AccConfig | None = None,
    tuned=None,
    autotune: bool = False,
) -> AccPlan:
    """Build an :class:`AccPlan` (reorder, BitTCF conversion, TB schedule).

    ``tuned`` applies a precomputed :class:`repro.tune.TunedConfig`;
    ``autotune=True`` runs :func:`repro.tune.autotune` first and applies
    its verdict (ignored when ``tuned`` is given).  The verdict is
    recorded in the plan meta and rides through serialisation, so a
    stored plan never re-tunes.
    """
    if csr.n_rows == 0 or csr.n_cols == 0:
        raise ValidationError(
            f"cannot plan a zero-dimension matrix (shape {csr.shape}); "
            "A @ B is trivially empty — compute it without a plan"
        )
    cfg = config or AccConfig.paper_default()
    spec = get_device(device)
    if tuned is None and autotune:
        from repro.tune.autotune import autotune as _autotune

        tuned = _autotune(csr, feature_dim=feature_dim, device=spec)
    kernel = kernel_for_config(cfg, tuned=tuned)
    timer = Timer()
    with timer:
        tc_plan = kernel.plan(csr, feature_dim, spec)
    if tuned is not None:
        tc_plan.meta["tuned"] = tuned.as_meta()
    return AccPlan(
        csr=csr,
        config=cfg,
        device=spec,
        feature_dim=feature_dim,
        tc_plan=tc_plan,
        build_seconds=timer.elapsed,
        kernel=kernel,
    )
