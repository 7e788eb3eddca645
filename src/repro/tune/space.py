"""The autotuner's search space — shared with the tile-shape ablation.

``benchmarks/bench_ablation_tileshape.py`` used to carry its own copy of
the candidate tile geometries; the autotuner enumerating a *different*
list would make the bench meaningless, so the space lives here and both
consume it.  This module is dependency-light on purpose (errors only):
the planner and the serialisation layer import :class:`TunedConfig`
without dragging in kernels or the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

#: Every mask-fitting tile geometry (``window_rows * block_cols <= 64``,
#: the uint64-bitmask constraint enforced by ``build_tiling``) the
#: ablation sweeps and the autotuner considers.  8x8 is the paper's
#: choice and the default.
TILE_SHAPES = ((2, 8), (4, 8), (8, 8), (8, 4), (4, 4))

#: The tensor-core kernels the autotuner can pick between.
KERNELS = ("accspmm", "dtc", "tcgnn")

#: ``build_tiling``'s bitmask constraint, repeated here so candidates
#: are rejected at enumeration time instead of deep inside planning.
MAX_TILE_CELLS = 64


def _check_shape(window_rows: int, block_cols: int) -> None:
    if window_rows < 1 or block_cols < 1:
        raise ValidationError(
            f"tile shape must be positive; got {window_rows}x{block_cols}"
        )
    if window_rows * block_cols > MAX_TILE_CELLS:
        raise ValidationError(
            f"tile shape {window_rows}x{block_cols} exceeds the "
            f"{MAX_TILE_CELLS}-cell bitmask limit"
        )


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValidationError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )


@dataclass(frozen=True)
class TuneCandidate:
    """One point of the search space: a tile geometry and a kernel."""

    window_rows: int
    block_cols: int
    kernel: str = "accspmm"

    def __post_init__(self) -> None:
        _check_shape(self.window_rows, self.block_cols)
        _check_kernel(self.kernel)

    @property
    def tile_shape(self) -> tuple[int, int]:
        return (self.window_rows, self.block_cols)


def candidate_configs(
    tile_shapes=None, kernels=("accspmm",)
) -> tuple[TuneCandidate, ...]:
    """Enumerate the cross product of tile shapes and kernels.

    Defaults to every shape in :data:`TILE_SHAPES` with the Acc-SpMM
    kernel; pass ``kernels=KERNELS`` for the full space.  Invalid shapes
    or kernel names raise :class:`~repro.errors.ValidationError` here,
    before any planning work happens.
    """
    shapes = TILE_SHAPES if tile_shapes is None else tuple(tile_shapes)
    return tuple(
        TuneCandidate(window_rows=int(wr), block_cols=int(bc), kernel=k)
        for k in kernels
        for wr, bc in shapes
    )


@dataclass(frozen=True)
class TunedConfig:
    """The autotuner's verdict for one matrix — what the plan bakes in.

    Lives in ``tc_plan.meta["tuned"]`` (as the :meth:`as_meta` dict),
    which a plan file carries, so a
    :class:`~repro.serve.store.PlanStore` hit restores the tuned
    geometry, kernel, and execution strategy without re-tuning.  It is
    **matrix-derived** — a function of the operand, not of the request —
    so it never participates in cache keys or store digests.
    """

    window_rows: int = 8
    block_cols: int = 8
    kernel: str = "accspmm"
    #: hint for the executor: fuse dense RowWindows into single GEMMs
    #: under reassociating tiers (``tf32``/``fast``)
    fused: bool = False
    #: how the verdict was reached: ``"model"`` (cost model only) or
    #: ``"measured"`` (timed on a sampled row-window subset)
    source: str = "model"
    #: the winning candidate's modelled kernel time (seconds); for
    #: ``measured`` verdicts, the measured probe time
    predicted_s: float = 0.0

    def __post_init__(self) -> None:
        _check_shape(self.window_rows, self.block_cols)
        _check_kernel(self.kernel)
        if self.source not in ("model", "measured"):
            raise ValidationError(
                f"tuned source must be 'model' or 'measured'; "
                f"got {self.source!r}"
            )

    @property
    def tile_shape(self) -> tuple[int, int]:
        return (self.window_rows, self.block_cols)

    # ------------------------------------------------------------------
    def as_meta(self) -> dict:
        """A plain JSON-able dict (the plan meta form)."""
        return {
            "window_rows": int(self.window_rows),
            "block_cols": int(self.block_cols),
            "kernel": self.kernel,
            "fused": bool(self.fused),
            "source": self.source,
            "predicted_s": float(self.predicted_s),
        }

    @classmethod
    def from_meta(cls, meta) -> "TunedConfig | None":
        """Inverse of :meth:`as_meta`; tolerant of absence and garbage.

        Returns ``None`` for ``None`` or malformed input — a plan meta
        with a corrupt ``tuned`` field degrades to untuned defaults
        instead of failing the whole load (the tuned config is an
        optimisation, never a correctness dependency).
        """
        if not isinstance(meta, dict):
            return None
        try:
            return cls(
                window_rows=int(meta["window_rows"]),
                block_cols=int(meta["block_cols"]),
                kernel=str(meta["kernel"]),
                fused=bool(meta["fused"]),
                source=str(meta.get("source", "model")),
                predicted_s=float(meta.get("predicted_s", 0.0)),
            )
        except (KeyError, TypeError, ValueError, ValidationError):
            return None
