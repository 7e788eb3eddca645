"""The per-matrix autotuner: pick tile shape, kernel, and strategy.

Planning bakes in three per-matrix choices — tile geometry, which
tensor-core kernel, and whether the executor's fused dense-window GEMM
strategy is worth enabling under reassociating numerics tiers.  The
autotuner makes them from two cheap signals:

* **sparsity statistics** (:func:`repro.sparse.stats.matrix_stats`)
  prune candidates that cannot win — e.g. the dense-tile TCF format on
  very sparse matrices, whose 64-words-per-block traffic dwarfs any
  scheduling benefit;
* **the gpusim cost model** (:func:`~repro.kernels.tc_common.
  simulate_tc`) ranks the survivors on *probe plans*: the real tiling of
  each candidate geometry with identity ordering and the candidate
  kernel's byte/pipeline declaration.  Probes skip the expensive
  reorderings — relative ranking across geometries and formats is what
  matters, and the ordering applies roughly equally to all candidates.

``measure=True`` additionally times the model's top few candidates on a
row-window *sample* of the matrix (evenly strided windows, so skewed
regions are represented) and lets the measurement override the model.
Timing happens through the module-level ``_timer`` binding
(``time.perf_counter``); :mod:`repro.tune` is deliberately outside the
REP201 determinism-audited paths — the tuned *verdict* is recorded in
the plan and serialised, the timings themselves never are.

The verdict is a :class:`~repro.tune.space.TunedConfig`; hand it to
:func:`repro.core.planner.plan` (``tuned=``) or let
``SpMMEngine(autotune=True)`` apply it on cache-miss builds.  Tuning is
a one-time cost: the config rides in the plan meta of the plan file, so
a :class:`~repro.serve.store.PlanStore` hit restores it without
re-tuning.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ValidationError
from repro.gpusim.pipeline import PipelineMode
from repro.gpusim.specs import DeviceSpec, get_device
from repro.tune.space import TuneCandidate, TunedConfig, candidate_configs

#: Injectable timer behind ``measure=True`` (tests monkeypatch it); the
#: one legitimate wall-clock read in the tuning path.
_timer = time.perf_counter

#: ``avg_l`` (mean nonzeros per row) below which the dense-tile TCF
#: format (tcgnn) is pruned without simulation: its per-block traffic is
#: a constant 64 words, so on very sparse matrices it loses on bytes
#: alone before any pipeline effect.
TCGNN_MIN_AVG_NNZ = 8.0

#: How many model-ranked candidates the measured mode times.
MEASURE_TOP_K = 3


def prune_candidates(stats, candidates) -> tuple[TuneCandidate, ...]:
    """Drop candidates the sparsity statistics rule out.

    Currently one rule (see :data:`TCGNN_MIN_AVG_NNZ`); the pruned set
    is never empty — if every candidate would be dropped, the original
    set is returned and the cost model decides.
    """
    kept = tuple(
        c
        for c in candidates
        if not (c.kernel == "tcgnn" and stats.avg_l < TCGNN_MIN_AVG_NNZ)
    )
    return kept if kept else tuple(candidates)


# ----------------------------------------------------------------------
#: kernel -> (bytes-per-block model name, pipeline mode, cache-policy
#: control) — the declarative differences simulate_tc prices
_KERNEL_TRAITS = {
    "accspmm": ("bittcf", PipelineMode.ACC, True),
    "dtc": ("metcf", PipelineMode.DTC, False),
    "tcgnn": ("tcf", PipelineMode.SYNCHRONOUS, False),
}


def _probe_plan(csr, tiling, cand: TuneCandidate):
    """A minimal :class:`~repro.kernels.tc_common.TCPlan` for ranking.

    Identity ordering, RowWindow-per-TB schedule, the candidate
    kernel's byte model and pipeline: everything the cost model prices,
    nothing planning-grade (no reorderings, no balancing)."""
    from repro.balance.scheduler import row_window_schedule
    from repro.kernels.tc_common import (
        TCPlan,
        bittcf_bytes_per_block,
        metcf_bytes_per_block,
        tcf_bytes_per_block,
    )
    from repro.reorder.degree import identity_reorder

    byte_model, pipeline, cache_ctl = _KERNEL_TRAITS[cand.kernel]
    bytes_a = {
        "bittcf": bittcf_bytes_per_block,
        "metcf": metcf_bytes_per_block,
        "tcf": tcf_bytes_per_block,
    }[byte_model](tiling)
    vals = np.ascontiguousarray(
        csr.vals[tiling.perm_nnz], dtype=np.float32
    )
    return TCPlan(
        name=f"tune-{cand.kernel}",
        csr_reordered=csr,
        tiling=tiling,
        vals_packed=vals,
        schedule=row_window_schedule(tiling),
        reorder=identity_reorder(csr),
        bytes_a_per_block=bytes_a,
        pipeline_mode=pipeline,
        cache_policy_control=cache_ctl,
        n_rows_original=csr.n_rows,
    )


def _sample_rows(csr, window_rows: int, sample_windows: int):
    """Evenly strided row-window sample (or the whole matrix when it is
    already small enough); ``None`` means "no sampling needed"."""
    n_windows = -(-csr.n_rows // window_rows)
    if n_windows <= sample_windows:
        return None
    picks = np.unique(
        np.linspace(0, n_windows - 1, sample_windows).astype(np.int64)
    )
    rows = (
        picks[:, None] * window_rows
        + np.arange(window_rows, dtype=np.int64)
    ).ravel()
    return rows[rows < csr.n_rows]


def _measure_candidate(csr, cand: TuneCandidate, feature_dim: int,
                       sample_windows: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one multiply on a row sample."""
    from repro.formats.tiling import build_tiling
    from repro.kernels.executor import get_executor
    from repro.sparse.ops import take_rows

    rows = _sample_rows(csr, cand.window_rows, sample_windows)
    probe_csr = csr if rows is None else take_rows(csr, rows)
    tiling = build_tiling(
        probe_csr, window_rows=cand.window_rows, block_cols=cand.block_cols
    )
    probe = _probe_plan(probe_csr, tiling, cand)
    n = min(int(feature_dim), 64) or 1
    B = np.ones((probe_csr.n_cols, n), dtype=np.float32)
    ex = get_executor(probe)
    ex.execute(B)  # warm: compile the chunk program outside the timing
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = _timer()
        ex.execute(B)
        best = min(best, _timer() - t0)
    return best


# ----------------------------------------------------------------------
def autotune(
    csr,
    feature_dim: int = 128,
    device: DeviceSpec | str = "a800",
    candidates=None,
    kernels=None,
    measure: bool = False,
    sample_windows: int = 64,
    repeats: int = 3,
) -> TunedConfig:
    """Pick the best (tile shape, kernel, strategy) for one matrix.

    Parameters
    ----------
    candidates:
        Explicit :class:`~repro.tune.space.TuneCandidate` iterable;
        default is the full tile-shape sweep crossed with ``kernels``.
    kernels:
        Kernel names for the default candidate set (default: all of
        :data:`~repro.tune.space.KERNELS`); ignored when ``candidates``
        is given.
    measure:
        Also *time* the model's top :data:`MEASURE_TOP_K` candidates on
        an evenly strided row-window sample and let the measurement pick
        the winner (``source="measured"``).
    sample_windows, repeats:
        Measured-mode knobs: sample size (in windows of the candidate's
        geometry) and best-of repetition count.

    Returns the winning :class:`~repro.tune.space.TunedConfig`, its
    ``fused`` hint set from the winning tiling's ``MeanNNZTC`` against
    the executor's fusion threshold.
    """
    from repro.formats.tiling import build_tiling
    from repro.kernels.executor import FUSED_DENSITY_THRESHOLD
    from repro.kernels.tc_common import simulate_tc
    from repro.sparse.stats import matrix_stats

    if csr.n_rows == 0 or csr.n_cols == 0:
        raise ValidationError(
            f"cannot tune a zero-dimension matrix (shape {csr.shape})"
        )
    spec = get_device(device)
    if candidates is None:
        from repro.tune.space import KERNELS

        candidates = candidate_configs(
            kernels=KERNELS if kernels is None else tuple(kernels)
        )
    else:
        candidates = tuple(candidates)
    if not candidates:
        raise ValidationError("autotune needs at least one candidate")

    if csr.nnz == 0:
        return TunedConfig()  # nothing to rank; every candidate is free

    candidates = prune_candidates(matrix_stats(csr), candidates)

    # one tiling per geometry, shared by every kernel candidate
    tilings: dict[tuple[int, int], object] = {}
    ranked = []
    for cand in candidates:
        tiling = tilings.get(cand.tile_shape)
        if tiling is None:
            tiling = tilings[cand.tile_shape] = build_tiling(
                csr,
                window_rows=cand.window_rows,
                block_cols=cand.block_cols,
            )
        probe = _probe_plan(csr, tiling, cand)
        ranked.append((simulate_tc(probe, feature_dim, spec).time_s, cand))
    ranked.sort(key=lambda pair: pair[0])

    score, winner = ranked[0]
    source = "model"
    if measure and len(ranked) > 1:
        timed = [
            (
                _measure_candidate(
                    csr, cand, feature_dim, sample_windows, repeats
                ),
                cand,
            )
            for _, cand in ranked[:MEASURE_TOP_K]
        ]
        timed.sort(key=lambda pair: pair[0])
        score, winner = timed[0]
        source = "measured"

    win_tiling = tilings[winner.tile_shape]
    return TunedConfig(
        window_rows=winner.window_rows,
        block_cols=winner.block_cols,
        kernel=winner.kernel,
        fused=win_tiling.mean_nnz_per_block() >= FUSED_DENSITY_THRESHOLD,
        source=source,
        predicted_s=float(score),
    )
