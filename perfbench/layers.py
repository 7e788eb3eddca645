"""Per-layer metrics, self-checks and claims of a traced run.

A traced run has two fresh-process phases with identical inputs: one
untraced, one with span wrappers.  This module compares their outputs,
checks that every entry point a workload's layers use recorded calls
(a refactor that routes around a wrapper would otherwise read as a
layer getting free), and derives the per-layer metrics of
``catalogue.json`` from the traced phase's spans.
"""

from __future__ import annotations

import os

from common import load_catalogue
from tracing import Span, coverage, layer_metrics, load, self_times, union_length

_REORDER = (
    "repro.reorder.affinity:data_affinity_reorder",
    "repro.reorder.affinity:build_dendrogram",
    "repro.reorder.affinity:generate_ordering",
    "repro.graph.adjacency:adjacency_from_csr",
    "repro.graph.adjacency:contract_by_labels",
)
_BUILD = _REORDER + (
    "repro.formats.tiling:build_tiling",
    "repro.formats.bittcf:BitTCF.from_csr",
    "repro.balance.scheduler:adaptive_schedule",
    "repro.core.planner:plan",
)
_STEADY = (
    "repro.kernels.executor:TCExecPlan.__init__",
    "repro.kernels.executor:TCExecPlan.execute",
    "repro.gpusim.tensorcore:tf32_round",
    "repro.gpusim.tensorcore:batched_tile_mma",
    "repro.serve.fingerprint:fingerprint",
    "repro.serve.engine:SpMMEngine.get_plan",
)

#: entry points that must record calls inside each workload's
#: operations (set-up included; for serve-mixed, inside the server)
EXPECTED_CALLS = {
    "gcn-train": _BUILD + _STEADY,
    "cold-start": _BUILD + _STEADY + (
        "repro.reorder.affinity:row_projection_graph",
        "repro.kernels.executor:TCExecPlan.prepare_for",
        "repro.serve.engine:SpMMEngine.warm_start",
        "repro.serve.store:PlanStore.put",
        "repro.serve.store:PlanStore.entries",
        "repro.serve.serial:plan_to_bytes",
        "repro.serve.serial:unpack_container",
        "repro.serve.serial:plan_from_payload",
    ),
    "serve-mixed": _BUILD + _STEADY + (
        "repro.reorder.affinity:row_projection_graph",
        "repro.formats.tiling:retile_windows",
        "repro.core.planner:AccPlan.apply_delta",
        "repro.serve.engine:SpMMEngine.apply_delta",
        "repro.serve.frames:encode_frame",
        "repro.serve.frames:_decode_header",
        "repro.serve.frames:_decode_body",
        "repro.sparse.delta:GraphDelta.apply_to",
    ),
}

_CLIENT_SPANS = ("serve.frames.encode", "serve.frames.decode", "loadgen.verify")


def _ops_in_windows(spans, windows) -> list[int]:
    """Server operations whose first span started inside a load slice."""
    first: dict[int, float] = {}
    for s in spans:
        if s.op is not None and (s.op not in first or s.start < first[s.op]):
            first[s.op] = s.start
    return [
        op for op, t in first.items() if any(a <= t <= b for a, b in windows)
    ]


def _covered(spans, op_ids) -> float:
    op_ids = set(op_ids)
    by_op: dict[int, list] = {}
    for s in spans:
        if s.op in op_ids:
            by_op.setdefault(s.op, []).append((s.start, s.end))
    return sum(union_length(v) for v in by_op.values())


def _client_self_ms(spans, ops) -> float:
    import numpy as np

    request_ops = {op for op, (kind, _, _) in ops.items() if kind == "request"}
    spans = [s for s in spans if s.op in request_ops]
    selfs = self_times(spans)
    per_op: dict[int, float] = {op: 0.0 for op in request_ops}
    for s in spans:
        if s.name in _CLIENT_SPANS:
            per_op[s.op] += selfs[s.sid] * 1e3
    return float(np.median(list(per_op.values()))) if per_op else 0.0


def _timed_share(spans: list[Span], ops: dict, op_ids, prefix: str) -> float:
    """Self time of ``prefix`` spans over the operations' wall time."""
    op_ids = set(op_ids)
    mine = [s for s in spans if s.op in op_ids]
    selfs = self_times(mine)
    inside = sum(selfs[s.sid] for s in mine if s.name.startswith(prefix))
    total = sum(ops[op][2] - ops[op][1] for op in op_ids)
    return inside / total if total else 0.0


def per_layer_metrics(workload: str, phases: dict, workdir: str):
    """``(metrics, checks, claims)`` of a traced run.

    ``checks`` fail the run; ``claims`` — why the workload exists —
    are printed for the reader and fail nothing, so a change that
    legitimately moves them is not mistaken for a broken benchmark."""
    untraced, traced = phases["untraced"], phases["traced"]
    spans, ops, calls = load(os.path.join(workdir, "spans.json"))
    checks, claims = {}, {}

    if workload == "serve-mixed":
        client_spans, client_ops = spans, ops
        spans, ops, calls = load(traced["server_spans"])
        timed = _ops_in_windows(spans, traced["windows"])
        metrics = layer_metrics(spans, timed)
        attributed = _covered(spans, timed) + _covered(
            [s for s in client_spans if s.name in _CLIENT_SPANS], client_ops
        )
        cov = min(1.0, attributed / traced["round_trip_s"])
        metrics["serve.server.unattributed_share"] = 1.0 - cov
        metrics["loadgen.client_self_ms"] = _client_self_ms(client_spans, client_ops)
    else:
        timed = traced["timed_ops"]
        metrics = layer_metrics(spans, timed)
        cov = coverage(spans, ops, timed)
    metrics.update(traced["counters"])
    metrics["host.scipy_spmm_ms"] = traced["host_ms"]
    metrics["trace.coverage"] = cov
    metrics["trace.overhead_share"] = (
        traced["e2e"]["latency_ms_p50"] / untraced["e2e"]["latency_ms_p50"] - 1.0
    )

    common = set(untraced["digests"]) & set(traced["digests"])
    checks["outputs_bitwise_equal_to_untraced"] = bool(common) and all(
        untraced["digests"][k] == traced["digests"][k] for k in common
    )
    missing = [k for k in EXPECTED_CALLS[workload] if not calls.get(k)]
    checks["entry_points_called"] = not missing
    if missing:
        claims["entry points with zero calls"] = ", ".join(missing)

    reorder_calls = sum(1 for s in spans if s.op in set(timed) and s.name.startswith("reorder."))
    if workload == "cold-start":
        claims["reorder share of latency_ms_p50"] = (
            metrics["reorder.affinity.ms"] / traced["e2e"]["latency_ms_p50"]
        )
    else:
        claims["reorder spans in timed phase"] = reorder_calls
    if workload == "gcn-train":
        claims["kernels share of epoch time"] = _timed_share(spans, ops, timed, "kernels.")

    names = [m for m, spec in load_catalogue().items() if spec["kind"] == "per_layer"]
    return {m: float(metrics.get(m, 0.0)) for m in names}, checks, claims
