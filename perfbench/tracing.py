"""Span tracing installed from the benchmark's own files.

:func:`install` replaces the library's public entry points with timing
wrappers — in the defining module and in every ``repro`` module that
imported the name — so the program itself is unchanged.  A span records
its name, start, end, parent span and operation id; spans stay in memory
and are written out when the workload ends.  Operation and parent ids
live in context variables, so asyncio tasks (and, with
:func:`propagate_context_to_threads`, pool threads) attribute their
spans to the request that caused them.

The pure functions at the bottom turn recorded spans into the per-layer
metrics of ``catalogue.json``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict | None = None


class NullTracer:
    """Tracing off: operations and regions cost nothing."""

    enabled = False

    def op(self, kind: str):
        return contextlib.nullcontext()

    def region(self, name: str):
        return contextlib.nullcontext()


class Recorder:
    """In-memory span and operation store for one process.

    ``list.append`` and ``next`` on a counter are atomic under the
    interpreter lock, so pool threads may record concurrently.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: op id -> [kind, start, end]
        self.ops: dict[int, list] = {}
        #: entry-point key -> calls made inside operations (set-up included)
        self.calls: dict[str, int] = {}
        self._ids = itertools.count(1)

    # -- operations ----------------------------------------------------
    @contextlib.contextmanager
    def op(self, kind: str):
        """Everything inside belongs to one new operation."""
        op = next(self._ids)
        token = _OP.set(op)
        start = time.perf_counter()
        try:
            yield op
        finally:
            self.ops[op] = [kind, start, time.perf_counter()]
            _OP.reset(token)

    def begin_op(self, kind: str) -> int:
        """Start an operation that runs until the next one in this
        context (the server's per-request boundary: a frame read)."""
        op = next(self._ids)
        self.ops[op] = [kind, time.perf_counter(), None]
        _OP.set(op)
        return op

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, _OP.get()))

    # -- wrappers ------------------------------------------------------
    def wrap(self, key: str, name: str, fn, before=None, after=None):
        """A timing wrapper around ``fn``.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``after(args, kwargs, result, state)``, which returns
        ``(name or None, attrs or None)`` — a span may be renamed from
        what the call did (the resolve outcome)."""
        spans = self.spans
        calls = self.calls
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _OP.get() is not None:  # the harness's own checks don't count
                calls[key] = calls.get(key, 0) + 1
            sid = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            state = before(args, kwargs) if before is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                _PARENT.reset(token)
                spans.append(Span(sid, name, start, end, parent, _OP.get()))
                raise
            end = time.perf_counter()
            _PARENT.reset(token)
            span_name, attrs = name, None
            if after is not None:
                renamed, attrs = after(args, kwargs, result, state)
                span_name = renamed or name
            spans.append(Span(sid, span_name, start, end, parent, _OP.get(), attrs))
            return result

        return wrapper

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "spans": [
                [s.sid, s.name, s.start, s.end, s.parent, s.op, s.attrs]
                for s in self.spans
            ],
            "ops": {str(k): v for k, v in self.ops.items()},
            "calls": dict(self.calls),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def load(path: str) -> tuple[list[Span], dict, dict]:
    """Spans, ops and call counts written by :meth:`Recorder.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    spans = [Span(*row) for row in data["spans"]]
    ops = {int(k): v for k, v in data["ops"].items()}
    return spans, ops, data["calls"]


# ----------------------------------------------------------------------
# hooks: what a span records beyond its interval
# ----------------------------------------------------------------------
def _merges(args, kwargs, result, state):
    return None, {"merges": int(result.meta.get("n_merges", 0))}


def _n_tbs(args, kwargs, result, state):
    return None, {"n_tbs": int(result.n_tbs)}


def _nbytes(args, kwargs, result, state):
    return None, {"bytes": len(result)}


def _decoded_bytes(args, kwargs, result, state):
    return None, {"bytes": int(sum(a.nbytes for a in result.values()))}


_RESOLVE_COUNTERS = ("plans_built", "store_hits", "value_refreshes", "hits")
_RESOLVE_NAMES = {
    "plans_built": "serve.resolve.build",
    "store_hits": "serve.resolve.store",
    "value_refreshes": "serve.resolve.refresh",
    "hits": "serve.resolve.hit",
}


def _resolve_before(args, kwargs):
    stats = args[0].cache.stats
    return [getattr(stats, c) for c in _RESOLVE_COUNTERS]


def _resolve_after(args, kwargs, result, state):
    """The resolve outcome, read from the engine's counters around the
    call (a build outranks a store load, a refresh and a hit)."""
    stats = args[0].cache.stats
    for counter, seen in zip(_RESOLVE_COUNTERS, state):
        if getattr(stats, counter) > seen:
            return _RESOLVE_NAMES[counter], None
    return "serve.resolve.hit", None


def _execute_before(args, kwargs):
    return args[0].stats.prep_misses


def _execute_after(args, kwargs, result, state):
    """Work of one executor call: flops from the tiling, bytes computed
    from array sizes, chunk programs run by strategy."""
    ex, B = args[0], args[1]
    t = ex.tiling
    n = int(B.shape[-1])
    batch = int(B.shape[0]) if B.ndim == 3 else 1
    slots = int(t.n_blocks) * int(t.window_rows) * int(t.block_cols)
    tiles = ex.tiles_all.nbytes if ex.tiles_all is not None else (
        ex.vals_rounded.nbytes + ex.scatter_flat.nbytes
    )
    attrs = {
        "n_blocks": int(t.n_blocks),
        "nnz": int(t.nnz),
        "slots": slots,
        "useful_flop": 2.0 * t.nnz * n * batch,
        "issued_flop": 2.0 * slots * n * batch,
        "bytes": float(B.nbytes + result.nbytes + tiles + ex.pos_all.nbytes),
        "prep_misses": int(ex.stats.prep_misses - state),
    }
    if t.n_blocks:
        programs = getattr(ex, "_programs", {})
        prog = programs.get(ex._blocks_per_chunk(n), ())
        for cp in prog:
            key = f"chunks.{cp.strategy}"
            attrs[key] = attrs.get(key, 0) + batch
    return None, attrs


#: (module:qualname, span name, before, after) — every public entry point
#: the traced run times.  The stream decoders are the private halves of
#: ``decode_frame``: the server and client read frames from sockets
#: through them and never call ``decode_frame`` itself.
ENTRY_POINTS = (
    ("repro.reorder.affinity:data_affinity_reorder", "reorder.affinity", None, _merges),
    ("repro.reorder.affinity:build_dendrogram", "reorder.dendrogram", None, None),
    ("repro.reorder.affinity:generate_ordering", "reorder.ordering", None, None),
    ("repro.graph.adjacency:adjacency_from_csr", "graph.adjacency", None, None),
    ("repro.reorder.affinity:row_projection_graph", "graph.adjacency", None, None),
    ("repro.graph.adjacency:contract_by_labels", "graph.contract", None, None),
    ("repro.formats.tiling:build_tiling", "formats.tiling", None, None),
    ("repro.formats.bittcf:BitTCF.from_csr", "formats.bittcf", None, None),
    ("repro.formats.tiling:retile_windows", "formats.retile", None, None),
    ("repro.balance.scheduler:adaptive_schedule", "balance.schedule", None, _n_tbs),
    ("repro.core.planner:plan", "core.plan", None, None),
    ("repro.core.planner:AccPlan.apply_delta", "core.apply_delta", None, None),
    ("repro.kernels.executor:TCExecPlan.__init__", "kernels.compile", None, None),
    ("repro.kernels.executor:TCExecPlan.prepare_for", "kernels.compile", None, None),
    ("repro.kernels.executor:TCExecPlan.execute", "kernels.execute",
     _execute_before, _execute_after),
    ("repro.gpusim.tensorcore:tf32_round", "kernels.round", None, None),
    ("repro.gpusim.tensorcore:batched_tile_mma", "kernels.mma", None, None),
    ("repro.serve.fingerprint:fingerprint", "serve.fingerprint", None, None),
    ("repro.serve.engine:SpMMEngine.get_plan", "serve.resolve",
     _resolve_before, _resolve_after),
    ("repro.serve.engine:SpMMEngine.apply_delta", "serve.resolve.delta", None, None),
    ("repro.serve.engine:SpMMEngine.warm_start", "serve.warm_start", None, None),
    ("repro.serve.store:PlanStore.put", "serve.store.put", None, None),
    ("repro.serve.store:PlanStore.entries", "serve.store.entries", None, None),
    ("repro.serve.serial:plan_to_bytes", "serve.serial.to_bytes", None, _nbytes),
    ("repro.serve.serial:unpack_container", "serve.serial.unpack", None, None),
    ("repro.serve.serial:plan_from_payload", "serve.serial.from_payload", None, None),
    ("repro.serve.frames:encode_frame", "serve.frames.encode", None, _nbytes),
    ("repro.serve.frames:_decode_header", "serve.frames.decode", None, None),
    ("repro.serve.frames:_decode_body", "serve.frames.decode", None, _decoded_bytes),
    ("repro.sparse.delta:GraphDelta.apply_to", "sparse.delta_apply", None, None),
)

#: client-side subset wrapped in the serve-mixed load generator
CLIENT_ENTRY_POINTS = tuple(
    e for e in ENTRY_POINTS if e[0].startswith("repro.serve.frames:")
)

#: modules whose by-name imports must exist before the scan
_PRELOAD = (
    "repro",
    "repro.backend.cpu",
    "repro.kernels.accspmm",
    "repro.kernels.tc_common",
    "repro.serve.sharded",
    "repro.serve.store",
    "repro.serve.server",
)


def install(recorder: Recorder, entry_points=ENTRY_POINTS) -> None:
    """Wrap every entry point.

    A function is replaced in its defining module and wherever a
    ``repro`` module bound the same object (``from x import f`` and
    aliases such as ``plan as build_plan``); a method is replaced on its
    class.
    """
    for name in _PRELOAD:
        importlib.import_module(name)
    for key, span_name, before, after in entry_points:
        modname, qual = key.split(":")
        mod = importlib.import_module(modname)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    recorder.wrap(key, span_name, raw.__func__, before, after)
                )
            else:
                wrapped = recorder.wrap(key, span_name, raw, before, after)
            setattr(cls, attr, wrapped)
            continue
        fn = getattr(mod, qual)
        wrapped = recorder.wrap(key, span_name, fn, before, after)
        for m in list(sys.modules.values()):
            if not getattr(m, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)


def propagate_context_to_threads() -> None:
    """Run thread-pool work in a copy of the submitter's context, so a
    request's operation id and parent span follow it into the pool."""
    from concurrent.futures import ThreadPoolExecutor

    original = ThreadPoolExecutor.submit

    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by possibly-overlapping ``(start, end)``s."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals
    (clipped to the span, so children that overlap each other or
    outlive their parent are not counted twice)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
        ]
        out[s.sid] = (s.end - s.start) - union_length(kids)
    return out


def has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent)
    return False


def _median_or_zero(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


#: per-layer self-time metrics: metric -> span name
SELF_MS = {
    "reorder.dendrogram.self_ms": "reorder.dendrogram",
    "reorder.ordering.self_ms": "reorder.ordering",
    "graph.adjacency.self_ms": "graph.adjacency",
    "graph.contract.self_ms": "graph.contract",
    "formats.tiling.self_ms": "formats.tiling",
    "formats.bittcf.self_ms": "formats.bittcf",
    "formats.retile.self_ms": "formats.retile",
    "balance.schedule.self_ms": "balance.schedule",
    "core.plan.self_ms": "core.plan",
    "core.apply_delta.self_ms": "core.apply_delta",
    "kernels.execute.self_ms": "kernels.execute",
    "kernels.mma.self_ms": "kernels.mma",
    "kernels.compile.self_ms": "kernels.compile",
    "sparse.delta_apply.self_ms": "sparse.delta_apply",
    "serve.fingerprint.self_ms": "serve.fingerprint",
    "serve.resolve.hit.self_ms": "serve.resolve.hit",
    "serve.resolve.refresh.self_ms": "serve.resolve.refresh",
    "serve.resolve.build.self_ms": "serve.resolve.build",
    "serve.resolve.delta.self_ms": "serve.resolve.delta",
    "serve.store.put.self_ms": "serve.store.put",
    "serve.serial.to_bytes.self_ms": "serve.serial.to_bytes",
    "serve.store.entries.self_ms": "serve.store.entries",
    "serve.serial.unpack.self_ms": "serve.serial.unpack",
    "serve.serial.from_payload.self_ms": "serve.serial.from_payload",
    "serve.frames.encode.self_ms": "serve.frames.encode",
    "serve.frames.decode.self_ms": "serve.frames.decode",
    "gcn.dense.self_ms": "gcn.dense",
}

#: chunk strategies of the executor
STRATEGIES = ("stepped", "fused", "direct", "reduceat")


def layer_metrics(spans, op_ids) -> dict:
    """Per-layer metrics over the operations ``op_ids``.

    Times are per-operation sums, reported as the median over the
    operations in which the layer ran (0 where it never ran); work
    counts follow the rules in ``catalogue.json``.
    """
    op_ids = set(op_ids)
    spans = [s for s in spans if s.op in op_ids]
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    per_op: dict[str, dict[int, float]] = {}

    def add(metric: str, op: int, value: float) -> None:
        d = per_op.setdefault(metric, {})
        d[op] = d.get(op, 0.0) + value

    merges, n_tbs, n_blocks = [], [], []
    nnz = slots = prep_misses = 0
    for s in spans:
        ms = selfs[s.sid] * 1e3
        add(s.name, s.op, ms)
        a = s.attrs or {}
        if s.name == "reorder.affinity":
            add("reorder.affinity.ms", s.op, (s.end - s.start) * 1e3)
            merges.append(a["merges"])
        elif s.name == "balance.schedule":
            n_tbs.append(a["n_tbs"])
        elif s.name == "kernels.round" and has_ancestor(s, "kernels.execute", by_id):
            add("kernels.round.self_ms", s.op, ms)
        elif s.name == "kernels.execute":
            n_blocks.append(a["n_blocks"])
            nnz += a["nnz"]
            slots += a["slots"]
            prep_misses += a["prep_misses"]
            add("kernels.useful_gflop", s.op, a["useful_flop"] / 1e9)
            add("kernels.issued_gflop", s.op, a["issued_flop"] / 1e9)
            add("kernels.bytes_mb", s.op, a["bytes"] / 1e6)
            for strat in STRATEGIES:
                add(f"kernels.chunks.{strat}", s.op, a.get(f"chunks.{strat}", 0))
        elif s.name == "serve.fingerprint":
            add("serve.fingerprint.calls", s.op, 1)
        elif s.name == "serve.serial.to_bytes":
            add("serve.store.put_mb", s.op, a["bytes"] / 1e6)
        elif s.name in ("serve.frames.encode", "serve.frames.decode") and "bytes" in a:
            add("serve.frames.mb", s.op, a["bytes"] / 1e6)

    def med(metric: str) -> float:
        return _median_or_zero(list(per_op.get(metric, {}).values()))

    out = {m: med(span_name) for m, span_name in SELF_MS.items()}
    for m in (
        "reorder.affinity.ms",
        "kernels.round.self_ms",
        "kernels.useful_gflop",
        "kernels.issued_gflop",
        "kernels.bytes_mb",
        "serve.fingerprint.calls",
        "serve.store.put_mb",
        "serve.frames.mb",
    ):
        out[m] = med(m)
    # strategies mix within a workload (a few fused chunks among many
    # stepped ones), so chunk counts are means: a median would read 0
    for strat in STRATEGIES:
        chunks = list(per_op.get(f"kernels.chunks.{strat}", {}).values())
        out[f"kernels.chunks.{strat}"] = float(np.mean(chunks)) if chunks else 0.0
    out["reorder.merges"] = _median_or_zero(merges)
    out["balance.n_tbs"] = _median_or_zero(n_tbs)
    out["formats.n_blocks"] = _median_or_zero(n_blocks)
    out["formats.tile_fill"] = nnz / slots if slots else 0.0
    out["kernels.prep_misses"] = float(prep_misses)
    return out


def coverage(spans, ops: dict, op_ids) -> float:
    """Share of the operations' wall time inside at least one span."""
    by_op: dict[int, list] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    covered = total = 0.0
    for op in op_ids:
        _, start, end = ops[op]
        total += end - start
        covered += union_length(
            (max(s.start, start), min(s.end, end)) for s in by_op.get(op, ())
        )
    return covered / total if total else 0.0
