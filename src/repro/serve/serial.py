"""Versioned binary serialisation of plans — the persistence format.

The expensive artifact of the Acc-SpMM pipeline is the *plan* (reorder →
BitTCF → TB schedule).  This module makes it a durable, cross-process
artifact: :func:`plan_to_bytes` / :func:`plan_from_bytes` round-trip an
:class:`~repro.core.planner.AccPlan` bit-for-bit, and
:class:`~repro.serve.store.PlanStore` writes the same bytes to disk, one
file per fingerprint.

Container head (little-endian), then the header JSON and array data of
a :mod:`repro.serve.container`, where the layout is described::

    offset 0   magic           8 bytes   b"ACCSPMM\\0"
    offset 8   format version  u32       PLAN_FORMAT_VERSION
    offset 12  header length   u64       JSON byte count
    offset 20  header JSON, zero padding to a 64-byte boundary, the data

A reader takes every array out of one buffer with ``np.frombuffer``: an
in-memory blob, or one read-only ``mmap`` of the whole backing file.
The latter is how the store loads entries: one mapping and one file
descriptor per plan, and every worker process shares the same physical
pages of a hot plan (the page-cache behaviour of
``np.load(..., mmap_mode="r")``, for a multi-array file).

Versioning policy: :data:`PLAN_FORMAT_VERSION` is bumped whenever the
payload schema changes.  Readers accept the closed range
[:data:`MIN_PLAN_FORMAT_VERSION`, :data:`PLAN_FORMAT_VERSION`], currently
4..4, and reject everything else with
:class:`~repro.errors.StoreVersionError`, naming both the found and the
supported versions (the store quarantines such entries, and the
``.reason`` sidecar carries that message — replanning is always safe,
migration never attempted).  A header that lacks the ``saved_at``
timestamp (v2) or the ``tuned`` block (v3) still loads, falling back to
the file's mtime and the plan meta's copy of the verdict.  The ``exec``
header block and ``exec.*`` arrays that older writers added (a copy of
the executor's gather geometry) are ignored: the reader derives that
geometry from the tiling, whose indices it checks on decode.
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from dataclasses import asdict

import numpy as np

from repro.core.config import AccConfig
from repro.core.planner import AccPlan, kernel_for_config
from repro.errors import FormatError, StoreError, StoreVersionError
from repro.formats.tiling import RowWindowTiling
from repro.balance.scheduler import TBAssignment
from repro.gpusim.pipeline import PipelineMode
from repro.gpusim.specs import get_device
from repro.kernels.tc_common import TCPlan
from repro.reorder.base import Permutation, ReorderResult
from repro.serve import container
from repro.serve.fingerprint import config_fingerprint
from repro.sparse.csr import CSRMatrix
from repro.tune.space import TunedConfig

#: Bump on any change to the container or payload schema.  Writers emit
#: this version; v2 added the ``saved_at`` wall-clock header field that
#: feeds the store's TTL/staleness policy; v3 added the ``tuned`` header
#: block recording the autotuner's verdict (kernel, tile shape, fused
#: hint) so a warm-started worker rebuilds the exact tuned kernel; v4
#: added an ``accdelta`` container kind for delta-chain links.  The
#: store no longer writes or reads that kind: it keeps every plan whole
#: as an ``accplan`` and quarantines an ``accdelta`` left by an older
#: store, so ``accplan`` bytes are unchanged and v4 stays current.
PLAN_FORMAT_VERSION = 4

#: Oldest version this build still reads.  Versions in
#: [MIN_PLAN_FORMAT_VERSION, PLAN_FORMAT_VERSION] load; anything else is
#: rejected and quarantined.
MIN_PLAN_FORMAT_VERSION = 4

MAGIC = b"ACCSPMM\x00"
_HEAD = struct.Struct("<8sIQ")  # magic, version, header-json length

#: The injectable wall clock behind the v2 ``saved_at`` header field —
#: the one legitimate wall-clock read in this module.  Bound once so
#: determinism audits and tests can monkeypatch it; production code must
#: call the binding, never ``time.time()`` directly (REP201).
_wall_clock = time.time

#: What a malformed-but-well-formed-JSON payload can legitimately raise
#: while being decoded into plan objects: missing/mistyped keys, wrong
#: nesting, out-of-range numbers.  Decode paths translate exactly these
#: into :class:`StoreError` (so the store quarantines the entry) and let
#: everything else — ``MemoryError``, ``KeyboardInterrupt``, internal
#: invariant breaks — propagate: a resource failure must not be
#: laundered into "corrupt entry" and silently quarantined.
#: ``ValueError`` covers :class:`~repro.errors.ValidationError` and
#: ``UnicodeDecodeError`` via subclassing; ``FormatError`` is a broken
#: CSR structure (a decreasing ``indptr``).
_DECODE_ERRORS = (
    FormatError,
    KeyError,
    IndexError,
    AttributeError,
    TypeError,
    ValueError,
    OverflowError,
)


# ----------------------------------------------------------------------
# container primitives
# ----------------------------------------------------------------------
def pack_container(kind: str, meta: dict, arrays: dict) -> bytes:
    """One plan-file container: this module's head, then the
    :func:`repro.serve.container.pack` layout padded to 64 bytes."""
    return bytes(container.pack(
        kind, meta, arrays,
        lambda hlen, _: _HEAD.pack(MAGIC, PLAN_FORMAT_VERSION, hlen),
        StoreError, pad=True,
    ))


def read_header(data: bytes) -> tuple[dict, int]:
    """Parse and validate a container prefix -> ``(header, data_start)``.

    ``data`` needs to hold at least the fixed head and the JSON header;
    raises :class:`StoreError` / :class:`StoreVersionError` on anything
    malformed.
    """
    if len(data) < _HEAD.size:
        raise StoreError("container truncated before the fixed header")
    magic, version, hlen = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise StoreError(f"bad magic {magic!r}; not a serialised plan")
    if not MIN_PLAN_FORMAT_VERSION <= version <= PLAN_FORMAT_VERSION:
        raise StoreVersionError(
            f"found plan format version {version}, expected "
            f"{MIN_PLAN_FORMAT_VERSION}..{PLAN_FORMAT_VERSION}"
        )
    if len(data) < _HEAD.size + hlen:
        raise StoreError("container truncated inside the JSON header")
    header = container.parse_header(
        data[_HEAD.size : _HEAD.size + hlen], StoreError
    )
    # surface the container's own version to callers (the packed header
    # JSON never carries this key — it lives in the fixed binary head)
    header["format_version"] = version
    return header, container.align(_HEAD.size + hlen)


def read_header_from_file(path) -> dict:
    """Read and validate a container's header from a file, without
    reading or mapping its payload: the store's header-only scans.  A
    corrupt header length asks for at most the file's size."""
    with open(path, "rb") as fh:
        prefix = fh.read(_HEAD.size)
        if len(prefix) == _HEAD.size:
            hlen = _HEAD.unpack(prefix)[2]
            prefix += fh.read(min(hlen, os.fstat(fh.fileno()).st_size))
    return read_header(prefix)[0]


def _map_file(path):
    """The whole file at ``path``, mapped read-only once.

    The map keeps its own duplicate of the descriptor, so the file is
    closed here and the mapping lives exactly as long as the arrays
    viewing it.  ``mmap`` refuses an empty file, which is returned as
    empty bytes for :func:`read_header` to reject like any truncation.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def unpack_container(data: bytes | None = None, path=None) -> tuple[dict, dict]:
    """Open a container -> ``(header, arrays)``.

    Pass ``data`` for an in-memory blob or ``path`` for a file, which is
    mapped read-only once (:func:`_map_file`).  Either way the arrays
    are read-only views into that one buffer: a loaded plan holds one
    mapping and one descriptor, and concurrent workers share its pages.
    """
    if data is None:
        data = _map_file(path)
    header, data_start = read_header(data)
    table = container.check_table(
        header["arrays"], len(data) - data_start, StoreError
    )
    return header, container.materialise(table, data, data_start)


# ----------------------------------------------------------------------
# TCPlan payload (shared by all three tensor-core kernels)
# ----------------------------------------------------------------------
def _int(value) -> int:
    if not container.is_int(value):
        raise StoreError(f"expected an integer, got {value!r}")
    return value


def tcplan_payload(tc: TCPlan, csr: CSRMatrix | None = None) -> tuple[dict, dict]:
    """``(meta, arrays)`` capturing one :class:`TCPlan` (plus optionally
    the original CSR, shared with the AccPlan wrapper).

    The reordered matrix is stored only when it is a distinct object from
    the original (identity reorderings alias it), and a column
    permutation only when distinct from the row permutation (bilateral
    orderings alias them) — aliasing is restored on load.
    """
    arrays: dict = {}
    meta: dict = {
        "name": tc.name,
        "pipeline_mode": tc.pipeline_mode.name,
        "cache_policy_control": bool(tc.cache_policy_control),
        "n_rows_original": int(tc.n_rows_original),
        "meta": container.jsonable(tc.meta),
    }
    if csr is not None:
        meta["csr"], csr_arrays = container.csr_to_payload(csr, "csr")
        arrays.update(csr_arrays)
    shared = csr is not None and tc.csr_reordered is csr
    meta["csr_r_shared"] = shared
    if not shared:
        meta["csr_r"], csr_arrays = container.csr_to_payload(
            tc.csr_reordered, "csr_r"
        )
        arrays.update(csr_arrays)
    t = tc.tiling
    meta["tiling"] = {
        "n_rows": t.n_rows,
        "n_cols": t.n_cols,
        "window_rows": t.window_rows,
        "block_cols": t.block_cols,
    }
    for name in RowWindowTiling.ARRAY_FIELDS:
        arrays[f"tiling.{name}"] = getattr(t, name)
    arrays["vals_packed"] = tc.vals_packed
    arrays["bytes_a_per_block"] = tc.bytes_a_per_block
    s = tc.schedule
    meta["schedule"] = {"balanced": bool(s.balanced), "strategy": s.strategy}
    arrays["schedule.tb_start"] = s.tb_start
    arrays["schedule.tb_end"] = s.tb_end
    arrays["schedule.segments_per_tb"] = s.segments_per_tb
    r = tc.reorder
    col_is_row = r.col_perm is not None and r.col_perm is r.row_perm
    meta["reorder"] = {
        "name": r.name,
        "meta": container.jsonable(r.meta),
        "col_is_row": col_is_row,
        "has_col": r.col_perm is not None,
    }
    arrays["reorder.row_order"] = r.row_perm.order
    if r.col_perm is not None and not col_is_row:
        arrays["reorder.col_order"] = r.col_perm.order
    return meta, arrays


def tcplan_from_payload(
    meta: dict, arrays: dict, csr: CSRMatrix | None = None
) -> TCPlan:
    """Rebuild a :class:`TCPlan` from :func:`tcplan_payload` output."""
    try:
        if csr is None and "csr" in meta:
            csr = container.payload_to_csr(
                meta["csr"], arrays, "csr", StoreError
            )
        csr_r = csr if meta["csr_r_shared"] else container.payload_to_csr(
            meta["csr_r"], arrays, "csr_r", StoreError
        )
        tm = meta["tiling"]
        tiling_arrays = {
            name: np.asarray(arrays[f"tiling.{name}"])
            for name in RowWindowTiling.ARRAY_FIELDS
        }
        # the executor indexes with all of them: a float array of
        # integral values would load, then fail on every multiply
        for name, arr in tiling_arrays.items():
            if arr.dtype.kind not in "iu":
                raise StoreError(f"tiling.{name} is not an integer array")
        tiling = RowWindowTiling(
            n_rows=_int(tm["n_rows"]),
            n_cols=_int(tm["n_cols"]),
            window_rows=_int(tm["window_rows"]),
            block_cols=_int(tm["block_cols"]),
            **tiling_arrays,
        )
        schedule = TBAssignment(
            tb_start=np.asarray(arrays["schedule.tb_start"]),
            tb_end=np.asarray(arrays["schedule.tb_end"]),
            segments_per_tb=np.asarray(arrays["schedule.segments_per_tb"]),
            balanced=bool(meta["schedule"]["balanced"]),
            strategy=str(meta["schedule"]["strategy"]),
        )
        schedule.validate_against(tiling)
        rm = meta["reorder"]
        row_perm = Permutation.from_order(arrays["reorder.row_order"])
        # the executor gathers B at these slots and takes its output rows
        # through the row order's ranks with mode="clip", which clamps a
        # bad index instead of raising: refuse them here
        slots = tiling.sparse_a_to_b
        if slots.shape != (tiling.n_blocks * tiling.block_cols,):
            raise StoreError("tiling.sparse_a_to_b has the wrong length")
        if slots.size and not -1 <= slots.min() <= slots.max() < tiling.n_cols:
            raise StoreError("tiling.sparse_a_to_b holds an out-of-range column")
        n_rows_original = _int(meta["n_rows_original"])
        if row_perm.n != tiling.n_rows or n_rows_original > tiling.n_rows:
            raise StoreError("the row order does not fit the tiling's rows")
        # every kernel sets it to the original matrix's row count; the
        # output keeps that many rows of the row order's ranks
        if n_rows_original < 0 or (
            csr is not None and n_rows_original != csr.n_rows
        ):
            raise StoreError("n_rows_original does not fit the matrix")
        if rm["col_is_row"]:
            col_perm: Permutation | None = row_perm
        elif rm["has_col"]:
            col_perm = Permutation.from_order(arrays["reorder.col_order"])
        else:
            col_perm = None
        reorder = ReorderResult(
            name=rm["name"], row_perm=row_perm, col_perm=col_perm,
            meta=dict(rm["meta"]),
        )
        return TCPlan(
            name=str(meta["name"]),
            csr_reordered=csr_r,
            tiling=tiling,
            vals_packed=np.asarray(arrays["vals_packed"]),
            schedule=schedule,
            reorder=reorder,
            bytes_a_per_block=np.asarray(arrays["bytes_a_per_block"]),
            pipeline_mode=PipelineMode[meta["pipeline_mode"]],
            cache_policy_control=bool(meta["cache_policy_control"]),
            n_rows_original=n_rows_original,
            meta=dict(meta["meta"]),
        )
    except _DECODE_ERRORS as exc:  # malformed payloads surface uniformly
        raise StoreError(f"invalid TCPlan payload: {exc}") from exc


# ----------------------------------------------------------------------
# AccPlan (the store's unit of persistence)
# ----------------------------------------------------------------------
def plan_payload(p: AccPlan) -> tuple[dict, dict]:
    """``(meta, arrays)`` for a full :class:`AccPlan`.

    The header carries everything the store validates on load without
    touching the payload: the matrix fingerprint, the config fingerprint
    and full config dict, the device, dtype/shape metadata (inside the
    nested payload tables), and the recorded build cost that orders
    the store's gc and warm starts.  No executor state is written: a
    loading process derives the executor's gather geometry from the
    tiling.
    """
    from repro.serve.fingerprint import fingerprint

    meta, arrays = tcplan_payload(p.tc_plan, csr=p.csr)
    fp = fingerprint(p.csr)
    top = {
        "tc": meta,
        "config": asdict(p.config),
        "config_fp": config_fingerprint(p.config),
        "device": p.device.name,
        "feature_dim": int(p.feature_dim),
        "build_seconds": float(p.build_seconds),
        # wall-clock serialisation time (format v2): the store's initial
        # ``last_used`` recency signal for TTL gc, robust against file
        # copies that reset mtimes.
        "saved_at": float(_wall_clock()),
        "fingerprint": fp.record(),
    }
    # format v3: the autotuner's verdict, promoted from the plan meta to
    # the header so the store's header-only scan (and `store inspect`)
    # can show it without deserialising the payload
    tuned = p.tc_plan.meta.get("tuned")
    if isinstance(tuned, dict):
        top["tuned"] = dict(tuned)
    return top, arrays


def plan_to_bytes(p: AccPlan) -> bytes:
    """Serialise an :class:`AccPlan` to a self-describing container."""
    meta, arrays = plan_payload(p)
    return pack_container("accplan", meta, arrays)


def plan_from_payload(meta: dict, arrays: dict) -> AccPlan:
    """Rebuild an :class:`AccPlan` from :func:`plan_payload` output."""
    try:
        cfg = AccConfig(**meta["config"])
        device = get_device(meta["device"])
        csr = container.payload_to_csr(
            meta["tc"]["csr"], arrays, "csr", StoreError
        )
        tc = tcplan_from_payload(meta["tc"], arrays, csr=csr)
        # v3 header block first; tolerate its absence or a malformed
        # dict (from_meta returns None) by falling back to the copy the
        # plan meta carries, then to the untuned default kernel
        tuned = TunedConfig.from_meta(meta.get("tuned"))
        if tuned is None:
            tuned = TunedConfig.from_meta(tc.meta.get("tuned"))
        return AccPlan(
            csr=csr,
            config=cfg,
            device=device,
            feature_dim=_int(meta["feature_dim"]),
            tc_plan=tc,
            build_seconds=float(meta["build_seconds"]),
            kernel=kernel_for_config(cfg, tuned=tuned),
        )
    except _DECODE_ERRORS as exc:
        raise StoreError(f"invalid AccPlan payload: {exc}") from exc


def plan_from_bytes(data: bytes) -> AccPlan:
    """Inverse of :func:`plan_to_bytes`; multiplies bit-for-bit."""
    header, arrays = unpack_container(data)
    if header["kind"] != "accplan":
        raise StoreError(
            f"expected an accplan container, got {header['kind']!r}"
        )
    return plan_from_payload(header["meta"], arrays)
