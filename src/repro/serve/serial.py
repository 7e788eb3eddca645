"""Versioned binary serialisation of plans — the persistence format.

The expensive artifact of the Acc-SpMM pipeline is the *plan* (reorder →
BitTCF → TB schedule); PR 1–2 amortise its cost within one process via
the in-memory :class:`~repro.serve.cache.PlanCache`.  This module makes
the plan a durable, cross-process artifact: :func:`plan_to_bytes` /
:func:`plan_from_bytes` round-trip an :class:`~repro.core.planner.
AccPlan` bit-for-bit, and :class:`~repro.serve.store.PlanStore` writes
the same bytes to disk, one file per fingerprint.

Container layout (little-endian throughout)::

    offset 0   magic           8 bytes   b"ACCSPMM\\0"
    offset 8   format version  u32       PLAN_FORMAT_VERSION
    offset 12  header length   u64       JSON byte count
    offset 20  header JSON     utf-8     kind, metadata, array table
    ...        padding         zeros     up to a 64-byte boundary
    ...        array payloads  raw       C-order bytes, 64-byte aligned

The header's array table records ``(name, dtype, shape, offset, nbytes)``
with offsets relative to the start of the data section, so a reader
takes every array out of one buffer with ``np.frombuffer``: an in-memory
blob, or one read-only ``mmap`` of the whole backing file.  The latter is
how the store loads entries: one mapping and one file descriptor per
plan, and every worker process shares the same physical pages of a hot
plan (the page-cache behaviour of ``np.load(..., mmap_mode="r")``, for a
multi-array file).

Versioning policy: :data:`PLAN_FORMAT_VERSION` is bumped whenever the
payload schema changes.  Readers accept the closed range
[:data:`MIN_PLAN_FORMAT_VERSION`, :data:`PLAN_FORMAT_VERSION`], currently
4..4, and reject everything else with
:class:`~repro.errors.StoreVersionError`, naming both the found and the
supported versions (the store quarantines such entries, and the
``.reason`` sidecar carries that message — replanning is always safe,
migration never attempted).  A header that lacks the ``saved_at``
timestamp (v2) or the ``tuned`` block (v3) still loads, falling back to
the file's mtime and the plan meta's copy of the verdict.

Serialised plans contain **no pickled objects** — only raw arrays and a
JSON header — so loading untrusted bytes can fail but not execute code.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import struct
import time
from dataclasses import asdict

import numpy as np

from repro.core.config import AccConfig
from repro.core.planner import AccPlan, kernel_for_config
from repro.errors import StoreError, StoreVersionError
from repro.formats.tiling import RowWindowTiling
from repro.balance.scheduler import TBAssignment
from repro.gpusim.pipeline import PipelineMode
from repro.gpusim.specs import get_device
from repro.kernels.tc_common import TCPlan
from repro.reorder.base import Permutation, ReorderResult
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
_ALIGN = 64
_HEAD = struct.Struct("<8sIQ")  # magic, version, header-json length

#: The injectable wall clock behind the v2 ``saved_at`` header field —
#: the one legitimate wall-clock read in this module.  Bound once so
#: determinism audits and tests can monkeypatch it; production code must
#: call the binding, never ``time.time()`` directly (REP201).
_wall_clock = time.time

#: Numpy dtype *kinds* allowed in a container's array table: booleans,
#: signed/unsigned integers, floats.  Everything else — object arrays
#: (which pickle), strings, void/records, datetimes — is rejected at
#: both pack and load time: the no-pickle/no-code-execution stance of
#: this format is only as strong as its narrowest dtype gate.
_ALLOWED_DTYPE_KINDS = frozenset("biuf")

#: What a malformed-but-well-formed-JSON payload can legitimately raise
#: while being decoded into plan objects: missing/mistyped keys, wrong
#: nesting, out-of-range numbers.  Decode paths translate exactly these
#: into :class:`StoreError` (so the store quarantines the entry) and let
#: everything else — ``MemoryError``, ``KeyboardInterrupt``, internal
#: invariant breaks — propagate: a resource failure must not be
#: laundered into "corrupt entry" and silently quarantined.
#: ``ValueError`` covers :class:`~repro.errors.ValidationError` and
#: ``UnicodeDecodeError`` via subclassing.
_DECODE_ERRORS = (
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
def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_container(kind: str, meta: dict, arrays: dict) -> bytes:
    """Assemble one container: JSON header + aligned raw array payloads.

    ``arrays`` maps name -> ndarray; ``None`` values are skipped (their
    absence is itself information — e.g. a dropped ``scatter_flat``).
    ``meta`` must be JSON-serialisable.
    """
    table = []
    offset = 0
    payloads = []
    for name, arr in arrays.items():
        if arr is None:
            continue
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind not in _ALLOWED_DTYPE_KINDS:
            raise StoreError(
                f"array {name!r} has dtype {arr.dtype.str!r}; containers "
                f"carry only plain numeric dtypes (kinds "
                f"{''.join(sorted(_ALLOWED_DTYPE_KINDS))})"
            )
        offset = _align(offset)
        table.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
        )
        payloads.append((offset, arr))
        offset += arr.nbytes
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": table},
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    data_start = _align(_HEAD.size + len(header))
    out = io.BytesIO()
    out.write(_HEAD.pack(MAGIC, PLAN_FORMAT_VERSION, len(header)))
    out.write(header)
    out.write(b"\x00" * (data_start - _HEAD.size - len(header)))
    pos = 0
    for rel, arr in payloads:
        if rel != pos:
            out.write(b"\x00" * (rel - pos))
            pos = rel
        out.write(arr.tobytes())
        pos += arr.nbytes
    return out.getvalue()


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
    try:
        header = json.loads(data[_HEAD.size : _HEAD.size + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"malformed container header: {exc}") from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise StoreError("container header missing the array table")
    # surface the container's own version to callers (the packed header
    # JSON never carries this key — it lives in the fixed binary head)
    header["format_version"] = version
    return header, _align(_HEAD.size + hlen)


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, so exclude it."""
    return isinstance(value, int) and not isinstance(value, bool)


def _normalised_table(header: dict) -> list[dict]:
    """The header's array table with every field type-checked.

    Names are distinct strings, and every shape element, ``offset`` and
    ``nbytes`` is an integer that is not a bool: a float, a string or a
    bool is refused, never coerced.  A header whose JSON parsed but
    whose table is malformed (wrong nesting, missing keys, bad dtypes)
    must surface as :class:`StoreError` — the store quarantines on it —
    never as a stray ``TypeError``.
    """
    table = []
    seen: set[str] = set()
    try:
        for entry in header["arrays"]:
            name = entry["name"]
            if not isinstance(name, str) or name in seen:
                raise StoreError(
                    f"array table has a bad or duplicate name: {name!r}"
                )
            seen.add(name)
            dtype = np.dtype(entry["dtype"])
            if dtype.kind not in _ALLOWED_DTYPE_KINDS:
                raise StoreError(
                    f"array {name!r} declares dtype {entry['dtype']!r}; "
                    f"containers carry only plain numeric dtypes (kinds "
                    f"{''.join(sorted(_ALLOWED_DTYPE_KINDS))})"
                )
            shape, offset, nbytes = (
                entry["shape"], entry["offset"], entry["nbytes"]
            )
            if not (
                isinstance(shape, list)
                and all(_is_int(s) for s in shape)
                and _is_int(offset)
                and _is_int(nbytes)
            ):
                raise StoreError(
                    f"array {name!r} has a non-integer shape, offset or "
                    f"nbytes: {shape!r}, {offset!r}, {nbytes!r}"
                )
            shape = tuple(shape)
            if offset < 0 or nbytes < 0 or any(s < 0 for s in shape):
                raise StoreError(f"array {name!r} has negative sizes")
            # exact Python ints: an int64 product could wrap back to a
            # count that matches a small nbytes
            count = math.prod(shape)
            if count * dtype.itemsize != nbytes:
                raise StoreError(f"array {name!r} has inconsistent sizes")
            table.append(
                {
                    "name": name,
                    "dtype": dtype,
                    "shape": shape,
                    "offset": offset,
                    "nbytes": nbytes,
                    "count": count,
                }
            )
    except StoreError:
        raise
    except _DECODE_ERRORS as exc:  # wrong nesting/keys/values, bad dtype
        raise StoreError(f"malformed array table: {exc!r}") from exc
    return table


def _materialise(entry: dict, buf, data_start: int):
    """One normalised-table array, as a zero-copy view into ``buf``."""
    if entry["count"] == 0:
        return np.zeros(entry["shape"], dtype=entry["dtype"])
    lo = data_start + entry["offset"]
    if lo + entry["nbytes"] > len(buf):
        raise StoreError(f"array {entry['name']!r} extends past the payload")
    return np.frombuffer(
        buf, dtype=entry["dtype"], count=entry["count"], offset=lo
    ).reshape(entry["shape"])


def read_header_from_file(path) -> dict:
    """Read and validate a container's header from a file, without
    reading or mapping its payload: the store's header-only scans.

    The declared header length is checked against the file size before
    the header is read, so a corrupt length cannot ask for a huge read.
    """
    with open(path, "rb") as fh:
        fh.seek(0, io.SEEK_END)
        size = fh.tell()
        fh.seek(0)
        prefix = fh.read(_HEAD.size)
        if len(prefix) < _HEAD.size:
            raise StoreError("container truncated before the fixed header")
        magic, _version, hlen = _HEAD.unpack_from(prefix, 0)
        if magic != MAGIC:
            raise StoreError(f"bad magic {magic!r}; not a serialised plan")
        if hlen > size - _HEAD.size:
            raise StoreError("container truncated inside the JSON header")
        prefix += fh.read(hlen)
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
    are zero-copy read-only ``np.frombuffer`` views into that one
    buffer, checked against its bounds by the same code: a loaded plan
    holds one mapping and one descriptor, and concurrent workers share
    its pages.
    """
    if data is None:
        data = _map_file(path)
    header, data_start = read_header(data)
    arrays = {
        e["name"]: _materialise(e, data, data_start)
        for e in _normalised_table(header)
    }
    return header, arrays


def _jsonable(d: dict) -> dict:
    """A JSON-round-trippable copy of a metadata dict.

    Numpy scalars become Python numbers; values JSON cannot express are
    stringified (plan meta is informational, not load-bearing).
    """
    out = {}
    for k, v in d.items():
        if isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, (np.floating,)):
            v = float(v)
        try:
            json.dumps(v)
        except (TypeError, ValueError):
            v = repr(v)
        out[str(k)] = v
    return out


# ----------------------------------------------------------------------
# TCPlan payload (shared by all three tensor-core kernels)
# ----------------------------------------------------------------------
def _csr_arrays(prefix: str, csr: CSRMatrix, arrays: dict) -> dict:
    arrays[f"{prefix}.indptr"] = csr.indptr
    arrays[f"{prefix}.indices"] = csr.indices
    arrays[f"{prefix}.vals"] = csr.vals
    return {"n_rows": csr.n_rows, "n_cols": csr.n_cols}


def _csr_from(prefix: str, meta: dict, arrays: dict) -> CSRMatrix:
    return CSRMatrix(
        n_rows=int(meta["n_rows"]),
        n_cols=int(meta["n_cols"]),
        indptr=arrays[f"{prefix}.indptr"],
        indices=arrays[f"{prefix}.indices"],
        vals=arrays[f"{prefix}.vals"],
    )


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
        "meta": _jsonable(tc.meta),
    }
    if csr is not None:
        meta["csr"] = _csr_arrays("csr", csr, arrays)
    shared = csr is not None and tc.csr_reordered is csr
    meta["csr_r_shared"] = shared
    if not shared:
        meta["csr_r"] = _csr_arrays("csr_r", tc.csr_reordered, arrays)
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
        "meta": _jsonable(r.meta),
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
            csr = _csr_from("csr", meta["csr"], arrays)
        csr_r = csr if meta["csr_r_shared"] else _csr_from(
            "csr_r", meta["csr_r"], arrays
        )
        tm = meta["tiling"]
        tiling = RowWindowTiling(
            n_rows=int(tm["n_rows"]),
            n_cols=int(tm["n_cols"]),
            window_rows=int(tm["window_rows"]),
            block_cols=int(tm["block_cols"]),
            **{
                name: np.asarray(arrays[f"tiling.{name}"])
                for name in RowWindowTiling.ARRAY_FIELDS
            },
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
            n_rows_original=int(meta["n_rows_original"]),
            meta=dict(meta["meta"]),
        )
    except StoreError:
        raise
    except _DECODE_ERRORS as exc:  # malformed payloads surface uniformly
        raise StoreError(f"invalid TCPlan payload: {exc}") from exc


def tcplan_to_bytes(tc: TCPlan) -> bytes:
    """Serialise a bare :class:`TCPlan` (any of the three TC kernels)."""
    meta, arrays = tcplan_payload(tc, csr=None)
    return pack_container("tcplan", meta, arrays)


def tcplan_from_bytes(data: bytes) -> TCPlan:
    """Inverse of :func:`tcplan_to_bytes`; multiplies bit-for-bit."""
    header, arrays = unpack_container(data)
    if header.get("kind") != "tcplan":
        raise StoreError(f"expected a tcplan container, got {header.get('kind')!r}")
    return tcplan_from_payload(header["meta"], arrays)


# ----------------------------------------------------------------------
# AccPlan (the store's unit of persistence)
# ----------------------------------------------------------------------
def plan_payload(p: AccPlan, include_executor: bool = True) -> tuple[dict, dict]:
    """``(meta, arrays)`` for a full :class:`AccPlan`.

    The header carries everything the store validates on load without
    touching the payload: the matrix fingerprint, the config fingerprint
    and full config dict, the device, dtype/shape metadata (inside the
    nested payload tables), and the recorded build cost that drives
    cost-aware admission.  With ``include_executor`` (default), the
    *structural half* of an already-built prepared executor rides along
    so a warm-started process skips recomputing gather geometry.
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
    ex = p.executor
    if include_executor and ex is not None:
        ex_meta, ex_arrays = ex.structural_payload()
        top["exec"] = ex_meta
        for name, arr in ex_arrays.items():
            arrays[f"exec.{name}"] = arr
    return top, arrays


def plan_to_bytes(p: AccPlan, include_executor: bool = True) -> bytes:
    """Serialise an :class:`AccPlan` to a self-describing container."""
    meta, arrays = plan_payload(p, include_executor=include_executor)
    return pack_container("accplan", meta, arrays)


def plan_from_payload(meta: dict, arrays: dict) -> AccPlan:
    """Rebuild an :class:`AccPlan` from :func:`plan_payload` output."""
    try:
        cfg = AccConfig(**meta["config"])
        device = get_device(meta["device"])
        csr = _csr_from("csr", meta["tc"]["csr"], arrays)
        tc = tcplan_from_payload(meta["tc"], arrays, csr=csr)
        # v3 header block first; tolerate its absence or a malformed
        # dict (from_meta returns None) by falling back to the copy the
        # plan meta carries, then to the untuned default kernel
        tuned = TunedConfig.from_meta(meta.get("tuned"))
        if tuned is None:
            tuned = TunedConfig.from_meta(tc.meta.get("tuned"))
        if "exec" in meta:
            tc.exec_structural = (
                dict(meta["exec"]),
                {
                    name[len("exec."):]: arr
                    for name, arr in arrays.items()
                    if name.startswith("exec.")
                },
            )
        return AccPlan(
            csr=csr,
            config=cfg,
            device=device,
            feature_dim=int(meta["feature_dim"]),
            tc_plan=tc,
            build_seconds=float(meta["build_seconds"]),
            kernel=kernel_for_config(cfg, tuned=tuned),
        )
    except StoreError:
        raise
    except _DECODE_ERRORS as exc:
        raise StoreError(f"invalid AccPlan payload: {exc}") from exc


def plan_from_bytes(data: bytes) -> AccPlan:
    """Inverse of :func:`plan_to_bytes`; multiplies bit-for-bit."""
    header, arrays = unpack_container(data)
    if header.get("kind") != "accplan":
        raise StoreError(
            f"expected an accplan container, got {header.get('kind')!r}"
        )
    return plan_from_payload(header["meta"], arrays)
