"""The container layout shared by wire frames and plan files.

A container is a fixed binary head, a JSON header and a data section of
raw arrays.  Each format owns only its head (:mod:`repro.serve.frames`:
``<8sIQQ>`` and size caps; :mod:`repro.serve.serial`: ``<8sIQ>``, the
data padded to a 64-byte boundary); the rest is this module's.  The
header is compact JSON with sorted keys: ``kind`` (a non-empty string),
``meta`` (an object, ``{}`` when absent) and ``arrays``, the array
table.  Each table entry describes one array, whose C-order bytes sit
at a 64-byte aligned offset from the data start::

    name     a string, distinct within the table
    dtype    np.dtype(...).str of a plain numeric kind ("biuf": bool,
             int, uint, float), never objects (which pickle), strings,
             records or datetimes
    shape    a list of ints >= 0
    offset   an int >= 0, relative to the data start
    nbytes   an int >= 0, prod(shape) * itemsize, with offset + nbytes
             inside the data section

An int is a JSON integer that is not a bool: a float, a string or a bool
is refused, never coerced, and sizes are compared in exact Python
integers (an int64 product could wrap to match a small ``nbytes``).
Decoding untrusted bytes can fail but never execute code: no pickle, no
``np.load``.  Every check raises the caller's error class
(:class:`~repro.errors.ProtocolError` on the wire,
:class:`~repro.errors.StoreError` on disk), and decoded arrays are
zero-copy views of the buffer, writable only when the buffer is.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix

ALLOWED_DTYPE_KINDS = frozenset("biuf")
ALIGN = 64


def is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, so exclude it."""
    return isinstance(value, int) and not isinstance(value, bool)


def align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _dtype_refused(name, dtype: np.dtype, error) -> Exception:
    return error(
        f"array {name!r} has dtype {dtype.str!r}; containers carry only "
        f"plain numeric dtypes (kinds {''.join(sorted(ALLOWED_DTYPE_KINDS))})"
    )


def pack(kind: str, meta: dict, arrays: dict, head, error,
         pad: bool = False) -> bytearray:
    """One container in one preallocated buffer, one copy per array.

    ``arrays`` maps name -> array (``None`` values are skipped: their
    absence is itself information).  ``head(header_len, data_len)``
    returns the format's fixed head; with ``pad`` the data section
    starts at a 64-byte boundary of the buffer.
    """
    table, placed, end = [], [], 0
    for name, arr in arrays.items():
        if arr is None:
            continue
        arr = np.asarray(arr)
        if arr.dtype.kind not in ALLOWED_DTYPE_KINDS:
            raise _dtype_refused(name, arr.dtype, error)
        offset = align(end)
        table.append({
            "name": str(name),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        placed.append((offset, arr))
        end = offset + arr.nbytes
    header = json.dumps(
        {"kind": str(kind), "meta": meta, "arrays": table},
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    prefix = head(len(header), end) + header
    start = align(len(prefix)) if pad else len(prefix)
    buf = bytearray(start + end)
    buf[:len(prefix)] = prefix
    for offset, arr in placed:
        dst = np.frombuffer(buf, arr.dtype, arr.size, start + offset)
        dst.reshape(arr.shape)[...] = arr
    return buf


def parse_header(raw, error) -> dict:
    """The JSON header, with its ``kind``, ``meta`` and ``arrays``
    checked (``meta`` defaults to ``{}``)."""
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"container header is not valid JSON: {exc!r}") from exc
    if not isinstance(header, dict):
        raise error("container header must be a JSON object")
    header.setdefault("meta", {})
    if not isinstance(header.get("kind"), str) or not header["kind"]:
        raise error("container header lacks a string `kind`")
    if not isinstance(header["meta"], dict):
        raise error("container `meta` must be a JSON object")
    if not isinstance(header.get("arrays"), list):
        raise error("container `arrays` must be a list")
    return header


def check_table(table: list, data_len: int, error) -> list[tuple]:
    """``(name, dtype, shape, offset, count)`` per array of a header's
    table, every field checked against the rules above and a data
    section of ``data_len`` bytes."""
    out, seen = [], set()
    try:
        for entry in table:
            if not isinstance(entry, dict):
                raise error("array-table entry must be an object")
            name = entry["name"]
            if not isinstance(name, str) or name in seen:
                raise error(
                    f"array table has a bad or duplicate name: {name!r}"
                )
            seen.add(name)
            spec = entry["dtype"]
            try:
                dtype = np.dtype(spec) if isinstance(spec, str) else None
            except (TypeError, ValueError, SyntaxError):
                dtype = None
            if dtype is None:
                raise error(
                    f"array {name!r} has an unparseable dtype: {spec!r}"
                )
            if dtype.kind not in ALLOWED_DTYPE_KINDS:
                raise _dtype_refused(name, dtype, error)
            shape, offset, nbytes = (
                entry["shape"], entry["offset"], entry["nbytes"]
            )
            if not isinstance(shape, list) or not all(
                is_int(n) and n >= 0 for n in (*shape, offset, nbytes)
            ):
                raise error(
                    f"array {name!r} has a bad shape, offset or nbytes: "
                    f"{shape!r}, {offset!r}, {nbytes!r}"
                )
            if offset + nbytes > data_len:
                raise error(
                    f"array {name!r} spans [{offset}, {offset + nbytes}) but "
                    f"the data section is {data_len} bytes"
                )
            count = math.prod(shape)
            if count * dtype.itemsize != nbytes:
                raise error(
                    f"array {name!r} has inconsistent sizes: shape {shape} x "
                    f"dtype {dtype.str} needs {count * dtype.itemsize} bytes, "
                    f"the table claims {nbytes}"
                )
            out.append((name, dtype, tuple(shape), offset, count))
    except (KeyError, TypeError) as exc:  # a missing key, wrong nesting
        raise error(f"malformed array table: {exc!r}") from exc
    return out


def materialise(table: list, buf, start: int = 0) -> dict:
    """name -> zero-copy view into ``buf`` for each :func:`check_table`
    entry, offsets counted from ``start``."""
    return {
        name: np.frombuffer(buf, dtype, count, start + offset).reshape(shape)
        for name, dtype, shape, offset, count in table
    }


def _csr_names(prefix: str) -> list[str]:
    fields = ("indptr", "indices", "vals")
    return [f"{prefix}.{f}" if prefix else f for f in fields]


def csr_to_payload(csr: CSRMatrix, prefix: str = "") -> tuple[dict, dict]:
    """``(meta, arrays)`` carrying a CSR matrix: its dimensions, and its
    arrays ``indptr``/``indices``/``vals`` (``csr.indptr``... with
    ``prefix="csr"``)."""
    parts = (csr.indptr, csr.indices, csr.vals)
    meta = {"n_rows": int(csr.n_rows), "n_cols": int(csr.n_cols)}
    return meta, dict(zip(_csr_names(prefix), parts))


def payload_to_csr(meta: dict, arrays: dict, prefix: str = "",
                   error=ValidationError) -> CSRMatrix:
    """Inverse of :func:`csr_to_payload`; raises ``error`` unless both
    dimensions are ints and all three arrays are present (the
    :class:`CSRMatrix` constructor checks the rest)."""
    names = _csr_names(prefix)
    dims = (meta.get("n_rows"), meta.get("n_cols"))
    missing = [n for n in names if n not in arrays]
    if missing or not all(is_int(d) for d in dims):
        raise error(
            f"a CSR payload needs integer n_rows/n_cols (got {dims[0]!r}/"
            f"{dims[1]!r}) and arrays {'/'.join(names)} (missing: {missing})"
        )
    return CSRMatrix(*dims, *(arrays[n] for n in names))
