"""Length-prefixed binary frames — the wire format of the SpMM server.

A *frame* is the unit of the request/response protocol spoken by
:mod:`repro.serve.server`: a fixed head, then the JSON header and array
data of a :mod:`repro.serve.container` (the layout, the array table and
its checks are described there once).  What is the wire's own is the
head — an outer length prefix, so a reader knows exactly how many bytes
to consume before parsing anything — and hard caps on header and body
sizes, so a hostile or corrupt length field is rejected *before* any
allocation.

Head layout (little-endian)::

    offset 0   magic           8 bytes   b"ACCFRME\\0"
    offset 8   frame version   u32       FRAME_FORMAT_VERSION
    offset 12  header length   u64       JSON byte count
    offset 20  body length     u64       array data byte count
    offset 28  header JSON, then the array data (the body)

Every decode failure raises :class:`~repro.errors.ProtocolError`; a
frame can be judged malformed from at most ``MAX_HEADER_BYTES`` bytes,
so a decoder never hangs on or allocates for garbage input.

Readers come in three shapes, all sharing one validation path:
:func:`decode_frame` for a complete in-memory buffer,
:func:`read_frame` for an asyncio stream (the server; honours a
timeout), and :func:`read_frame_from` for a blocking file-like object
(the synchronous client).
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.serve import container

#: Bump on any change to the frame layout or header schema.  A decoder
#: rejects versions it does not speak, naming found and expected — wire
#: peers are upgraded together (unlike store entries, frames are not
#: durable, so there is no compatibility range to maintain).
FRAME_FORMAT_VERSION = 1

MAGIC = b"ACCFRME\x00"
_HEAD = struct.Struct("<8sIQQ")  # magic, version, header len, body len

#: Hard cap on the JSON header.  Request metadata is a few hundred
#: bytes; a megabyte of "header" is an attack or corruption, and is
#: rejected before the header is read.
MAX_HEADER_BYTES = 1 << 20

#: Default cap on the array payload section (256 MB).  Serving configs
#: size this to their largest legitimate matrix + operand
#: (``ServerConfig.max_body_bytes``); the cap is enforced from the
#: fixed head alone, before any payload allocation.
DEFAULT_MAX_BODY_BYTES = 256 << 20


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame: a request or response.

    ``kind`` names the endpoint (``"multiply"``, ``"stats"``, ...) or
    response type (``"result"``, ``"error"``); ``meta`` is the JSON
    header's free-form metadata; ``arrays`` maps name -> ndarray, views
    into the receive buffer (never into shared server state).
    """

    kind: str
    meta: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_frame(kind: str, meta: dict | None = None,
                 arrays: dict | None = None) -> bytearray:
    """Assemble one frame in one buffer; the inverse of
    :func:`decode_frame`.

    ``arrays`` maps name -> ndarray (``None`` values are skipped);
    every dtype must be a plain numeric kind.  ``meta`` must be
    JSON-serialisable.
    """
    return container.pack(
        kind, meta or {}, arrays or {},
        lambda header_len, body_len: _HEAD.pack(
            MAGIC, FRAME_FORMAT_VERSION, header_len, body_len
        ),
        ProtocolError,
    )


# ----------------------------------------------------------------------
# decoding (one shared validation path)
# ----------------------------------------------------------------------
def _check_head(
    head: bytes, max_body_bytes: int | None
) -> tuple[int, int]:
    """Validate the fixed head; return (header_len, body_len).

    Every length check happens here, before a single payload byte is
    read or allocated.
    """
    magic, version, header_len, body_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != FRAME_FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported frame version {version}; this build speaks "
            f"version {FRAME_FORMAT_VERSION}"
        )
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {header_len} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte cap (or is empty)"
        )
    limit = DEFAULT_MAX_BODY_BYTES if max_body_bytes is None else max_body_bytes
    if body_len > limit:
        raise ProtocolError(
            f"frame body of {body_len} bytes exceeds the {limit}-byte cap"
        )
    return int(header_len), int(body_len)


def _decode_header(header_bytes: bytes, body_len: int) -> tuple[str, dict, list]:
    """Parse and check the JSON header against a body of ``body_len``
    bytes; return (kind, meta, table)."""
    header = container.parse_header(header_bytes, ProtocolError)
    table = container.check_table(header["arrays"], body_len, ProtocolError)
    return header["kind"], header["meta"], table


def _decode_body(table: list, body, start: int = 0) -> dict:
    """Materialise the checked table against the body, which starts at
    ``start`` of the buffer (zero-copy; writable when ``body`` is, e.g.
    the receive ``bytearray``)."""
    return container.materialise(table, body, start)


def decode_frame(data, max_body_bytes: int | None = None) -> Frame:
    """Decode one complete frame from an in-memory buffer.

    ``data`` must hold exactly one frame (trailing bytes are rejected —
    on a stream, framing is the reader's job).  Raises
    :class:`~repro.errors.ProtocolError` on any malformation: bad
    magic/version, truncation, oversize, header or array-table
    violations.
    """
    data = bytes(data) if not isinstance(data, (bytes, bytearray)) else data
    if len(data) < _HEAD.size:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes, head needs {_HEAD.size}"
        )
    header_len, body_len = _check_head(data[:_HEAD.size], max_body_bytes)
    expected = _HEAD.size + header_len + body_len
    if len(data) < expected:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes, frame declares {expected}"
        )
    if len(data) > expected:
        raise ProtocolError(
            f"oversized frame: {len(data)} bytes, frame declares {expected}"
        )
    kind, meta, table = _decode_header(
        data[_HEAD.size:_HEAD.size + header_len], body_len
    )
    arrays = _decode_body(table, data, _HEAD.size + header_len)
    return Frame(kind=kind, meta=meta, arrays=arrays)


# ----------------------------------------------------------------------
# stream readers/writers
# ----------------------------------------------------------------------
async def read_frame(
    reader,
    timeout: float | None = None,
    max_body_bytes: int | None = None,
) -> Frame | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`~repro.errors.ProtocolError` when the peer closes mid-frame
    or sends malformed bytes, and ``TimeoutError`` when any single read
    exceeds ``timeout`` (the slow-client guard — the server counts and
    closes).  Size caps are enforced from the fixed head, before the
    payload is read.  ``reader`` only needs ``readexactly`` — the
    fault-injection tests drive this with fakes.
    """
    try:
        head = await asyncio.wait_for(reader.readexactly(_HEAD.size), timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{_HEAD.size} head bytes)"
        ) from exc
    header_len, body_len = _check_head(head, max_body_bytes)
    try:
        header_bytes = await asyncio.wait_for(
            reader.readexactly(header_len), timeout
        )
        body = bytearray(
            await asyncio.wait_for(reader.readexactly(body_len), timeout)
        ) if body_len else bytearray()
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "connection closed mid-frame (payload truncated)"
        ) from exc
    kind, meta, table = _decode_header(header_bytes, body_len)
    return Frame(kind=kind, meta=meta, arrays=_decode_body(table, body))


async def write_frame(writer, kind: str, meta: dict | None = None,
                      arrays: dict | None = None) -> None:
    """Encode and write one frame; awaits the transport's drain (the
    backpressure point for slow readers)."""
    writer.write(encode_frame(kind, meta, arrays))
    await writer.drain()


def read_frame_from(
    fileobj, max_body_bytes: int | None = None
) -> Frame | None:
    """Blocking counterpart of :func:`read_frame` for a binary
    file-like object (e.g. ``socket.makefile("rb")`` — the synchronous
    client).  Same return/raise contract, minus the timeout (socket
    timeouts surface as ``OSError`` from ``read``)."""
    head = fileobj.read(_HEAD.size)
    if not head:
        return None
    if len(head) < _HEAD.size:
        raise ProtocolError(
            f"connection closed mid-frame ({len(head)} of {_HEAD.size} "
            f"head bytes)"
        )
    header_len, body_len = _check_head(head, max_body_bytes)
    header_bytes = fileobj.read(header_len)
    body = bytearray(fileobj.read(body_len)) if body_len else bytearray()
    if len(header_bytes) < header_len or len(body) < body_len:
        raise ProtocolError("connection closed mid-frame (payload truncated)")
    kind, meta, table = _decode_header(header_bytes, body_len)
    return Frame(kind=kind, meta=meta, arrays=_decode_body(table, body))
