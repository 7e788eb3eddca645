"""Property/fuzz tests for the wire-frame codec (repro.serve.frames).

The contract under test: random well-formed frames round-trip exactly;
truncated, oversized, and header-tampered frames raise ProtocolError
(never hang, never execute); a mutated byte stream can only ever
produce "decoded fine" or "clean ProtocolError" — nothing else escapes.
The no-pickle/no-np.load stance itself is enforced statically by REP301
(scope extended to serve/frames.py; asserted here too).
"""

from __future__ import annotations

import asyncio
import io
import json
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serve.frames import (
    FRAME_FORMAT_VERSION,
    MAX_HEADER_BYTES,
    Frame,
    decode_frame,
    encode_frame,
    read_frame,
    read_frame_from,
)

_HEAD_SIZE = struct.calcsize("<8sIQQ")

_DTYPES = [
    np.float32, np.float64, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint32, np.bool_,
]


def _random_frame(rng) -> tuple[str, dict, dict]:
    kind = rng.choice(["multiply", "submit", "result", "ping", "x" * 40])
    meta = {
        "tenant": str(rng.integers(0, 5)),
        "n": int(rng.integers(0, 1 << 40)),
        "f": float(rng.random()),
        "nested": {"a": [1, 2, 3], "b": None},
    }
    arrays = {}
    for i in range(int(rng.integers(0, 4))):
        dtype = _DTYPES[int(rng.integers(0, len(_DTYPES)))]
        ndim = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(0, 7)) for _ in range(ndim))
        arrays[f"a{i}"] = (rng.random(shape) * 100).astype(dtype)
    return kind, meta, arrays


def _assert_round_trip(frame: Frame, kind, meta, arrays):
    assert frame.kind == kind
    assert frame.meta == json.loads(json.dumps(meta))  # JSON-normalised
    assert set(frame.arrays) == set(arrays)
    for name, arr in arrays.items():
        got = frame.arrays[name]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)


class TestRoundTrip:
    def test_random_frames_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            kind, meta, arrays = _random_frame(rng)
            _assert_round_trip(
                decode_frame(encode_frame(kind, meta, arrays)),
                kind, meta, arrays,
            )

    def test_empty_frame(self):
        frame = decode_frame(encode_frame("ping"))
        assert frame.kind == "ping"
        assert frame.meta == {} and frame.arrays == {}

    def test_zero_size_and_empty_shape_arrays(self):
        arrays = {
            "empty": np.zeros((0, 5), dtype=np.float32),
            "scalar": np.array(3.5, dtype=np.float64),
            "middle_zero": np.zeros((2, 0, 3), dtype=np.int32),
        }
        frame = decode_frame(encode_frame("x", {}, arrays))
        _assert_round_trip(frame, "x", {}, arrays)

    def test_none_arrays_skipped(self):
        frame = decode_frame(
            encode_frame("x", {}, {"a": None, "b": np.arange(3)})
        )
        assert set(frame.arrays) == {"b"}

    def test_noncontiguous_array_round_trips(self):
        arr = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
        assert not arr.flags.c_contiguous
        got = decode_frame(encode_frame("x", {}, {"a": arr})).arrays["a"]
        assert np.array_equal(got, arr)

    def test_decoded_arrays_are_writable(self):
        # the receive path hands out views a kernel may scale in place
        data = bytearray(encode_frame("x", {}, {"a": np.arange(4.0)}))

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(bytes(data))
            reader.feed_eof()
            return await read_frame(reader)

        frame = asyncio.run(go())
        frame.arrays["a"][0] = 9.0
        assert frame.arrays["a"][0] == 9.0

    def test_object_dtype_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="plain numeric"):
            encode_frame("x", {}, {"a": np.array(["s"], dtype=object)})

    def test_str_dtype_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="plain numeric"):
            encode_frame("x", {}, {"a": np.array(["abc"])})


def _tamper_header(raw: bytes, mutate) -> bytes:
    """Re-assemble `raw` with its JSON header dict passed through
    `mutate` (size fields updated to stay self-consistent)."""
    magic, version, header_len, body_len = struct.unpack(
        "<8sIQQ", raw[:_HEAD_SIZE]
    )
    header = json.loads(raw[_HEAD_SIZE:_HEAD_SIZE + header_len])
    body = raw[_HEAD_SIZE + header_len:]
    mutate(header)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    head = struct.pack(
        "<8sIQQ", magic, version, len(new_header), body_len
    )
    return head + new_header + body


class TestMalformed:
    """Every malformation raises ProtocolError before anything runs."""

    def setup_method(self):
        self.raw = encode_frame(
            "multiply",
            {"tenant": "t"},
            {"a": np.arange(12, dtype=np.float32).reshape(3, 4)},
        )

    def test_truncation_sweep(self):
        # every proper prefix must fail cleanly (no hang, no other error)
        for n in range(len(self.raw)):
            with pytest.raises(ProtocolError):
                decode_frame(self.raw[:n])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="oversized"):
            decode_frame(self.raw + b"x")

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"NOTFRME\x00" + self.raw[8:])

    def test_unsupported_version(self):
        bad = bytearray(self.raw)
        bad[8:12] = struct.pack("<I", FRAME_FORMAT_VERSION + 1)
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(bad))

    def test_huge_header_len_rejected_before_read(self):
        bad = bytearray(self.raw)
        bad[12:20] = struct.pack("<Q", MAX_HEADER_BYTES + 1)
        with pytest.raises(ProtocolError, match="cap"):
            decode_frame(bytes(bad))

    def test_huge_body_len_rejected_before_allocation(self):
        bad = bytearray(self.raw)
        bad[20:28] = struct.pack("<Q", 1 << 62)  # would OOM if allocated
        with pytest.raises(ProtocolError, match="cap"):
            decode_frame(bytes(bad))

    def test_body_cap_is_configurable(self):
        with pytest.raises(ProtocolError, match="cap"):
            decode_frame(self.raw, max_body_bytes=8)

    def test_non_json_header(self):
        magic, version, header_len, body_len = struct.unpack(
            "<8sIQQ", self.raw[:_HEAD_SIZE]
        )
        junk = b"\xff" * header_len
        bad = self.raw[:_HEAD_SIZE] + junk + self.raw[_HEAD_SIZE + header_len:]
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(bad)

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda h: h.pop("kind"), "kind"),
            (lambda h: h.update(kind=7), "kind"),
            (lambda h: h.update(meta=[1]), "meta"),
            (lambda h: h.update(arrays={}), "list"),
            (lambda h: h["arrays"].append("junk"), "entry"),
            (lambda h: h["arrays"][0].update(name=3), "name"),
            (lambda h: h["arrays"].append(dict(h["arrays"][0])), "duplicate"),
            (lambda h: h["arrays"][0].update(shape=[-1, 4]), "shape"),
            (lambda h: h["arrays"][0].update(shape=[True, 4]), "shape"),
            (lambda h: h["arrays"][0].update(shape="3x4"), "shape"),
            (lambda h: h["arrays"][0].update(offset=-8), "offset"),
            (lambda h: h["arrays"][0].update(offset=4096), "spans"),
            (lambda h: h["arrays"][0].update(nbytes=1 << 50), "spans|cap"),
            (lambda h: h["arrays"][0].update(dtype="object"), "dtype"),
            (lambda h: h["arrays"][0].update(dtype="<U8"), "plain numeric"),
            (lambda h: h["arrays"][0].update(dtype="V16"), "plain numeric"),
            (lambda h: h["arrays"][0].update(dtype=1234), "dtype"),
            (lambda h: h["arrays"][0].update(shape=[100, 4]), "needs"),
            # np.dtype raises SyntaxError here, not TypeError/ValueError
            (lambda h: h["arrays"][0].update(dtype=",8"), "dtype"),
        ],
    )
    def test_header_tampering(self, mutate, match):
        with pytest.raises(ProtocolError, match=match):
            decode_frame(_tamper_header(self.raw, mutate))

    def test_random_byte_flips_never_escape(self):
        """Fuzz: any single-byte corruption either still decodes or
        raises ProtocolError — no hangs, no np exceptions, no pickle."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            bad = bytearray(self.raw)
            pos = int(rng.integers(0, len(bad)))
            bad[pos] ^= int(rng.integers(1, 256))
            try:
                frame = decode_frame(bytes(bad))
            except ProtocolError:
                continue
            assert isinstance(frame, Frame)

    def test_deeply_nested_header_is_a_protocol_error(self):
        # json.loads raises RecursionError on deep nesting
        header = b"[" * 100_000
        head = struct.pack(
            "<8sIQQ", b"ACCFRME\x00", FRAME_FORMAT_VERSION, len(header), 0
        )
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(head + header)

    def test_random_garbage_never_escapes(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            blob = rng.integers(
                0, 256, size=int(rng.integers(0, 200))
            ).astype(np.uint8).tobytes()
            with pytest.raises(ProtocolError):
                decode_frame(blob)


class TestStreamReaders:
    """The asyncio and blocking readers share the decode contract."""

    def _read(self, payload: bytes, **kw):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_frame(reader, **kw)

        return asyncio.run(go())

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_two_frames_back_to_back(self):
        payload = encode_frame("a") + encode_frame("b", {"i": 1})

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_frame(reader), await read_frame(reader), \
                await read_frame(reader)

        f1, f2, f3 = asyncio.run(go())
        assert (f1.kind, f2.kind, f3) == ("a", "b", None)

    @pytest.mark.parametrize("cut", [1, _HEAD_SIZE - 1, _HEAD_SIZE + 3])
    def test_mid_frame_eof_raises(self, cut):
        raw = encode_frame("x", {}, {"a": np.arange(8)})
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(raw[:cut])

    def test_timeout_raises_not_hangs(self):
        async def go():
            reader = asyncio.StreamReader()  # never fed: a stalled client
            await read_frame(reader, timeout=0.05)

        with pytest.raises(TimeoutError):
            asyncio.run(asyncio.wait_for(go(), timeout=5))

    def test_oversized_body_rejected_without_reading_it(self):
        raw = encode_frame("x", {}, {"a": np.zeros(1000)})

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw[:_HEAD_SIZE])  # head only; body never sent
            return await read_frame(reader, max_body_bytes=64)

        with pytest.raises(ProtocolError, match="cap"):
            asyncio.run(asyncio.wait_for(go(), timeout=5))

    def test_blocking_reader_round_trip(self):
        raw = encode_frame("y", {"k": 2}, {"a": np.arange(5.0)})
        frame = read_frame_from(io.BytesIO(raw + encode_frame("z")))
        assert frame.kind == "y" and np.array_equal(
            frame.arrays["a"], np.arange(5.0)
        )

    def test_blocking_reader_eof_and_truncation(self):
        assert read_frame_from(io.BytesIO(b"")) is None
        raw = encode_frame("y", {}, {"a": np.arange(5.0)})
        for cut in (3, _HEAD_SIZE + 2, len(raw) - 1):
            with pytest.raises(ProtocolError):
                read_frame_from(io.BytesIO(raw[:cut]))


def test_rep301_covers_frames_module():
    """The no-pickle/no-np.load static check must include frames.py."""
    from repro.analysis.checkers.serialization import SERIAL_PATHS

    assert "repro/serve/frames.py" in SERIAL_PATHS
    assert "repro/serve/container.py" in SERIAL_PATHS
