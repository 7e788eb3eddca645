"""Serialisation hygiene: narrowed decode errors, the dtype gate and
exact size checks.

The serial module's decode paths catch only ``_DECODE_ERRORS`` (the
exceptions malformed-but-parseable payloads can legitimately raise) —
resource failures like ``MemoryError`` and control-flow exceptions like
``KeyboardInterrupt`` must *propagate*, never be laundered into "corrupt
entry" and quarantined — containers accept only plain numeric dtypes at
both pack and load time, and an array table's sizes are compared in
exact integers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.serve.serial as serial
from repro.core import plan
from repro.errors import StoreError
from repro.serve.serial import (
    _DECODE_ERRORS,
    _normalised_table,
    pack_container,
    plan_from_bytes,
    plan_from_payload,
    plan_payload,
    plan_to_bytes,
    tcplan_from_payload,
    unpack_container,
)
from tests.conftest import random_csr


@pytest.fixture(scope="module")
def built_plan():
    return plan(random_csr(seed=21), feature_dim=16)


class _Interrupting(dict):
    """A table entry whose first key lookup raises KeyboardInterrupt."""

    def __getitem__(self, key):
        raise KeyboardInterrupt


# ----------------------------------------------------------------------
# decode-error narrowing
# ----------------------------------------------------------------------
class TestDecodeErrorNarrowing:
    def test_decode_errors_exclude_resource_failures(self):
        for exc in (MemoryError, KeyboardInterrupt, SystemExit, OSError):
            assert not issubclass(exc, _DECODE_ERRORS)

    def test_malformed_payload_still_becomes_store_error(self, built_plan):
        meta, arrays = plan_payload(built_plan)
        broken = dict(meta)
        del broken["config"]  # KeyError inside the decode path
        with pytest.raises(StoreError):
            plan_from_payload(broken, arrays)

    def test_memory_error_propagates_from_plan_decode(
        self, built_plan, monkeypatch
    ):
        meta, arrays = plan_payload(built_plan)

        def boom(name):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(serial, "get_device", boom)
        with pytest.raises(MemoryError):
            plan_from_payload(meta, arrays)

    def test_memory_error_propagates_from_tcplan_decode(
        self, built_plan, monkeypatch
    ):
        meta, arrays = plan_payload(built_plan)

        def boom(**kwargs):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(serial, "TBAssignment", boom)
        with pytest.raises(MemoryError):
            tcplan_from_payload(meta["tc"], arrays)

    def test_keyboard_interrupt_propagates_from_table_parse(self):
        with pytest.raises(KeyboardInterrupt):
            _normalised_table({"arrays": [_Interrupting()]})

    def test_malformed_table_still_becomes_store_error(self):
        with pytest.raises(StoreError, match="malformed array table"):
            _normalised_table({"arrays": [{"name": "a"}]})


# ----------------------------------------------------------------------
# the dtype whitelist
# ----------------------------------------------------------------------
class TestDtypeWhitelist:
    def test_container_roundtrip_still_works(self, built_plan):
        restored = plan_from_bytes(plan_to_bytes(built_plan))
        B = np.ones((built_plan.csr.n_cols, 8), dtype=np.float32)
        assert np.array_equal(restored.multiply(B), built_plan.multiply(B))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array(["not", "numeric"]),  # unicode
            np.array([b"raw", b"bytes"]),  # bytes
            np.array([1, "mixed"], dtype=object),  # object (pickles!)
            np.array(["2026-08-07"], dtype="datetime64[D]"),
        ],
        ids=["unicode", "bytes", "object", "datetime64"],
    )
    def test_pack_rejects_non_numeric_dtypes(self, bad):
        with pytest.raises(StoreError, match="plain numeric dtypes"):
            pack_container("x", {}, {"bad": bad})

    def test_numeric_kinds_all_pack(self):
        arrays = {
            "b": np.array([True, False]),
            "i": np.array([-1, 2], dtype=np.int32),
            "u": np.array([1, 2], dtype=np.uint64),
            "f": np.array([0.5], dtype=np.float32),
        }
        header, out = unpack_container(pack_container("x", {}, arrays))
        for name, arr in arrays.items():
            assert np.array_equal(out[name], arr)

    def test_load_rejects_header_declared_bad_dtype(self):
        # a well-formed table whose dtype is outside the whitelist: the
        # reader must refuse before any frombuffer/memmap happens
        entry = {
            "name": "a",
            "dtype": "<U4",
            "shape": [2],
            "offset": 0,
            "nbytes": 32,
        }
        with pytest.raises(StoreError, match="plain numeric dtypes"):
            _normalised_table({"arrays": [entry]})

    def test_load_rejects_tampered_container(self, built_plan):
        # flip one table entry's declared dtype to a string type in the
        # raw header JSON of a real container
        blob = plan_to_bytes(built_plan)
        hlen = int.from_bytes(blob[12:20], "little")
        header = blob[20 : 20 + hlen]
        tampered = header.replace(b'"dtype":"<f4"', b'"dtype":"<U1"', 1)
        assert tampered != header  # the container does carry f4 arrays
        # same length header (U1 itemsize differs but JSON length is
        # what the fixed head declares, and we kept byte length equal)
        assert len(tampered) == len(header)
        patched = blob[:20] + tampered + blob[20 + hlen :]
        with pytest.raises(StoreError):
            unpack_container(patched)


# ----------------------------------------------------------------------
# array-table sizes
# ----------------------------------------------------------------------
def _container_with_table(table: list, payload: bytes) -> bytes:
    """A container whose header carries ``table`` verbatim."""
    header = json.dumps({"kind": "x", "meta": {}, "arrays": table}).encode()
    head = serial._HEAD.pack(
        serial.MAGIC, serial.PLAN_FORMAT_VERSION, len(header)
    ) + header
    return head + b"\x00" * (serial._align(len(head)) - len(head)) + payload


class TestTableSizes:
    def test_wrapping_element_count_is_rejected(self, tmp_path):
        # 3 * 6148914691236517206 is 2**64 + 2: in int64 arithmetic the
        # element count wraps to 2 and matches the declared 2 bytes
        entry = {
            "name": "a",
            "dtype": "|i1",
            "shape": [3, 6148914691236517206],
            "offset": 0,
            "nbytes": 2,
        }
        blob = _container_with_table([entry], b"\x01\x02")
        with pytest.raises(StoreError, match="inconsistent sizes"):
            unpack_container(blob)
        path = tmp_path / "wrapped.plan"
        path.write_bytes(blob)
        with pytest.raises(StoreError, match="inconsistent sizes"):
            unpack_container(path=path)

    @pytest.mark.parametrize(
        "table, payload",
        [
            (
                [{"name": "a", "dtype": "<i4", "shape": [3.9],
                  "offset": 0, "nbytes": "12"}],
                bytes(12),
            ),
            (
                [{"name": "a", "dtype": "|i1", "shape": [True, 3],
                  "offset": 0, "nbytes": 3}],
                bytes(3),
            ),
            (
                [{"name": "a", "dtype": "|i1", "shape": [2],
                  "offset": 0.0, "nbytes": 2}],
                bytes(2),
            ),
            (
                [{"name": 7, "dtype": "|i1", "shape": [2],
                  "offset": 0, "nbytes": 2}],
                bytes(2),
            ),
            (
                [{"name": "a", "dtype": "|i1", "shape": [2],
                  "offset": 0, "nbytes": 2}] * 2,
                bytes(2),
            ),
        ],
        ids=[
            "float-shape-string-nbytes", "bool-shape", "float-offset",
            "int-name", "duplicate-name",
        ],
    )
    def test_fields_are_not_coerced(self, tmp_path, table, payload):
        # each of these once loaded, coerced by int() and str(); the
        # wire decoder refuses the same tables
        blob = _container_with_table(table, payload)
        with pytest.raises(StoreError):
            unpack_container(blob)
        path = tmp_path / "coerced.plan"
        path.write_bytes(blob)
        with pytest.raises(StoreError):
            unpack_container(path=path)
