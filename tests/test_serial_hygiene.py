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

import hashlib
import json

import numpy as np
import pytest

import repro.serve.serial as serial
from repro.core import plan
from repro.errors import StoreError
from repro.serve.container import align, check_table
from repro.serve.serial import (
    _DECODE_ERRORS,
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
            check_table([_Interrupting()], 0, StoreError)

    def test_malformed_table_still_becomes_store_error(self):
        with pytest.raises(StoreError, match="malformed array table"):
            check_table([{"name": "a"}], 0, StoreError)


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
            check_table([entry], 32, StoreError)

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
    return head + b"\x00" * (align(len(head)) - len(head)) + payload


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
            (
                # np.dtype raises SyntaxError here, not TypeError/ValueError
                [{"name": "a", "dtype": ",8", "shape": [2],
                  "offset": 0, "nbytes": 2}],
                bytes(2),
            ),
        ],
        ids=[
            "float-shape-string-nbytes", "bool-shape", "float-offset",
            "int-name", "duplicate-name", "syntax-error-dtype",
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


# ----------------------------------------------------------------------
# plan payloads: every malformation is a StoreError
# ----------------------------------------------------------------------
def _repacked(blob: bytes, mutate) -> bytes:
    """``blob`` with its header dict passed through ``mutate`` (the data
    section moved to the new 64-byte boundary)."""
    header, data_start = serial.read_header(blob)
    del header["format_version"]  # lives in the fixed head
    mutate(header)
    raw = json.dumps(header).encode()
    head = serial._HEAD.pack(serial.MAGIC, serial.PLAN_FORMAT_VERSION, len(raw))
    head += raw
    return head + bytes(align(len(head)) - len(head)) + blob[data_start:]


class TestPlanPayload:
    def test_header_without_meta_is_a_store_error(self, built_plan):
        blob = _repacked(plan_to_bytes(built_plan), lambda h: h.pop("meta"))
        with pytest.raises(StoreError):
            plan_from_bytes(blob)

    def test_decreasing_indptr_is_a_store_error(self, built_plan):
        # CSRMatrix raises FormatError, which is not a ValueError
        meta, arrays = plan_payload(built_plan)
        indptr = arrays["csr.indptr"].copy()
        indptr[1:-1] = indptr[1:-1][::-1]
        assert (np.diff(indptr) < 0).any()
        arrays["csr.indptr"] = indptr
        with pytest.raises(StoreError, match="non-decreasing"):
            plan_from_bytes(pack_container("accplan", meta, arrays))

    @pytest.mark.parametrize(
        "field", ["csr.n_rows", "csr.n_cols", "tiling.window_rows"]
    )
    @pytest.mark.parametrize("spelling", [float, str], ids=["float", "str"])
    def test_integer_fields_are_not_coerced(self, built_plan, field, spelling):
        # int() once read 64.0 and "64" as 64 and loaded the plan
        meta, arrays = plan_payload(built_plan)
        block, key = field.split(".")
        meta["tc"][block][key] = spelling(meta["tc"][block][key])
        with pytest.raises(StoreError, match="integer"):
            plan_from_bytes(pack_container("accplan", meta, arrays))

    def test_bool_dimension_is_not_an_int(self):
        one_row = plan(random_csr(n_rows=1, density=0.5, seed=3), feature_dim=16)
        meta, arrays = plan_payload(one_row)
        assert meta["tc"]["csr"]["n_rows"] == 1
        meta["tc"]["csr"]["n_rows"] = True
        with pytest.raises(StoreError, match="integer"):
            plan_from_bytes(pack_container("accplan", meta, arrays))

    def test_random_byte_flips_never_escape(self):
        """Any single-byte corruption of a plan file either still loads
        or raises StoreError."""
        raw = plan_to_bytes(plan(random_csr(seed=21), feature_dim=16))
        rng = np.random.default_rng(7)
        for _ in range(300):
            bad = bytearray(raw)
            pos = int(rng.integers(0, len(bad)))
            bad[pos] ^= int(rng.integers(1, 256))
            try:
                plan_from_bytes(bytes(bad))
            except StoreError:
                continue


# ----------------------------------------------------------------------
# pinned plan-file bytes
# ----------------------------------------------------------------------
#: sha256 of the plan below, as written by format v4; a codec change
#: that alters one byte of a plan file fails here
PINNED_PLAN_SHA256 = (
    "25c85d2a02a810eb9bb9d0351689e19a349a8fd2a02d92d4a144537c9baf4602"
)

#: sha256 of the same plan as older writers wrote it, with a copy of the
#: exact executor's gather geometry in an ``exec`` block
EXEC_BLOCK_PLAN_SHA256 = (
    "42623652bceefe2e421f074e9eb63ee7b101038d4f1840f3de6684a5f12960b2"
)


@pytest.fixture
def pinned_plan(monkeypatch):
    p = plan(random_csr(seed=21), feature_dim=16)
    p.build_seconds = 0.5
    monkeypatch.setattr(serial, "_wall_clock", lambda: 1.0e9)
    return p


def test_plan_file_bytes_are_pinned(pinned_plan):
    # a compiled executor leaves no trace in the file
    pinned_plan.multiply(np.ones((pinned_plan.csr.n_cols, 8), dtype=np.float32))
    digest = hashlib.sha256(plan_to_bytes(pinned_plan)).hexdigest()
    assert digest == PINNED_PLAN_SHA256


def test_a_file_with_an_exec_block_loads_and_ignores_it(pinned_plan):
    p = pinned_plan
    meta, arrays = plan_payload(p)
    slots = p.tc_plan.tiling.sparse_a_to_b
    meta["exec"] = {"materialized": True, "numerics": "exact"}
    arrays["exec.out_rank"] = p.tc_plan.reorder.row_perm.rank[
        : p.tc_plan.n_rows_original
    ]
    arrays["exec.pos_all"] = np.maximum(slots, 0)
    arrays["exec.pad_all"] = np.flatnonzero(slots < 0)
    blob = pack_container("accplan", meta, arrays)
    assert hashlib.sha256(blob).hexdigest() == EXEC_BLOCK_PLAN_SHA256
    B = np.random.default_rng(4).standard_normal((p.csr.n_cols, 8))
    B = B.astype(np.float32)
    C = plan_from_bytes(blob).multiply(B)
    assert np.array_equal(C.view(np.uint32), p.multiply(B).view(np.uint32))
