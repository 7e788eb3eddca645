"""Plan serialisation, the persistent store, and its cost-aware gc.

Covers the PR-3 acceptance criteria: ``from_bytes(to_bytes(plan))``
multiplies bit-for-bit across all three TC kernels, a second process
warm-started from the store skips planning (verified via engine stats)
and matches results exactly, corrupt entries are quarantined without
crashing the engine, and the cache's counters/byte accounting stay
consistent after a failed store-load fallback.
"""

from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.planner import AccPlan
from repro.errors import StoreError, StoreVersionError
from repro.kernels.accspmm import AccSpMMKernel
from repro.kernels.dtc import DTCKernel
from repro.kernels.tc_common import execute_tiled
from repro.kernels.tcgnn import TCGNNKernel
from repro.gpusim.specs import get_device
from repro.serve import serial
from repro.serve.container import align
from repro.serve.fingerprint import config_fingerprint, fingerprint
from repro.serve.serial import (
    PLAN_FORMAT_VERSION,
    pack_container,
    plan_from_bytes,
    read_header,
    tcplan_from_payload,
    tcplan_payload,
    unpack_container,
)
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import erdos_renyi, powerlaw_graph

DEVICE = get_device("a800")


def make_csr(seed=0, n=256, deg=8.0):
    return coo_to_csr(erdos_renyi(n, avg_degree=deg, seed=seed))


def make_b(csr, n=32, seed=9):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


# ----------------------------------------------------------------------
# serialisation round trips
# ----------------------------------------------------------------------
class TestSerialRoundTrip:
    def test_accplan_bit_for_bit(self):
        csr = make_csr(seed=3)
        B = make_b(csr)
        p = repro.plan(csr, feature_dim=32)
        C0 = p.multiply(B)
        p2 = AccPlan.from_bytes(p.to_bytes())
        assert np.array_equal(C0, p2.multiply(B))
        assert p2.config == p.config
        assert p2.device.name == p.device.name
        assert p2.feature_dim == p.feature_dim
        assert p2.build_seconds == pytest.approx(p.build_seconds)
        assert p2.csr.nnz == p.csr.nnz

    @pytest.mark.parametrize(
        "kernel_cls", [AccSpMMKernel, DTCKernel, TCGNNKernel]
    )
    def test_tcplan_bit_for_bit_all_kernels(self, kernel_cls):
        csr = coo_to_csr(powerlaw_graph(256, avg_degree=10.0, seed=6))
        B = make_b(csr, n=24)
        tc = kernel_cls().plan(csr, 24, DEVICE)
        C0 = execute_tiled(tc, B)
        tc2 = tcplan_from_payload(*tcplan_payload(tc))
        assert tc2.name == tc.name
        assert tc2.pipeline_mode == tc.pipeline_mode
        assert np.array_equal(C0, execute_tiled(tc2, B))

    def test_bilateral_reorder_alias_preserved(self):
        from repro.reorder.affinity import reorder_bilateral

        csr = make_csr(seed=8, n=128, deg=6.0)
        ro = reorder_bilateral(csr)
        assert ro.col_perm is ro.row_perm
        tc = AccSpMMKernel(reorder=ro).plan(csr, 16, DEVICE)
        tc2 = tcplan_from_payload(*tcplan_payload(tc))
        assert tc2.reorder.col_perm is tc2.reorder.row_perm
        B = make_b(csr, n=16)
        assert np.array_equal(execute_tiled(tc, B), execute_tiled(tc2, B))


class TestContainerValidation:
    def test_bad_magic(self):
        with pytest.raises(StoreError):
            unpack_container(b"NOTAPLAN" + b"\x00" * 64)

    def test_truncated(self):
        csr = make_csr()
        data = repro.plan(csr, feature_dim=16).to_bytes()
        with pytest.raises(StoreError):
            plan_from_bytes(data[: len(data) // 2])

    def test_version_rejected(self):
        csr = make_csr()
        data = bytearray(repro.plan(csr, feature_dim=16).to_bytes())
        data[8:12] = (PLAN_FORMAT_VERSION + 1).to_bytes(4, "little")
        with pytest.raises(StoreVersionError):
            plan_from_bytes(bytes(data))

    def test_wrong_kind(self):
        blob = pack_container("accdelta", {}, {})
        with pytest.raises(StoreError):
            plan_from_bytes(blob)

    def test_garbage_header(self):
        blob = bytearray(pack_container("accplan", {"x": 1}, {}))
        blob[21] = 0xFF  # inside the JSON header
        with pytest.raises(StoreError):
            unpack_container(bytes(blob))

    def test_config_fingerprint_is_content_keyed(self):
        a = repro.AccConfig.paper_default()
        b = repro.AccConfig()  # equal content, distinct object
        c = repro.AccConfig.baseline()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(c)


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
def _cut_in_array(data: bytes) -> bytes:
    header, data_start = read_header(data)
    big = max(header["arrays"], key=lambda e: e["nbytes"])
    return data[: data_start + big["offset"] + big["nbytes"] // 2]


def _string_nbytes(data: bytes) -> bytes:
    """The entry re-packed with its first array's ``nbytes`` as a string
    (the reader once coerced it with ``int()`` and served the plan)."""
    header, data_start = read_header(data)
    del header["format_version"]  # lives in the fixed head
    first = header["arrays"][0]
    first["nbytes"] = str(first["nbytes"])
    raw = json.dumps(header).encode()
    head = serial._HEAD.pack(
        serial.MAGIC, serial.PLAN_FORMAT_VERSION, len(raw)
    ) + raw
    return head + bytes(align(len(head)) - len(head)) + data[data_start:]


def _broken_index(case: str):
    """A breaker putting one tiling or row-order index out of range,
    or storing a tiling index array as floats.

    The executor gathers with ``mode="clip"``, which clamps a bad index
    instead of raising: a file with a column out of range once loaded
    and multiplied to a wrong C, one with a short row order (or an
    ``n_rows_original`` of -1) to a C a row short.  That row order
    stays a permutation (of one row fewer), so only its fit to the
    tiling is wrong.  A float64 index array of integral values once
    loaded and then failed every multiply with a ``TypeError``.
    """

    def breaker(data: bytes) -> bytes:
        header, arrays = unpack_container(data)
        meta, arrays = header["meta"], dict(arrays)
        slots = np.array(arrays["tiling.sparse_a_to_b"])
        column = np.flatnonzero(slots >= 0)[0]
        order = arrays["reorder.row_order"]
        if case == "column_n_cols":
            slots[column] = meta["tc"]["tiling"]["n_cols"]
        elif case == "column_minus_two":
            slots[column] = -2
        elif case == "slots_length":
            slots = slots[:-1]
        elif case == "row_order_length":
            arrays["reorder.row_order"] = order[order != order.size - 1]
        elif case == "sparse_a_to_b_float":
            slots = slots.astype(np.float64)
        elif case == "tc_offset_float":
            offsets = arrays["tiling.tc_offset"]
            arrays["tiling.tc_offset"] = offsets.astype(np.float64)
        elif case == "n_rows_original_negative":
            meta["tc"]["n_rows_original"] = -1
        elif case == "n_rows_original_under":
            meta["tc"]["n_rows_original"] -= 1
        else:
            assert case == "n_rows_original_over"
            meta["tc"]["n_rows_original"] += 1
        arrays["tiling.sparse_a_to_b"] = slots
        return pack_container("accplan", meta, arrays)

    return breaker


#: each broken index, with the refusal it gets at decode
INDEX_BREAKS = {
    "column_n_cols": "out-of-range column",
    "column_minus_two": "out-of-range column",
    "slots_length": "wrong length",
    "row_order_length": "row order does not fit",
    "n_rows_original_over": "row order does not fit",
    "n_rows_original_negative": "n_rows_original does not fit",
    "n_rows_original_under": "n_rows_original does not fit",
    "sparse_a_to_b_float": "not an integer array",
    "tc_offset_float": "not an integer array",
}

#: ways to break a stored entry, each turning its bytes into new bytes
BROKEN_ENTRIES = {
    "garbage": lambda data: b"garbage" * 100,
    "empty": lambda data: b"",
    "cut_in_fixed_header": lambda data: data[:10],
    "cut_in_json_header": lambda data: data[
        : serial._HEAD.size + int.from_bytes(data[12:20], "little") // 2
    ],
    "cut_in_array": _cut_in_array,
    "string_nbytes": _string_nbytes,
    **{f"index_{case}": _broken_index(case) for case in INDEX_BREAKS},
}

#: what a loading process can run short of, as opposed to a bad entry
RESOURCE_FAILURES = {
    "MemoryError": MemoryError("simulated allocation failure"),
    "EMFILE": OSError(errno.EMFILE, os.strerror(errno.EMFILE)),
    "ENFILE": OSError(errno.ENFILE, os.strerror(errno.ENFILE)),
    "ENOMEM": OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)),
}


@pytest.mark.parametrize("case", list(INDEX_BREAKS))
def test_out_of_range_index_is_refused_at_decode(case):
    data = repro.plan(make_csr(seed=5), feature_dim=32).to_bytes()
    with pytest.raises(StoreError, match=INDEX_BREAKS[case]):
        plan_from_bytes(_broken_index(case)(data))


def test_negative_n_rows_original_is_refused_without_the_csr():
    tc = AccSpMMKernel().plan(make_csr(seed=5), 16, DEVICE)
    meta, arrays = tcplan_payload(tc)  # no original CSR to compare with
    meta["n_rows_original"] = -1
    with pytest.raises(StoreError, match="n_rows_original does not fit"):
        tcplan_from_payload(meta, arrays)


class TestPlanStore:
    def test_put_get_round_trip(self, tmp_path):
        csr = make_csr(seed=11)
        B = make_b(csr)
        p = repro.plan(csr, feature_dim=32)
        C0 = p.multiply(B)
        store = PlanStore(tmp_path)
        fp = fingerprint(csr)
        assert store.put(fp, p.device.name, p.config, p)
        assert store.stats.puts == 1
        # no temp litter; exactly one published entry
        assert not list(tmp_path.glob(".tmp-*"))
        assert len(list(tmp_path.glob("*.plan"))) == 1
        p2 = store.get(fp, p.device.name, p.config)
        assert p2 is not None and store.stats.hits == 1
        assert np.array_equal(C0, p2.multiply(B))

    def test_miss_on_absent(self, tmp_path):
        store = PlanStore(tmp_path)
        csr = make_csr(seed=12)
        assert store.get(fingerprint(csr), "A800", repro.AccConfig()) is None
        assert store.stats.misses == 1

    @pytest.mark.parametrize(
        "breaker", list(BROKEN_ENTRIES.values()), ids=list(BROKEN_ENTRIES)
    )
    def test_corrupt_entry_quarantined_once(self, tmp_path, breaker):
        csr = make_csr(seed=13)
        p = repro.plan(csr, feature_dim=16)
        store = PlanStore(tmp_path)
        fp = fingerprint(csr)
        store.put(fp, p.device.name, p.config, p)
        path = next(tmp_path.glob("*.plan"))
        path.write_bytes(breaker(path.read_bytes()))
        assert store.get(fp, p.device.name, p.config) is None
        assert store.stats.quarantined == 1
        qdir = store.quarantine_dir
        assert (qdir / path.name).is_file()
        assert (qdir / f"{path.name}.reason").is_file()
        # second lookup: plain miss, no re-quarantine
        assert store.get(fp, p.device.name, p.config) is None
        assert store.stats.quarantined == 1
        assert store.stats.misses == 2

    @pytest.mark.parametrize(
        "failure", list(RESOURCE_FAILURES.values()),
        ids=list(RESOURCE_FAILURES),
    )
    def test_resource_failure_is_a_miss_not_a_quarantine(
        self, tmp_path, monkeypatch, failure
    ):
        csr = make_csr(seed=14)
        p = repro.plan(csr, feature_dim=16)
        store = PlanStore(tmp_path)
        fp = fingerprint(csr)
        assert store.put(fp, p.device.name, p.config, p)
        path = next(tmp_path.glob("*.plan"))

        def short_of_resources(*args, **kwargs):
            raise failure

        with monkeypatch.context() as m:
            m.setattr(serial, "unpack_container", short_of_resources)
            assert store.get(fp, p.device.name, p.config) is None
        assert path.is_file()
        assert store.stats.quarantined == 0
        assert store.stats.misses == 1
        assert store.stats.load_errors == 1
        assert not store.quarantine_dir.exists()
        # the entry was never at fault: the next load serves it
        assert store.get(fp, p.device.name, p.config) is not None
        assert store.stats.hits == 1

    def test_malformed_array_table_quarantined(self, tmp_path):
        # valid magic/version and parseable JSON, but a garbage array
        # table: must quarantine (StoreError), not leak a TypeError
        from repro.serve import serial

        csr = make_csr(seed=33)
        p = repro.plan(csr, feature_dim=16)
        store = PlanStore(tmp_path)
        fp = fingerprint(csr)
        store.put(fp, p.device.name, p.config, p)
        path = next(tmp_path.glob("*.plan"))
        header = json.dumps(
            {"kind": "accplan", "meta": {}, "arrays": ["oops"]}
        ).encode()
        path.write_bytes(
            serial._HEAD.pack(
                serial.MAGIC, serial.PLAN_FORMAT_VERSION, len(header)
            )
            + header
        )
        assert store.get(fp, p.device.name, p.config) is None
        assert store.stats.quarantined == 1

    def test_version_skew_quarantined(self, tmp_path):
        csr = make_csr(seed=14)
        p = repro.plan(csr, feature_dim=16)
        store = PlanStore(tmp_path)
        fp = fingerprint(csr)
        store.put(fp, p.device.name, p.config, p)
        path = next(tmp_path.glob("*.plan"))
        data = bytearray(path.read_bytes())
        data[8:12] = (PLAN_FORMAT_VERSION + 9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        assert store.get(fp, p.device.name, p.config) is None
        assert store.stats.quarantined == 1

    def test_fingerprint_mismatch_quarantined(self, tmp_path):
        csr_a, csr_b = make_csr(seed=15), make_csr(seed=16)
        p = repro.plan(csr_a, feature_dim=16)
        store = PlanStore(tmp_path)
        fp_a, fp_b = fingerprint(csr_a), fingerprint(csr_b)
        store.put(fp_a, p.device.name, p.config, p)
        src = store.path_for(store.digest(fp_a, p.device.name, p.config))
        dst = store.path_for(store.digest(fp_b, p.device.name, p.config))
        dst.write_bytes(src.read_bytes())  # a lying entry for B's key
        assert store.get(fp_b, p.device.name, p.config) is None
        assert store.stats.quarantined == 1
        # the honest entry still serves
        assert store.get(fp_a, p.device.name, p.config) is not None

    def test_gc_evicts_cheapest_first(self, tmp_path):
        store = PlanStore(tmp_path)
        plans = []
        for seed, cost in ((18, 5.0), (19, 0.001), (20, 2.0)):
            csr = make_csr(seed=seed, n=128, deg=4.0)
            p = repro.plan(csr, feature_dim=16)
            p.build_seconds = cost  # fabricated rebuild cost
            store.put(fingerprint(csr), p.device.name, p.config, p)
            plans.append((cost, p))
        sizes = {e.digest: e.nbytes for e in store.entries()}
        total = sum(sizes.values())
        evicted = store.gc(max_bytes=total - 1)
        assert evicted and evicted[0].build_seconds == pytest.approx(0.001)
        remaining = {e.build_seconds for e in store.entries()}
        assert 5.0 in remaining  # the expensive plan survives pressure

    def test_non_numeric_build_seconds_ranks_cheapest(self, tmp_path):
        # a header holding "build_seconds": "slow" once made the
        # warm start's sort key raise ValueError
        for root in (tmp_path / "warm", tmp_path / "gc"):
            store = PlanStore(root)
            for seed, cost in ((37, 3.0), (38, 0.5), (39, 2.0)):
                csr = make_csr(seed=seed, n=128, deg=4.0)
                p = repro.plan(csr, feature_dim=16)
                p.build_seconds = cost
                store.put(fingerprint(csr), p.device.name, p.config, p)
            (slow,) = [e for e in store.entries() if e.build_seconds == 3.0]
            header, arrays = unpack_container(slow.path.read_bytes())
            header["meta"]["build_seconds"] = "slow"
            slow.path.write_bytes(
                pack_container("accplan", header["meta"], arrays)
            )
        # a worker warm-starts past it (its load quarantines the entry)
        # and loads every other entry
        worker = repro.SpMMEngine(store=PlanStore(tmp_path / "warm"))
        assert worker.warm_start() == 2
        # gc prices it at 0.0, like an unreadable header: it goes first
        store = PlanStore(tmp_path / "gc")
        costs = sorted(e.build_seconds for e in store.entries())
        assert costs == [0.0, 0.5, 2.0]
        evicted = store.gc(max_bytes=store.total_bytes() - 1)
        assert [e.digest for e in evicted] == [slow.digest]

    def test_entries_and_as_dict(self, tmp_path):
        store = PlanStore(tmp_path)
        assert store.entries() == [] and store.total_bytes() == 0
        csr = make_csr(seed=21)
        p = repro.plan(csr, feature_dim=16)
        store.put(fingerprint(csr), p.device.name, p.config, p)
        (e,) = store.entries()
        assert e.meta["fingerprint"]["nnz"] == csr.nnz
        assert e.build_seconds == pytest.approx(p.build_seconds)
        d = store.as_dict()
        assert d["entries"] == 1 and d["stored_bytes"] == e.nbytes


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
class TestEngineStore:
    def test_second_engine_skips_planning(self, tmp_path):
        csr = make_csr(seed=22)
        B = make_b(csr)
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C0 = e1.spmm(csr, B)
        assert e1.stats["plans_built"] == 1
        assert e1.stats["store"]["puts"] == 1

        e2 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C1 = e2.spmm(csr, B)
        s = e2.stats
        assert s["plans_built"] == 0 and s["store_hits"] == 1
        assert np.array_equal(C0, C1)

    def test_store_accepts_path(self, tmp_path):
        engine = repro.SpMMEngine(store=str(tmp_path))
        assert isinstance(engine.store, PlanStore)
        assert engine.store.root == Path(tmp_path)

    def test_warm_start_serves_pure_hits(self, tmp_path):
        csr = make_csr(seed=23)
        B = make_b(csr)
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C0 = e1.spmm(csr, B)

        e2 = repro.SpMMEngine(store=PlanStore(tmp_path))
        assert e2.warm_start() == 1
        s = e2.stats
        assert s["requests"] == 0  # provisioning is not traffic
        C1 = e2.spmm(csr, B)
        s = e2.stats
        assert s["hits"] == 1 and s["misses"] == 0
        assert s["plans_built"] == 0 and s["store_hits"] == 0
        assert np.array_equal(C0, C1)

    def test_warm_start_without_store(self):
        assert repro.SpMMEngine().warm_start() == 0

    def test_warm_start_bounded_cache_keeps_expensive_plans(self, tmp_path):
        store = PlanStore(tmp_path)
        costs = {34: 0.004, 35: 12.0, 36: 0.009}
        for seed, cost in costs.items():
            csr = make_csr(seed=seed, n=128, deg=4.0)
            p = repro.plan(csr, feature_dim=16)
            p.build_seconds = cost
            store.put(fingerprint(csr), p.device.name, p.config, p)
        engine = repro.SpMMEngine(capacity=1, store=PlanStore(tmp_path))
        # capacity bounds deserialisation too: one load, not three
        assert engine.warm_start() == 1
        (kept,) = engine.cache.values()
        assert kept.build_seconds == pytest.approx(12.0)

    def test_failed_store_load_fallback_keeps_stats_consistent(
        self, tmp_path
    ):
        # the PR-3 ride-along regression: a quarantined entry must leave
        # the cache counters and byte accounting exactly as a plain miss
        csr = make_csr(seed=24)
        B = make_b(csr)
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C0 = e1.spmm(csr, B)
        path = next(Path(tmp_path).glob("*.plan"))
        path.write_bytes(path.read_bytes()[:100])  # truncate

        e2 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C1 = e2.spmm(csr, B)
        assert np.array_equal(C0, C1)
        s = e2.stats
        assert s["requests"] == 1 and s["misses"] == 1 and s["hits"] == 0
        assert s["plans_built"] == 1 and s["store_hits"] == 0
        assert s["store_misses"] == 1
        assert s["store"]["quarantined"] == 1
        assert s["cached_plans"] == 1
        # byte accounting matches the one real entry
        from repro.serve.engine import plan_nbytes

        p = e2.get_plan(csr, feature_dim=B.shape[1])
        assert e2.cache.total_bytes() == plan_nbytes(p)
        # the rebuilt plan was re-persisted, so a third engine store-hits
        e3 = repro.SpMMEngine(store=PlanStore(tmp_path))
        e3.spmm(csr, B)
        assert e3.stats["store_hits"] == 1

    def test_store_path_strips_adaptive_mode(self, tmp_path):
        csr = make_csr(seed=25)
        B = make_b(csr)
        p = repro.plan(csr, feature_dim=32).prepare(
            numerics="tf32", max_bytes=1024
        )
        store = PlanStore(tmp_path)
        store.put(fingerprint(csr), p.device.name, p.config, p)
        (entry,) = store.entries()
        assert entry.meta["tc"]["meta"]["exec_max_bytes"] == 1024
        served = repro.SpMMEngine(store=store)
        warmed = repro.SpMMEngine(store=store)
        assert warmed.warm_start() == 1
        for engine in (served, warmed):
            got = engine.get_plan(csr, feature_dim=32)
            # the writer's materialisation budget must not leak into
            # this engine, whether the store served the plan or a warm
            # start preloaded it
            assert "exec_max_bytes" not in got.tc_plan.meta
            # exact-mode result == reference bit-for-bit
            assert np.array_equal(
                engine.spmm(csr, B), repro.spmm(csr, B, use_cache=False)
            )
        assert served.stats["store_hits"] == 1
        assert warmed.stats["store_hits"] == 0

    def test_value_refresh_preferred_over_store(self, tmp_path):
        csr = make_csr(seed=26)
        B = make_b(csr)
        engine = repro.SpMMEngine(store=PlanStore(tmp_path))
        engine.spmm(csr, B)
        csr2 = repro.CSRMatrix(
            csr.n_rows, csr.n_cols, csr.indptr, csr.indices, csr.vals * 2.0
        )
        engine.spmm(csr2, B)
        s = engine.stats
        assert s["value_refreshes"] == 1 and s["plans_built"] == 1
        # only the full build was persisted: refreshes under training
        # traffic must not write one dead entry per weight update
        assert s["store"]["puts"] == 1


# ----------------------------------------------------------------------
# cross-process warm start (the acceptance criterion, literally)
# ----------------------------------------------------------------------
_CHILD = """
import hashlib, json, sys
import numpy as np
import repro
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import erdos_renyi

csr = coo_to_csr(erdos_renyi(256, avg_degree=8.0, seed=27))
B = np.random.default_rng(9).uniform(-1.0, 1.0, (csr.n_cols, 32)).astype(np.float32)
engine = repro.SpMMEngine(store=PlanStore(sys.argv[1]))
engine.warm_start()
C = engine.spmm(csr, B)
s = engine.stats
print(json.dumps({
    "plans_built": s["plans_built"],
    "hits": s["hits"],
    "store_hits": s["store_hits"],
    "sha": hashlib.sha256(np.ascontiguousarray(C).tobytes()).hexdigest(),
}))
"""


class TestCrossProcess:
    def test_second_process_warm_starts_bit_for_bit(self, tmp_path):
        csr = coo_to_csr(erdos_renyi(256, avg_degree=8.0, seed=27))
        B = (
            np.random.default_rng(9)
            .uniform(-1.0, 1.0, (csr.n_cols, 32))
            .astype(np.float32)
        )
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path))
        C0 = e1.spmm(csr, B)
        sha0 = hashlib.sha256(np.ascontiguousarray(C0).tobytes()).hexdigest()

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["plans_built"] == 0  # planning skipped entirely
        assert result["hits"] == 1  # warm_start made it a pure hit
        assert result["sha"] == sha0  # bit-for-bit across processes


# ----------------------------------------------------------------------
# one map per loaded plan
# ----------------------------------------------------------------------
def store_plans(root, k: int) -> None:
    """Serve ``k`` distinct small matrices through a store-backed engine,
    so ``root`` holds ``k`` plans (19 arrays each)."""
    engine = repro.SpMMEngine(store=PlanStore(root))
    for seed in range(k):
        csr = make_csr(seed=40 + seed, n=96, deg=5.0)
        engine.spmm(csr, make_b(csr, n=8))
    assert len(list(Path(root).glob("*.plan"))) == k


def descriptors_under(root, collect: bool = True) -> int:
    """This process's open descriptors on files under ``root`` (other
    threads' files do not count); ``collect`` runs the cycle collector
    first."""
    if collect:
        gc.collect()
    prefix = str(Path(root).resolve()) + os.sep
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}").startswith(prefix)
        except OSError:
            pass  # closed since the listing
    return n


_LOW_NOFILE_CHILD = """
import json, resource, sys
limit = int(sys.argv[2])
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
import repro
from repro.serve.store import PlanStore
store = PlanStore(sys.argv[1])
loaded = repro.SpMMEngine(store=store).warm_start()
print(json.dumps({"loaded": loaded, **store.counters()}))
"""


class TestOneMapPerPlan:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"),
        reason="counts descriptors in /proc/self/fd",
    )
    def test_warm_start_holds_one_descriptor_per_plan(self, tmp_path):
        k = 4
        store_plans(tmp_path, k)
        assert descriptors_under(tmp_path) == 0
        engine = repro.SpMMEngine(store=PlanStore(tmp_path))
        assert engine.warm_start() == k
        assert descriptors_under(tmp_path) <= k
        # each map closes with the last array viewing it
        del engine
        assert descriptors_under(tmp_path) == 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"),
        reason="counts descriptors in /proc/self/fd",
    )
    def test_engine_frees_its_maps_without_the_collector(self, tmp_path):
        k = 4
        store_plans(tmp_path, k)
        engine = repro.SpMMEngine(store=PlanStore(tmp_path))
        assert engine.warm_start() == k
        assert 0 < descriptors_under(tmp_path) <= k
        gc.disable()
        try:
            # a reference cycle through the engine (or a wrapper holding
            # it) would hold every map open until the collector ran
            del engine
            assert descriptors_under(tmp_path, collect=False) == 0
        finally:
            gc.enable()

    def test_warm_start_under_a_low_descriptor_limit(self, tmp_path):
        pytest.importorskip("resource")
        k, limit = 8, 64  # one descriptor per array would need 19 * k
        store_plans(tmp_path, k)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _LOW_NOFILE_CHILD, str(tmp_path),
             str(limit)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["loaded"] == k
        assert result["quarantined"] == 0
        assert result["load_errors"] == 0
        assert len(list(tmp_path.glob("*.plan"))) == k


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStoreCLI:
    def test_help_smoke(self):
        from repro.serve.store import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0

    def test_inspect_empty_and_populated(self, tmp_path, capsys):
        from repro.serve.store import main

        assert main(["--root", str(tmp_path), "inspect"]) == 0
        csr = make_csr(seed=28)
        p = repro.plan(csr, feature_dim=16)
        PlanStore(tmp_path).put(fingerprint(csr), p.device.name, p.config, p)
        assert main(["--root", str(tmp_path), "inspect"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "acc-spmm" in out

    def test_gc_cli(self, tmp_path, capsys):
        from repro.serve.store import main

        csr = make_csr(seed=29)
        p = repro.plan(csr, feature_dim=16)
        PlanStore(tmp_path).put(fingerprint(csr), p.device.name, p.config, p)
        assert main(["--root", str(tmp_path), "gc", "--max-bytes", "1"]) == 0
        assert "0 entries" in capsys.readouterr().out
