"""Fault-injection and traffic-management tests for repro.serve.server.

Everything here runs in-process: the connection handler is driven
directly with an ``asyncio.StreamReader`` (fed, stalled, or truncated
at will) and a :class:`FakeWriter` that records — or refuses — response
frames; batching tests hold the engine's first call on a gate and wait
for requests to queue behind it, and the quota buckets read an injected
clock.  No sockets, no wall-clock dependence
(``tests/test_server_sockets.py`` covers the real-network layer).  Each
fault must produce its documented error code and leave the counters
consistent — the server never hangs or silently drops.
"""

from __future__ import annotations

import asyncio
import io
import json
import struct

import numpy as np
import pytest

from repro.core.planner import AccPlan, plan as build_plan
from repro.errors import EngineClosedError, ValidationError
from repro.serve.engine import SpMMEngine
from repro.serve.frames import (
    _HEAD,
    _decode_body,
    _decode_header,
    encode_frame,
    read_frame_from,
)
from repro.serve.container import csr_to_payload, payload_to_csr
from repro.serve.server import ServerConfig, SpMMServer, _TokenBucket
from repro.serve.sharded import AsyncSpMMEngine
from repro.sparse.convert import coo_to_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.delta import GraphDelta
from repro.sparse.random import erdos_renyi

from engine_gate import EngineGate, queued, until


def make_csr(seed=0, n=64, deg=4.0):
    return coo_to_csr(erdos_renyi(n, avg_degree=deg, seed=seed))


def make_b(csr, n=8, seed=9):
    r = np.random.default_rng(seed)
    return r.uniform(-1.0, 1.0, size=(csr.n_cols, n)).astype(np.float32)


class FakeWriter:
    """Recording stream writer; optionally fails on drain (a peer that
    vanished mid-response)."""

    def __init__(self, fail_on_drain: bool = False):
        self.buf = bytearray()
        self.closed = False
        self.fail_on_drain = fail_on_drain

    def write(self, data) -> None:
        self.buf.extend(data)

    async def drain(self) -> None:
        if self.fail_on_drain:
            raise ConnectionResetError("peer went away")

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass

    def frames(self) -> list:
        """All response frames written so far, decoded."""
        out, f = [], io.BytesIO(bytes(self.buf))
        while (frame := read_frame_from(f)) is not None:
            out.append(frame)
        return out


def feed_reader(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


def multiply_frame(csr, B, **meta_extra) -> bytes:
    meta, arrays = csr_to_payload(csr)
    meta.update(meta_extra)
    arrays["b"] = B
    return encode_frame("multiply", meta, arrays)


def submit_frame(csr, **meta_extra) -> bytes:
    meta, arrays = csr_to_payload(csr)
    meta.update(meta_extra)
    return encode_frame("submit", meta, arrays)


async def run_connection(server, *request_frames, writer=None, eof=True):
    """Drive one fake connection through the server; returns the writer."""
    writer = writer or FakeWriter()
    await server._serve_connection(
        feed_reader(*request_frames, eof=eof), writer
    )
    return writer


def make_server(**kw) -> SpMMServer:
    config = kw.pop("config", None) or ServerConfig(**kw.pop("cfg", {}))
    return SpMMServer(
        engine=AsyncSpMMEngine(capacity=8), config=config, **kw
    )


# ----------------------------------------------------------------------
# request/response basics (the in-process client path)
# ----------------------------------------------------------------------
class TestDispatch:
    def test_multiply_round_trip_bit_for_bit(self):
        csr, B = make_csr(), None

        async def main():
            server = make_server()
            nonlocal B
            B = make_b(csr)
            w = await run_connection(server, multiply_frame(csr, B))
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert [f.kind for f in frames] == ["result"]
        ref = SpMMEngine().spmm(csr, make_b(csr))
        assert np.array_equal(frames[0].arrays["c"], ref)
        assert counters["results_sent"] == 1
        assert counters["internal_errors"] == 0
        assert counters["open_connections"] == 0

    def test_zero_dimension_matrices_answered_without_planning(self):
        # every multiply takes the fingerprint-and-batch path; the shard
        # answers a zero-dimension product without building a plan
        zero_rows = CSRMatrix(
            0, 8, np.zeros(1, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float32),
        )
        zero_cols = CSRMatrix(
            8, 0, np.zeros(9, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float32),
        )
        n = 4

        async def main():
            server = make_server()
            w = await run_connection(
                server,
                multiply_frame(zero_rows, np.ones((8, n), np.float32)),
                multiply_frame(zero_cols, np.ones((0, n), np.float32)),
                multiply_frame(zero_rows, np.ones((9, n), np.float32)),
                multiply_frame(zero_cols, np.ones((1, n), np.float32)),
            )
            stats = server.engine.stats
            await server.engine.drain()
            return w.frames(), server.counters(), stats

        frames, counters, stats = asyncio.run(main())
        assert [f.kind for f in frames] == ["result", "result", "error", "error"]
        assert frames[0].arrays["c"].shape == (0, n)
        assert frames[1].arrays["c"].shape == (8, n)
        assert not frames[1].arrays["c"].any()
        assert [f.meta["code"] for f in frames[2:]] == ["bad_request"] * 2
        assert stats["plans_built"] == 0
        assert counters["internal_errors"] == 0

    def test_ping_stats_and_warm_start(self):
        async def main():
            server = make_server()
            w = await run_connection(
                server,
                encode_frame("ping"),
                encode_frame("stats"),
                encode_frame("warm_start", {"limit": 4}),
                encode_frame("metrics"),
            )
            await server.engine.drain()
            return w.frames()

        frames = asyncio.run(main())
        assert [f.kind for f in frames] == [
            "pong", "stats", "warm_started", "metrics"
        ]
        assert frames[2].meta == {"loaded": 0}  # no store configured
        assert "server" in frames[3].meta and "engine" in frames[3].meta

    def test_submit_builds_plan_and_reports_fingerprint(self):
        csr = make_csr(3)

        async def main():
            server = make_server()
            w = await run_connection(server, submit_frame(csr, tenant="a"))
            stats = server.engine.stats
            await server.engine.drain()
            return w.frames(), stats

        frames, stats = asyncio.run(main())
        assert frames[0].kind == "submitted"
        fp = frames[0].meta["fingerprint"]
        assert fp["nnz"] == csr.nnz and len(fp["structure"]) == 32
        assert stats["plans_built"] == 1

    def test_per_request_numerics_override(self):
        csr = make_csr(4)

        async def main():
            server = make_server()
            B = make_b(csr)
            w = await run_connection(
                server,
                multiply_frame(csr, B, numerics="tf32"),
                multiply_frame(csr, B),
            )
            await server.engine.drain()
            return w.frames()

        frames = asyncio.run(main())
        assert frames[0].meta["numerics"] == "tf32"
        assert frames[1].meta["numerics"] == "exact"

    def test_tenant_pin_sets_the_served_tier(self):
        # the pin lives on the async engine the server wraps; a
        # request's own numerics still beats it
        csr = make_csr(4)

        async def main():
            server = make_server()
            server.engine.set_tenant_numerics("alice", "fast")
            B = make_b(csr)
            w = await run_connection(
                server,
                multiply_frame(csr, B, tenant="alice"),
                multiply_frame(csr, B, tenant="bob"),
                multiply_frame(csr, B, tenant="alice", numerics="exact"),
            )
            await server.engine.drain()
            return w.frames()

        frames = asyncio.run(main())
        tiers = [f.meta["numerics"] for f in frames]
        assert tiers == ["fast", "exact", "exact"]

    def test_metrics_payload_is_json_serialisable(self):
        async def main():
            server = make_server()
            await run_connection(
                server, multiply_frame(make_csr(5), make_b(make_csr(5)))
            )
            m = server.metrics()
            await server.engine.drain()
            return m

        m = asyncio.run(main())
        json.dumps(m)  # must never raise
        assert m["server"]["requests_total"] == 1
        assert m["engine"]["requests"] >= 1

    def test_nested_numpy_values_coerce_alike_in_plan_meta_and_metrics(self):
        # one coercer shapes both: a plan file once held such a dict as
        # the repr of the whole, and /metrics a numpy bool as "True"
        nested = {
            "sizes": (np.int64(3), np.float32(0.5)),
            "inner": {"on": np.bool_(True)},
        }
        want = {"sizes": [3, 0.5], "inner": {"on": True}}
        p = build_plan(make_csr(5), feature_dim=8)
        p.tc_plan.meta["nested"] = nested
        assert AccPlan.from_bytes(p.to_bytes()).tc_plan.meta["nested"] == want

        async def main():
            server = make_server()
            server.counters = lambda: {"nested": nested}
            m = server.metrics()
            await server.engine.drain()
            return m

        m = asyncio.run(main())
        assert json.loads(json.dumps(m))["server"] == {"nested": want}


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaults:
    def test_slow_client_read_timeout(self):
        """A stalled client is disconnected after read_timeout, counted,
        and never hangs the handler."""

        async def main():
            server = make_server(cfg={"read_timeout": 0.05})
            reader = asyncio.StreamReader()  # never fed, never EOF
            writer = FakeWriter()
            await asyncio.wait_for(
                server._serve_connection(reader, writer), timeout=5
            )
            await server.engine.drain()
            return writer, server.counters()

        writer, counters = asyncio.run(main())
        assert counters["read_timeouts"] == 1
        assert counters["open_connections"] == 0
        assert writer.closed

    def test_mid_request_disconnect(self):
        """EOF mid-frame -> protocol_errors counter + bad_frame notice,
        connection closed."""
        raw = multiply_frame(make_csr(), make_b(make_csr()))

        async def main():
            server = make_server()
            w = await run_connection(server, raw[: len(raw) // 2])
            await server.engine.drain()
            return w, server.counters()

        writer, counters = asyncio.run(main())
        assert counters["protocol_errors"] == 1
        assert counters["open_connections"] == 0
        frames = writer.frames()
        assert frames and frames[0].kind == "error"
        assert frames[0].meta["code"] == "bad_frame"
        assert frames[0].meta["retryable"] is False
        assert writer.closed

    def test_malformed_json_header(self):
        head = struct.pack("<8sIQQ", b"ACCFRME\x00", 1, 12, 0)

        async def main():
            server = make_server()
            w = await run_connection(server, head + b"not-json-at-")
            await server.engine.drain()
            return w, server.counters()

        writer, counters = asyncio.run(main())
        assert counters["protocol_errors"] == 1
        assert writer.frames()[0].meta["code"] == "bad_frame"

    def test_unparseable_dtype_is_bad_frame(self):
        # np.dtype(",8") raises SyntaxError; it once escaped read_frame
        # and killed the connection task without a reply
        csr = make_csr()
        raw = multiply_frame(csr, make_b(csr))
        _, version, header_len, body_len = _HEAD.unpack_from(raw)
        header = json.loads(raw[_HEAD.size:_HEAD.size + header_len])
        header["arrays"][0]["dtype"] = ",8"
        new_header = json.dumps(header).encode()
        bad = (
            _HEAD.pack(b"ACCFRME\x00", version, len(new_header), body_len)
            + new_header + raw[_HEAD.size + header_len:]
        )

        async def main():
            server = make_server()
            w = await run_connection(server, bad)
            await server.engine.drain()
            return w, server.counters()

        writer, counters = asyncio.run(main())
        assert [f.meta["code"] for f in writer.frames()] == ["bad_frame"]
        assert counters["protocol_errors"] == 1
        assert counters["internal_errors"] == 0

    def test_garbage_bytes(self):
        async def main():
            server = make_server()
            w = await run_connection(server, b"\x00" * 64)
            await server.engine.drain()
            return w, server.counters()

        writer, counters = asyncio.run(main())
        assert counters["protocol_errors"] == 1
        assert writer.frames()[0].meta["code"] == "bad_frame"

    def test_unknown_kind_is_bad_request_and_keeps_connection(self):
        async def main():
            server = make_server()
            w = await run_connection(
                server, encode_frame("bogus"), encode_frame("ping")
            )
            await server.engine.drain()
            return w.frames()

        frames = asyncio.run(main())
        assert frames[0].kind == "error"
        assert frames[0].meta["code"] == "bad_request"
        assert frames[1].kind == "pong"  # connection survived

    def test_bad_numerics_tier_is_bad_request(self):
        csr = make_csr()

        async def main():
            server = make_server()
            w = await run_connection(
                server, multiply_frame(csr, make_b(csr), numerics="nope")
            )
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].meta["code"] == "bad_request"
        assert counters["internal_errors"] == 0

    @pytest.mark.parametrize(
        "kind,meta",
        [
            ("submit", {"feature_dim": True}),
            ("submit", {"n_rows": True}),
            ("warm_start", {"limit": True}),
            ("warm_start", {"limit": "2"}),
            ("warm_start", {"limit": -1}),
        ],
        ids=["bool-feature_dim", "bool-n_rows", "bool-limit", "str-limit",
             "negative-limit"],
    )
    def test_integer_fields_refuse_bools_and_strings(self, kind, meta):
        # a 1-row matrix, so n_rows=True would once have built it
        one_row = CSRMatrix(1, 4, np.array([0, 2]), np.array([0, 3]),
                            np.ones(2, np.float32))
        payload, arrays = csr_to_payload(one_row)
        if kind == "warm_start":
            payload, arrays = {}, {}
        payload.update(meta)

        async def main():
            server = make_server()
            w = await run_connection(server, encode_frame(kind, payload, arrays))
            stats = server.engine.stats
            await server.engine.drain()
            return w.frames(), stats, server.counters()

        frames, stats, counters = asyncio.run(main())
        assert [f.meta["code"] for f in frames] == ["bad_request"]
        assert stats["plans_built"] == 0 and stats["cached_plans"] == 0
        assert counters["internal_errors"] == 0

    def test_missing_payload_is_bad_request(self):
        async def main():
            server = make_server()
            w = await run_connection(
                server, encode_frame("multiply", {"tenant": "a"})
            )
            await server.engine.drain()
            return w.frames()

        frames = asyncio.run(main())
        assert frames[0].meta["code"] == "bad_request"
        assert "n_rows" in frames[0].meta["message"]

    @pytest.mark.parametrize(
        "record",
        [
            ["not", "a", "dict"],
            {"structure": "0" * 32, "values": "1" * 32, "n_rows": 8,
             "n_cols": 8},
            {"structure": "0" * 32, "values": "1" * 32, "n_rows": "eight",
             "n_cols": 8, "nnz": 4},
            {"structure": "zz", "values": "1" * 32, "n_rows": 8,
             "n_cols": 8, "nnz": 4},
        ],
        ids=["not-a-dict", "missing-nnz", "non-integer-n_rows", "non-hex-structure"],
    )
    def test_malformed_delta_base_fingerprint_is_bad_request(self, record):
        edits = GraphDelta.from_edges(added=[(0, 0, 1.0)]).as_arrays()

        async def main():
            server = make_server()
            w = await run_connection(
                server,
                encode_frame("delta", {"base_fingerprint": record}, edits),
            )
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert [f.meta["code"] for f in frames] == ["bad_request"]
        assert counters["internal_errors"] == 0

    def test_missing_b_operand_is_bad_request(self):
        csr = make_csr()

        async def main():
            server = make_server()
            meta, arrays = csr_to_payload(csr)  # no "b"
            w = await run_connection(
                server, encode_frame("multiply", meta, arrays)
            )
            await server.engine.drain()
            return w.frames()

        assert asyncio.run(main())[0].meta["code"] == "bad_request"

    def test_peer_vanishes_during_response(self):
        csr = make_csr()

        async def main():
            server = make_server()
            w = await run_connection(
                server, multiply_frame(csr, make_b(csr)),
                writer=FakeWriter(fail_on_drain=True),
            )
            await server.engine.drain()
            return w, server.counters()

        writer, counters = asyncio.run(main())
        assert counters["disconnects"] >= 1
        assert counters["open_connections"] == 0
        assert counters["internal_errors"] == 0

    def test_oversized_request_body_is_rejected(self):
        csr = make_csr()

        async def main():
            server = make_server(cfg={"max_body_bytes": 128})
            w = await run_connection(server, multiply_frame(csr, make_b(csr)))
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].meta["code"] == "bad_frame"
        assert counters["protocol_errors"] == 1


# ----------------------------------------------------------------------
# admission control: quotas and load shedding
# ----------------------------------------------------------------------
class TestAdmission:
    def test_token_bucket(self):
        b = _TokenBucket(rate=1.0, burst=2.0)
        assert b.take(0.0) and b.take(0.0)   # burst spent
        assert not b.take(0.0)               # empty
        assert b.take(1.0)                   # 1s -> 1 token refilled
        assert not b.take(1.0)
        b2 = _TokenBucket(rate=1.0, burst=2.0)
        [b2.take(0.0) for _ in range(3)]
        assert b2.take(100.0)
        assert b2.take(100.0)                # refill capped at burst
        assert not b2.take(100.0)

    def test_quota_rejection_with_fake_clock(self):
        csr = make_csr()
        clock = {"t": 0.0}

        async def main():
            server = make_server(
                config=ServerConfig(
                    tenant_quotas={"a": (1.0, 2.0)}, default_quota=None
                ),
                clock=lambda: clock["t"],
            )
            B = make_b(csr)
            w1 = await run_connection(
                server, *[multiply_frame(csr, B, tenant="a")] * 3
            )
            clock["t"] = 1.0  # one token refilled
            w2 = await run_connection(
                server, multiply_frame(csr, B, tenant="a")
            )
            # tenant "b" has no quota: never rejected
            w3 = await run_connection(
                server, *[multiply_frame(csr, B, tenant="b")] * 3
            )
            await server.engine.drain()
            return w1.frames(), w2.frames(), w3.frames(), server.counters()

        f1, f2, f3, counters = asyncio.run(main())
        assert [f.kind for f in f1] == ["result", "result", "error"]
        assert f1[2].meta["code"] == "quota_exceeded"
        assert f1[2].meta["retryable"] is True
        assert [f.kind for f in f2] == ["result"]
        assert [f.kind for f in f3] == ["result"] * 3
        assert counters["quota_rejections"] == 1
        assert counters["results_sent"] == 6

    def test_saturated_queue_load_shed(self):
        csr = make_csr()

        async def main():
            server = make_server(cfg={"max_inflight": 0})
            w = await run_connection(
                server, multiply_frame(csr, make_b(csr))
            )
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].kind == "error"
        assert frames[0].meta["code"] == "overloaded"
        assert frames[0].meta["retryable"] is True
        assert counters["shed_requests"] == 1
        assert counters["inflight"] == 0

    def test_connection_cap_sheds_with_overloaded(self):
        async def main():
            server = make_server(config=ServerConfig(max_connections=0))
            w = await run_connection(server, encode_frame("ping"))
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].meta["code"] == "overloaded"
        assert counters["shed_connections"] == 1
        assert counters["open_connections"] == 0


# ----------------------------------------------------------------------
# dynamic batching (engine gate: hold a call, let requests queue)
# ----------------------------------------------------------------------
def start_connection(server, frame, writer) -> asyncio.Task:
    return asyncio.create_task(
        server._serve_connection(feed_reader(frame), writer)
    )


async def hold_then_queue(server, gate, first, rest, one_by_one=False):
    """Send ``first`` alone and wait until its engine call is held, then
    send each frame of ``rest`` and wait until all of them are queued
    behind it; returns ``(writers, tasks)`` in send order.  With
    ``one_by_one`` each request is queued before the next is sent, which
    fixes the queue order."""
    writers = [FakeWriter() for _ in range(1 + len(rest))]
    tasks = [start_connection(server, first, writers[0])]
    await until(gate.held.is_set)
    for i, frame in enumerate(rest, start=1):
        tasks.append(start_connection(server, frame, writers[i]))
        if one_by_one:
            await until(lambda i=i: queued(server) == i)
    await until(lambda: queued(server) == len(rest))
    return writers, tasks


async def finish(server, gate, tasks) -> dict:
    """Release the gate, wait (bounded) for every connection, drain."""
    gate.release()
    await asyncio.wait_for(asyncio.gather(*tasks), 60)
    stats = server.engine.stats
    await server.engine.drain()
    return stats


class TestBatching:
    def test_same_fingerprint_requests_coalesce(self):
        csr = make_csr(11)
        n_queued = 3

        async def main():
            server = make_server()
            gate = EngineGate(server)
            B = make_b(csr)
            frames = [multiply_frame(csr, B, tenant=f"t{i % 2}") for i in range(4)]
            writers, tasks = await hold_then_queue(
                server, gate, frames[0], frames[1:]
            )
            stats = await finish(server, gate, tasks)
            return writers, gate, server.counters(), stats

        writers, gate, counters, stats = asyncio.run(main())
        ref = SpMMEngine().spmm(csr, make_b(csr))
        assert [kind for kind, _ in gate.calls] == ["multiply", "multiply_many"]
        assert gate.sizes == [1, n_queued]
        batched = [w.frames()[0].meta["batched"] for w in writers]
        assert batched == [False] + [True] * n_queued
        for w in writers:
            frame = w.frames()[0]
            assert frame.kind == "result"
            assert np.array_equal(frame.arrays["c"], ref)
        assert counters["single_requests"] == 1
        assert counters["batched_requests"] == n_queued
        assert counters["batches"] == 1
        assert counters["pending_batches"] == 0  # the key retired
        assert stats["plans_built"] == 1

    def test_different_numerics_tiers_never_coalesce(self):
        csr = make_csr(12)

        async def main():
            server = make_server()
            gate = EngineGate(server)
            B = make_b(csr)
            writers = [FakeWriter(), FakeWriter()]
            exact = start_connection(
                server, multiply_frame(csr, B, numerics="exact"), writers[0]
            )
            await until(gate.held.is_set)
            # a different key never waits on the held one
            await asyncio.wait_for(
                start_connection(
                    server, multiply_frame(csr, B, numerics="tf32"), writers[1]
                ),
                60,
            )
            exact_done_early = exact.done()
            await finish(server, gate, [exact])
            return writers, exact_done_early, server.counters()

        writers, exact_done_early, counters = asyncio.run(main())
        assert not exact_done_early
        assert [w.frames()[0].meta["numerics"] for w in writers] == ["exact", "tf32"]
        assert counters["batches"] == 0  # two singles, no multi-batch
        assert counters["single_requests"] == 2

    def test_lone_request_goes_single(self):
        csr = make_csr(13)

        async def main():
            server = make_server()
            w = await run_connection(server, multiply_frame(csr, make_b(csr)))
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].meta["batched"] is False
        assert counters["single_requests"] == 1
        assert counters["batched_requests"] == 0
        assert counters["pending_batches"] == 0

    def test_max_batch_splits_excess(self):
        csr = make_csr(14)

        async def main():
            server = make_server(cfg={"max_batch": 2})
            gate = EngineGate(server)
            Bs = [make_b(csr, seed=s) for s in range(6)]
            writers, tasks = await hold_then_queue(
                server, gate, multiply_frame(csr, Bs[0]),
                [multiply_frame(csr, B) for B in Bs[1:]], one_by_one=True,
            )
            await finish(server, gate, tasks)
            return Bs, writers, gate, server.counters()

        Bs, writers, gate, counters = asyncio.run(main())
        assert gate.sizes == [1, 2, 2, 1]
        # queued requests run in arrival order
        assert np.array_equal(
            np.concatenate([stack for _, stack in gate.calls]), np.stack(Bs)
        )
        for w, B in zip(writers, Bs):
            assert np.array_equal(
                w.frames()[0].arrays["c"], SpMMEngine().spmm(csr, B)
            )
        assert counters["batches"] == 2
        assert counters["batched_requests"] == 4
        assert counters["single_requests"] == 2

    def test_batch_failure_propagates_to_every_waiter(self):
        csr = make_csr(15)

        async def main():
            server = make_server(cfg={"max_batch": 2})
            # engine call 1 (the first queued batch of two) raises the
            # engine's ValidationError; call 2 is queued behind it
            gate = EngineGate(server, fail_call=1)
            B = make_b(csr)
            frame = multiply_frame(csr, B)
            writers, tasks = await hold_then_queue(
                server, gate, frame, [frame] * 4
            )
            await finish(server, gate, tasks)
            return writers, gate, server.counters()

        writers, gate, counters = asyncio.run(main())
        assert gate.sizes == [1, 2, 2]
        frames = [w.frames()[0] for w in writers]
        for f in frames[1:3]:  # every member of the failed batch
            assert f.kind == "error"
            assert f.meta["code"] == "bad_request"
        ref = SpMMEngine().spmm(csr, make_b(csr))
        for f in frames[:1] + frames[3:]:  # the runner carried on
            assert f.kind == "result"
            assert np.array_equal(f.arrays["c"], ref)
        assert counters["results_sent"] == 3
        assert counters["internal_errors"] == 0
        assert counters["pending_batches"] == 0

    def test_engine_rejection_reaches_every_member(self):
        csr = make_csr(16)

        async def main():
            server = make_server()
            gate = EngineGate(server)
            # wrong inner dimension: the engine rejects at execution
            bad_B = np.ones((csr.n_cols + 1, 4), dtype=np.float32)
            frame = multiply_frame(csr, bad_B)
            writers, tasks = await hold_then_queue(
                server, gate, frame, [frame] * 2
            )
            await finish(server, gate, tasks)
            return writers, gate, server.counters()

        writers, gate, counters = asyncio.run(main())
        assert gate.sizes == [1, 2]
        for w in writers:
            assert w.frames()[0].kind == "error"
            assert w.frames()[0].meta["code"] == "bad_request"
        assert counters["results_sent"] == 0
        assert counters["internal_errors"] == 0

    def test_cancelled_runner_fails_queued_requests(self):
        csr = make_csr(17)

        async def main():
            server = make_server()
            gate = EngineGate(server)
            frame = multiply_frame(csr, make_b(csr))
            writers, tasks = await hold_then_queue(
                server, gate, frame, [frame] * 2
            )
            (runner,) = [t for t in server._tasks if t not in tasks]
            runner.cancel()
            done = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 60
            )
            pending = server.counters()["pending_batches"]
            gate.release()
            await server.engine.drain()
            return done, pending

        done, pending = asyncio.run(main())
        # no request hangs: every waiter saw the runner's cancellation
        assert all(isinstance(r, asyncio.CancelledError) for r in done)
        assert pending == 0


# ----------------------------------------------------------------------
# drain/close regression (the satellite fix)
# ----------------------------------------------------------------------
class TestEngineDrain:
    def test_drain_completes_inflight_then_rejects_new(self):
        csr = make_csr(21)

        async def main():
            engine = AsyncSpMMEngine(capacity=8)
            B = make_b(csr)
            started = asyncio.Event()

            async def inflight():
                started.set()
                return await engine.multiply(csr, B)

            task = asyncio.create_task(inflight())
            await started.wait()
            await asyncio.sleep(0)  # let multiply reach _begin()
            await engine.drain()
            C = await task  # the admitted request completed
            with pytest.raises(EngineClosedError):
                await engine.multiply(csr, B)
            with pytest.raises(EngineClosedError):
                await engine.multiply_many(csr, B[None])
            with pytest.raises(EngineClosedError):
                await engine.ensure_plan(csr)
            with pytest.raises(EngineClosedError):
                await engine.warm_start()
            return C, engine

        C, engine = asyncio.run(main())
        assert np.array_equal(C, SpMMEngine().spmm(make_csr(21), make_b(make_csr(21))))
        # deterministic shutdown: every pool thread has exited
        assert engine._pool._shutdown
        assert all(not t.is_alive() for t in engine._pool._threads)
        assert engine.stats["async"]["draining"] is True
        assert engine.stats["async"]["active"] == 0

    def test_drain_is_idempotent_and_instant_when_idle(self):
        async def main():
            engine = AsyncSpMMEngine()
            await asyncio.wait_for(engine.drain(), timeout=5)
            await asyncio.wait_for(engine.drain(), timeout=5)
            return engine

        engine = asyncio.run(main())
        assert engine._pool._shutdown

    def test_close_rejects_new_submissions(self):
        engine = AsyncSpMMEngine()
        engine.close()

        async def main():
            with pytest.raises(EngineClosedError):
                await engine.multiply(make_csr(), make_b(make_csr()))

        asyncio.run(main())
        assert all(not t.is_alive() for t in engine._pool._threads)

    def test_server_stop_drains_engine(self):
        csr = make_csr(22)

        async def main():
            server = make_server()
            await server.start()
            await server.stop()
            # engine is drained: data plane now rejects
            with pytest.raises(EngineClosedError):
                await server.engine.multiply(csr, make_b(csr))
            return server

        server = asyncio.run(main())
        assert server.engine._pool._shutdown

    def test_draining_server_answers_shutting_down(self):
        csr = make_csr(23)

        async def main():
            server = make_server()
            await server.engine.drain()
            w = await run_connection(server, multiply_frame(csr, make_b(csr)))
            return w.frames()

        frames = asyncio.run(main())
        assert frames[0].kind == "error"
        assert frames[0].meta["code"] == "shutting_down"
        assert frames[0].meta["retryable"] is True


# ----------------------------------------------------------------------
# payload helpers
# ----------------------------------------------------------------------
_ONE_ROW_ARRAYS = {
    "indptr": np.array([0, 1]),
    "indices": np.array([0]),
    "vals": np.ones(1, np.float32),
}


class TestPayload:
    def test_round_trip(self):
        csr = make_csr(31)
        meta, arrays = csr_to_payload(csr)
        got = payload_to_csr(meta, arrays)
        assert got.n_rows == csr.n_rows and got.nnz == csr.nnz
        assert np.array_equal(got.indptr, csr.indptr)
        assert np.array_equal(got.vals, csr.vals)

    @pytest.mark.parametrize(
        "meta,arrays",
        [
            ({}, {}),
            ({"n_rows": 4}, {}),
            ({"n_rows": 4, "n_cols": "4"}, {}),
            (
                {"n_rows": 4, "n_cols": 4},
                {"indptr": np.zeros(5, np.int64), "vals": np.zeros(0)},
            ),
            # a bool is not an int, although CSRMatrix(True, ...) builds
            ({"n_rows": True, "n_cols": 4}, _ONE_ROW_ARRAYS),
            ({"n_rows": 1, "n_cols": True}, _ONE_ROW_ARRAYS),
        ],
    )
    def test_malformed_payload_raises_validation_error(self, meta, arrays):
        with pytest.raises(ValidationError):
            payload_to_csr(meta, arrays)

    def test_request_matrix_does_not_pin_the_frame_body(self):
        # the server reads a frame body into one bytearray and decodes
        # its arrays as views into it; the request's matrix is cached
        # with its plan, so it must not keep the whole body (B included)
        # alive
        csr = make_csr(33)
        raw = multiply_frame(csr, make_b(csr))
        _, _, header_len, body_len = _HEAD.unpack_from(raw)
        header_end = _HEAD.size + header_len
        body = bytearray(raw[header_end:])
        _, meta, table = _decode_header(raw[_HEAD.size:header_end], body_len)
        arrays = _decode_body(table, body)
        whole = np.frombuffer(body, dtype=np.uint8)
        assert np.shares_memory(arrays["indptr"], whole)  # zero-copy decode
        got = payload_to_csr(meta, arrays)
        for arr in (got.indptr, got.indices, got.vals):
            assert not np.shares_memory(arr, whole)

    def test_inconsistent_csr_arrays_rejected(self):
        # structurally broken indptr: FormatError/ValidationError, and
        # the server maps it to bad_request (never internal)
        csr = make_csr(32)

        async def main():
            server = make_server()
            meta, arrays = csr_to_payload(csr)
            arrays["indptr"] = arrays["indptr"][:-2]
            arrays["b"] = make_b(csr)
            w = await run_connection(
                server, encode_frame("multiply", meta, arrays)
            )
            await server.engine.drain()
            return w.frames(), server.counters()

        frames, counters = asyncio.run(main())
        assert frames[0].kind == "error"
        assert frames[0].meta["code"] == "bad_request"
        assert counters["internal_errors"] == 0
