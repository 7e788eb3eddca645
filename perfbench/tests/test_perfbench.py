"""Tests for the benchmark harness itself: span arithmetic, the tail
rule, failure counting, and the metric catalogue."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from common import Tally, load_catalogue, supported_percentile, tail  # noqa: E402
from tracing import Span, coverage, layer_metrics, self_times, union_length  # noqa: E402


def span(sid, name, start, end, parent=None, op=1, attrs=None):
    return Span(sid, name, start, end, parent, op, attrs)


# -- self time -----------------------------------------------------------
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 4.0, parent=1),
        span(3, "c", 2.0, 3.0, parent=2),  # grandchild: only b's business
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(7.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # two concurrent children (pool threads) overlap on [3, 4]
    spans = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_self_time_clips_children_outliving_the_parent():
    spans = [span(1, "a", 0.0, 10.0), span(2, "b", 8.0, 12.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_coverage_is_share_of_operation_time_inside_spans():
    ops = {1: ["epoch", 0.0, 10.0], 2: ["epoch", 10.0, 20.0]}
    spans = [
        span(1, "a", 0.0, 5.0, op=1),
        span(2, "b", 4.0, 9.0, op=1),
        span(3, "a", 10.0, 20.0, op=2),
    ]
    assert coverage(spans, ops, [1, 2]) == pytest.approx(19.0 / 20.0)


def test_layer_metrics_round_counts_only_under_execute():
    spans = [
        span(1, "kernels.compile", 0.0, 1.0, op=7),
        span(2, "kernels.round", 0.2, 0.4, parent=1, op=7),
        span(3, "kernels.execute", 1.0, 3.0, op=7, attrs={
            "n_blocks": 4, "nnz": 32, "slots": 256, "useful_flop": 1e9,
            "issued_flop": 2e9, "bytes": 1e6, "prep_misses": 0,
            "chunks.stepped": 1,
        }),
        span(4, "kernels.round", 1.0, 1.5, parent=3, op=7),
    ]
    m = layer_metrics(spans, [7])
    assert m["kernels.round.self_ms"] == pytest.approx(500.0)
    assert m["kernels.execute.self_ms"] == pytest.approx(1500.0)
    assert m["kernels.compile.self_ms"] == pytest.approx(800.0)
    assert m["formats.tile_fill"] == pytest.approx(32 / 256)
    assert m["kernels.chunks.stepped"] == 1
    assert m["reorder.affinity.ms"] == 0.0  # never ran: reported as 0


def test_layer_metrics_ignore_operations_outside_the_timed_phase():
    spans = [
        span(1, "serve.fingerprint", 0.0, 1.0, op=1),
        span(2, "serve.fingerprint", 0.0, 3.0, op=2),
    ]
    assert layer_metrics(spans, [1])["serve.fingerprint.self_ms"] == pytest.approx(1000.0)


# -- tails ---------------------------------------------------------------
@pytest.mark.parametrize(
    "n, requested, expected",
    [
        (100, 90.0, 90.0),   # exactly 10 beyond p90
        (99, 90.0, 75.0),    # 9.9 beyond p90: fall back
        (1000, 99.0, 99.0),
        (999, 99.0, 95.0),
        (300, 99.0, 95.0),
        (25, 99.0, 50.0),    # too few for any tail: the median
        (3, 90.0, 50.0),
        (10_000, 90.0, 90.0),  # never above the requested percentile
    ],
)
def test_tail_needs_ten_samples_beyond_it(n, requested, expected):
    assert supported_percentile(n, requested) == expected


def test_tail_reports_the_value_at_the_supported_percentile():
    values = list(range(1, 100))  # 99 samples: p90 unsupported
    p, v = tail(values, 90.0)
    assert p == 75.0
    assert v == pytest.approx(74.5)


# -- failures ------------------------------------------------------------
class _ServerError(Exception):
    def __init__(self, code, retryable):
        super().__init__(code)
        self.code, self.retryable = code, retryable


def _server_error(code, retryable):
    """The library's ServerError when importable, else a look-alike."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.errors import ServerError
    except ImportError:
        return _ServerError(code, retryable)
    return ServerError(code, "test", retryable)


def test_failed_share_counts_retryable_errors():
    t = Tally()
    t.ok()
    t.error(_server_error("overloaded", True))
    t.error(_server_error("quota_exceeded", True))
    t.ok()
    assert (t.attempted, t.failed) == (4, 2)
    assert t.failed_share == pytest.approx(0.5)
    assert t.ok_share == pytest.approx(0.5)
    assert t.reasons == {"error:overloaded": 1, "error:quota_exceeded": 1}


def test_failed_share_counts_dropped_requests_and_late_mismatches():
    t = Tally()
    t.error(ConnectionResetError())
    t.ok()
    t.mismatch("exact_vs_reference")  # a checked result, already attempted
    assert (t.attempted, t.failed) == (2, 2)
    assert t.failed_share == 1.0


# -- catalogue -----------------------------------------------------------
def test_benchmark_json_metrics_come_from_the_catalogue():
    catalogue = load_catalogue()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[kind]}
        in_catalogue = {n for n, m in catalogue.items() if m["kind"] == kind}
        assert set(listed) == in_catalogue
        for name, m in listed.items():
            assert m["unit"] == catalogue[name]["unit"]
            assert m["better"] == catalogue[name]["better"]


def test_catalogue_names_what_each_metric_should_move():
    # gated or only printed, an end-to-end metric comes from the untraced run
    e2e = {
        n for n, m in load_catalogue().items() if m["kind"] in ("end_to_end", "reported")
    }
    for name, m in load_catalogue().items():
        assert m["better"] in ("lower", "higher"), name
        for target in m["moves"]:
            assert target["metric"] in e2e, name
            assert target["workload"] in ("gcn-train", "cold-start", "serve-mixed")
