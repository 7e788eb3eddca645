"""Tests for the numerics helpers and the bench harness plumbing."""

import numpy as np
import pytest

from repro.bench.reporting import format_table, geomean, to_csv
from repro.bench.workloads import suitesparse_like_collection
from repro.tune.policy import relative_error


class TestNumerics:
    def test_relative_error_basics(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a) == 0.0
        assert relative_error(np.array([1.1, 2.0]), a) == pytest.approx(0.1)

    def test_relative_error_zero_safe(self):
        assert np.isfinite(relative_error(np.zeros(3), np.zeros(3)))


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, -1.0]) == 0.0
        assert geomean([4.0, float("nan")]) == pytest.approx(4.0)

    def test_format_table_contains_data(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, title="T")
        assert "T" in text and "a" in text and "0.125" in text

    def test_format_table_empty(self):
        assert "no data" in format_table([])

    def test_to_csv(self):
        csv = to_csv([{"x": 1, "y": "z"}])
        assert csv.splitlines() == ["x,y", "1,z"]


class TestWorkloads:
    def test_collection_deterministic(self):
        a = suitesparse_like_collection(n_matrices=6, seed=1)
        b = suitesparse_like_collection(n_matrices=6, seed=1)
        assert list(a) == list(b)
        for k in a:
            np.testing.assert_array_equal(a[k].indices, b[k].indices)

    def test_collection_heterogeneous(self):
        mats = suitesparse_like_collection(n_matrices=12)
        families = {name.split("-")[0] for name in mats}
        assert len(families) >= 4

    def test_collection_size_cap(self):
        assert len(suitesparse_like_collection(n_matrices=5)) == 5
