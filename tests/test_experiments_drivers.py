"""Tests for the experiment-driver plumbing (fast drivers only).

The heavy figure drivers are exercised by ``benchmarks/``; here we cover
the registry, the CLI dispatch, and the cheap drivers end to end.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, main, table2, table3
from repro.bench.runner import run_kernel_suite, suite_summary

from tests.conftest import random_csr


class TestRegistry:
    def test_all_paper_artefacts_present(self):
        expected = {
            "table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "geomean",
        }
        assert expected == set(EXPERIMENTS)

    def test_main_unknown_experiment(self):
        assert main(["not-an-experiment"]) == 2

    def test_main_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_main_runs_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "A800" in out


class TestTableDrivers:
    def test_table2_shape(self):
        rows = table2(quiet=True)
        assert len(rows) == 10
        for r in rows:
            assert r["nnz(built)"] > 0
            assert r["type"] in (1, 2)

    def test_table3_shape(self):
        rows = table3(quiet=True)
        assert [r["GPU"] for r in rows] == ["RTX 4090", "A800", "H100"]


class TestRunner:
    def test_kernel_suite_on_tiny_matrix(self):
        mats = {"tiny": random_csr(64, 64, 0.15, seed=51)}
        rows = run_kernel_suite(
            mats, "a800", feature_dims=(32,), kernels=("cusparse", "acc")
        )
        assert len(rows) == 1
        r = rows[0]
        assert r["cusparse_gflops"] > 0
        assert r["acc_gflops"] > 0
        assert r["cusparse_speedup"] == pytest.approx(1.0)

    def test_suite_summary(self):
        rows = [
            {"acc_speedup": 2.0},
            {"acc_speedup": 8.0},
        ]
        s = suite_summary(rows, "acc")
        assert s["mean_speedup"] == pytest.approx(5.0)
        assert s["geomean_speedup"] == pytest.approx(4.0)
        assert s["max_speedup"] == 8.0
