"""The paired A/B runner's verdict rule (``tools/ab.py``) on fixed numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [4.59, 3.99, 4.26, 4.05, 4.64, 4.45, 4.41, 4.21, 4.56, 4.51]


def test_ten_wins_with_a_wide_gap_is_a_gain():
    change = [b * 0.75 for b in BASE]
    s = ab.compare(BASE, change, "lower")
    assert (s["wins"], s["losses"]) == (10, 0)
    assert s["verdict"] == "gain"
    assert s["ratio"] == pytest.approx(0.75)


def test_the_same_runs_read_the_other_way_are_a_regression():
    change = [b * 0.75 for b in BASE]
    assert ab.compare(BASE, change, "higher")["verdict"] == "regression"


def test_eight_wins_is_no_verdict():
    change = [b * 0.75 for b in BASE[:8]] + [b * 1.05 for b in BASE[8:]]
    s = ab.compare(BASE, change, "lower")
    assert (s["wins"], s["losses"]) == (8, 2)
    assert s["verdict"] == "no verdict"


def test_identical_runs_are_no_verdict():
    s = ab.compare(BASE, list(BASE), "lower")
    assert (s["wins"], s["losses"]) == (0, 0)  # ties count for neither
    assert s["verdict"] == "no verdict"


def test_nine_wins_inside_the_base_spread_is_no_verdict():
    # every pair won, by less than the base's interquartile range
    change = [b - 0.01 for b in BASE]
    s = ab.compare(BASE, change, "lower")
    assert s["wins"] == 10
    assert s["verdict"] == "no verdict"


def test_fewer_than_ten_pairs_is_no_verdict():
    change = [b * 0.75 for b in BASE]
    assert ab.compare(BASE[:9], change[:9], "lower")["verdict"] == "no verdict"


def test_bound_flags_a_median_worse_by_more_than_the_bound():
    s = ab.compare([1.0] * 4, [1.3] * 4, "lower")
    assert ab.beyond_bound(s, "lower", 0.25)
    assert not ab.beyond_bound(s, "lower", 0.35)
    assert not ab.beyond_bound(s, "higher", 0.25)  # higher is better: a gain
