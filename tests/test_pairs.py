"""The summary rows of ``bench/pairs.py`` on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"name": "pass_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}


def test_wins_median_and_quartiles():
    # the change reads lower in 9 of 10 pairs (one tie counts for neither side)
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    change = [0.9, 1.0, 0.8, 0.9, 0.95, 0.85, 0.9, 0.92, 0.88, 1.0]
    row = pairs.summary(LOWER, parent, change)
    assert row["name"] == "pass_s" and row["pairs"] == 10 and row["wins"] == 9
    assert row["parent_median"] == 1.0 and row["change_median"] == pytest.approx(0.9)
    # inclusive quartiles of the parent's runs: 0.985 and 1.015
    assert row["parent_iqr"] == pytest.approx(0.03) and not row["unresolved"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's IQR is 0.5 of its median 1.0, past the bound 0.25
    parent = [0.5, 1.0, 1.5, 0.75, 1.25]
    row = pairs.summary(LOWER, parent, [0.6, 0.9, 1.4, 0.7, 1.2])
    assert row["parent_iqr"] == pytest.approx(0.5) and row["wins"] == 4 and row["unresolved"]
    # unless every change run beats every parent run
    row = pairs.summary(LOWER, parent, [0.1, 0.2, 0.3, 0.4, 0.45])
    assert not row["unresolved"]
    assert pairs.summary(HIGHER, parent, [2.0, 1.6, 1.8, 1.7, 1.9])["unresolved"] is False
    assert pairs.summary(HIGHER, parent, [2.0, 1.6, 1.8, 1.7, 1.5])["unresolved"] is True


def test_higher_is_better_counts_the_other_way():
    row = pairs.summary(HIGHER, [10.0, 10.0, 10.0], [11.0, 9.0, 10.5])
    assert row["wins"] == 2 and row["parent_iqr"] == 0.0 and not row["unresolved"]


def test_worse_is_past_the_bound_as_a_share_of_the_parent_median():
    # the bound 0.25 of the parent's median 1.0 (10.0 for the higher-is-better rate)
    parent = [0.9, 1.0, 1.0, 1.0, 1.1]
    assert pairs.summary(LOWER, parent, [1.2, 1.25, 1.25, 1.3, 1.2])["worse"] is False
    assert pairs.summary(LOWER, parent, [1.2, 1.26, 1.3, 1.3, 1.2])["worse"] is True
    assert pairs.summary(LOWER, parent, [0.1, 0.2, 0.2, 0.3, 0.2])["worse"] is False
    rates = [9.0, 10.0, 10.0, 10.0, 11.0]
    assert pairs.summary(HIGHER, rates, [7.5, 7.5, 8.0, 7.0, 9.0])["worse"] is False
    assert pairs.summary(HIGHER, rates, [7.4, 7.0, 8.0, 7.0, 9.0])["worse"] is True
    assert pairs.summary(HIGHER, rates, [20.0, 30.0, 30.0, 30.0, 40.0])["worse"] is False
