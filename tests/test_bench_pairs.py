"""The decision rules of tools/bench_pairs.py on synthetic runs: no git, no subprocess."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _metric(better, bound=0.25):
    return {"name": "m", "unit": "u", "better": better, "bound": bound}


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_ties_count_for_neither_side(better):
    runs = [10.0, 11.0, 12.0, 13.0]
    cmp = bench_pairs._compare(_metric(better), runs, list(runs))
    assert cmp["change_wins_pairs"] == "0/4"
    assert cmp["bound_check"] == "within"
    mixed = bench_pairs._compare(_metric(better), runs, [10.0, 12.0, 11.0, 13.0])
    assert mixed["change_wins_pairs"] == "1/4"


@pytest.mark.parametrize("better, change, check", [
    ("higher", [80.0, 80.0, 80.0], "within"),
    ("higher", [70.0, 70.0, 70.0], "outside"),
    ("lower", [120.0, 120.0, 120.0], "within"),
    ("lower", [130.0, 130.0, 130.0], "outside"),
    ("lower", [75.0, 74.0, 73.0], "within"),
])
def test_bound_check_within_and_outside(better, change, check):
    cmp = bench_pairs._compare(_metric(better), [100.0, 100.0, 100.0], change)
    assert cmp["bound_check"] == check
    assert cmp["parent_spread_over_median"] == 0


def test_a_wide_parent_spread_is_unresolved_unless_every_change_run_is_better():
    parent = [50.0, 100.0, 150.0]  # quartile gap over median: 0.5, above the bound
    for change in ([100.0, 100.0, 100.0], [160.0, 170.0, 140.0]):
        cmp = bench_pairs._compare(_metric("higher"), parent, change)
        assert cmp["parent_spread_over_median"] == 0.5
        assert cmp["bound_check"] == "unresolved"
    assert bench_pairs._compare(_metric("higher"), parent, [151.0, 160.0, 170.0])["bound_check"] == "within"
    assert bench_pairs._compare(_metric("lower"), parent, [49.0, 40.0, 30.0])["bound_check"] == "within"
    # One change run no better than the parent's best keeps it unresolved.
    assert bench_pairs._compare(_metric("lower"), parent, [49.0, 50.0, 30.0])["bound_check"] == "unresolved"


def test_seeds_ranges_and_lists():
    assert bench_pairs._seeds("111-120") == list(range(111, 121))
    assert bench_pairs._seeds("7-7") == [7]
    assert bench_pairs._seeds("1,5,9") == [1, 5, 9]
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        bench_pairs._seeds("120-111")


def test_a_reversed_seed_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs._parse(["--parent", "a", "--change", "b", "--label", "x", "--seeds", "120-111"])
    assert exc.value.code == 2
    assert "seed range 120-111 is empty" in capsys.readouterr().err
