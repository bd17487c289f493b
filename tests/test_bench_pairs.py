"""The decision rules of tools/bench_pairs.py on synthetic runs: no git, no subprocess."""

import argparse
import importlib.util
import json
import re
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


_SPEC = {"workloads": [{"name": "paper-desk"}, {"name": "reduce-store"}],
         "end_to_end": [_metric("lower") | {"name": "peak_rss_mb"}, _metric("higher") | {"name": "ops_per_s"}]}


def test_a_claim_names_a_workload_and_end_to_end_metric_of_the_benchmark():
    assert bench_pairs._claim("paper-desk:peak_rss_mb:1.05", _SPEC) == ("paper-desk", "peak_rss_mb", 1.05)
    assert bench_pairs._claim("reduce-store:ops_per_s:2", _SPEC) == ("reduce-store", "ops_per_s", 2.0)


@pytest.mark.parametrize("claim, message", [
    ("paper-desk:peak_rss_mb", "claim 'paper-desk:peak_rss_mb' is not workload:metric:target"),
    ("paper-desk:peak_rss_mb:1.05:2", "claim 'paper-desk:peak_rss_mb:1.05:2' is not workload:metric:target"),
    ("paper-desks:peak_rss_mb:1.05", "claim workload 'paper-desks' is not one of paper-desk, reduce-store"),
    ("paper-desk:peak_rss:1.05", "claim metric 'peak_rss' is not one of peak_rss_mb, ops_per_s"),
    ("paper-desk:peak_rss_mb:fast", "claim target 'fast' is not a positive ratio"),
    ("paper-desk:peak_rss_mb:0", "claim target '0' is not a positive ratio"),
    ("paper-desk:peak_rss_mb:nan", "claim target 'nan' is not a positive ratio"),
])
def test_a_malformed_or_unknown_claim_is_rejected(claim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bench_pairs._claim(claim, _SPEC)


def test_a_bad_claim_exits_2_before_the_first_run(monkeypatch, capsys):
    def git(*args, cwd):
        return json.dumps(_SPEC | {"run_seconds": 30}) if args[0] == "show" else "0" * 40

    def run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "_git", git)
    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setattr(bench_pairs, "_export", run)
    argv = ["--parent", "a", "--change", "b", "--label", "x", "--claim", "paper-desk:peak_rss:1.05"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "bench_pairs.py: error: claim metric 'peak_rss' is not one of peak_rss_mb, ops_per_s\n"
