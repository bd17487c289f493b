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


def _patched_main(monkeypatch, tmp_path, *, diff="", change_run=None):
    """main() with a 2x claim on reduce-store ops_per_s over fake runs in which
    the change doubles ops_per_s; change_run edits the change side's runs."""
    def git(*args, cwd):
        if args[0] == "show":
            return json.dumps(_SPEC | {"run_seconds": 30})
        if args[0] == "diff":
            return diff
        return str(tmp_path) if "--show-toplevel" in args else "0" * 40

    def run(tree, workload, seed, seconds, trace):
        ops = (200.0 if tree == "change" else 100.0) + seed % 7
        out = {"correct": True, "failed": 0, "attempted": 100,
               "metrics": {"peak_rss_mb": {"value": 50.0}, "ops_per_s": {"value": ops}}}
        if tree == "change" and change_run:
            change_run(workload, out)
        return out

    monkeypatch.setattr(bench_pairs, "_git", git)
    monkeypatch.setattr(bench_pairs, "_export", lambda repo, commit, dest: dest.name)
    monkeypatch.setattr(bench_pairs, "_run", run)
    argv = ["--parent", "a", "--change", "b", "--label", "x", "--claim", "reduce-store:ops_per_s:1.5"]
    assert bench_pairs.main(argv) == 0
    return json.loads((tmp_path / "BENCH_x.json").read_text())["claim"]


def test_a_claim_won_on_every_pair_is_met(monkeypatch, tmp_path):
    claim = _patched_main(monkeypatch, tmp_path)
    assert claim["change_wins_pairs"] == "10/10" and claim["speedup_of_medians"] >= 1.5
    assert claim["met"] is True


def _fail_check(workload, out):
    if workload == "paper-desk":
        out["correct"] = False


def _fail_op(workload, out):
    if workload == "paper-desk":
        out["failed"] = 1


@pytest.mark.parametrize("diff, change_run", [
    ("perfbench/run.py", None),  # the benchmark code differs
    ("", _fail_check),  # a check of another workload failed on the change side
    ("", _fail_op),  # another workload fails a larger share of its operations
])
def test_a_claim_is_not_met_on_other_benchmark_code_failed_checks_or_more_failures(monkeypatch, tmp_path, diff,
                                                                                   change_run):
    claim = _patched_main(monkeypatch, tmp_path, diff=diff, change_run=change_run)
    assert claim["change_wins_pairs"] == "10/10" and claim["speedup_of_medians"] >= 1.5
    assert claim["met"] is False
