"""Paired benchmark runs of two commits, summarised as a BENCH_<label>.json file.

Run from anywhere inside a git checkout of wjl:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label my_change \\
        --seeds 111-120 --claim reduce-store:ops_per_s:2 --trace-seed 121

Each commit's committed files are exported with `git archive` into a fresh
directory (what the benchmark runs on: no untracked or edited files).  Pair
i (1-based) runs `perfbench/run.py --workload <w> --seed <seed i> --trace 0`
on the parent first when i is odd and on the change first when i is even,
for every workload in turn, so slow drift of the host cancels; every run
lasts BENCHMARK.json's run_seconds.  BENCH_<label>.json, at the repository
root, holds for every workload and end-to-end metric of BENCHMARK.json each
side's runs, median and quartiles, the pairs the change won, and the bound
check: "within" or "outside" the metric's bound, or "unresolved" where the
parent's spread (quartile gap over median) is wider than the bound and not
every change run reads better than every parent run.  `--claim` adds the
claimed metric's speed-up and whether it is met (the benchmark code the
same on both sides, every check of every run correct, no workload's change
side failing a larger share of its operations than the parent, at least
9/10 of the pairs won, the medians further apart than the parent's
quartiles, the ratio at least the target); a claim whose workload or
metric BENCHMARK.json does not name, or whose target is not a positive
number, exits 2 before the first run.  `--trace-seed` adds one `--trace 1`
run per side and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def _git(*args, cwd) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def _export(repo: Path, commit: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _side(runs: list[float]) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": runs}


def _compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    higher = metric["better"] == "higher"
    p, c = _side(parent), _side(change)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    worsening = (1 - ratio) if higher else (ratio - 1)
    spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else float("nan")
    all_better = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > metric["bound"] and not all_better:
        check = "unresolved"
    else:
        check = "within" if worsening <= metric["bound"] else "outside"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c,
        "change_wins_pairs": f"{wins}/{len(parent)}",
        "median_ratio_change_over_parent": ratio,
        "relative_worsening": worsening,
        "parent_spread_over_median": spread,
        "bound_check": check,
        "median_gap_exceeds_parent_iqr": bool(abs(c["median"] - p["median"]) > p["q3"] - p["q1"]),
    }


def _failed_share(failed_attempted: list[int]) -> float:
    failed, attempted = failed_attempted
    return failed / attempted if attempted else 0.0


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"seed range {text} is empty: it ends below its start")
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _claim(text: str, spec: dict) -> tuple[str, str, float]:
    """(workload, metric, target) of a workload:metric:target claim on spec's
    workloads and end-to-end metrics; ValueError with a one-line message."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"claim {text!r} is not workload:metric:target")
    w, metric, target = parts
    workloads = [x["name"] for x in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if w not in workloads:
        raise ValueError(f"claim workload {w!r} is not one of {', '.join(workloads)}")
    if metric not in metrics:
        raise ValueError(f"claim metric {metric!r} is not one of {', '.join(metrics)}")
    try:
        ratio = float(target)
    except ValueError:
        ratio = float("nan")
    if not 0 < ratio < float("inf"):
        raise ValueError(f"claim target {target!r} is not a positive ratio")
    return w, metric, ratio


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", required=True, help="changed commit")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--seeds", type=_seeds, default=_seeds("111-120"), help="one seed per pair: 111-120 or 1,5,9")
    p.add_argument("--claim", help="workload:metric:target ratio of medians, e.g. reduce-store:ops_per_s:2")
    p.add_argument("--trace-seed", type=int, help="seed of one --trace 1 run per side and workload")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=repo)
               for side, ref in (("parent", args.parent), ("change", args.change))}
    spec = json.loads(_git("show", f"{commits['parent']}:BENCHMARK.json", cwd=repo))
    try:
        claim = _claim(args.claim, spec) if args.claim else None
    except ValueError as e:
        print(f"bench_pairs.py: error: {e}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    same_bench = not _git("diff", "--name-only", commits["parent"], commits["change"], "--",
                          "perfbench", "BENCHMARK.json", cwd=repo)
    runs = {(w, side): [] for w in names for side in commits}
    traced = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: _export(repo, commit, Path(tmp) / side) for side, commit in commits.items()}
        for i, seed in enumerate(args.seeds, start=1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for w in names:
                for side in order:
                    runs[w, side].append(_run(trees[side], w, seed, seconds, 0))
                    print(f"pair {i} seed {seed} {w} {side}: correct={runs[w, side][-1]['correct']}", file=sys.stderr)
        if args.trace_seed is not None:
            for w in names:
                for side in commits:
                    metrics = _run(trees[side], w, args.trace_seed, seconds, 1)["metrics"]
                    traced[f"{w}/{side}"] = {name: m["value"] for name, m in metrics.items()}

    workloads = {}
    for w in names:
        par, chg = runs[w, "parent"], runs[w, "change"]
        workloads[w] = {
            "seeds": args.seeds,
            "failed_over_attempted": {side: [sum(r["failed"] for r in runs[w, side]),
                                             sum(r["attempted"] for r in runs[w, side])] for side in commits},
            "all_checks_correct": {side: all(r["correct"] for r in runs[w, side]) for side in commits},
            "end_to_end": {m["name"]: _compare(m, [r["metrics"][m["name"]]["value"] for r in par],
                                               [r["metrics"][m["name"]]["value"] for r in chg])
                           for m in spec["end_to_end"]},
        }
    out = {
        "label": args.label,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "method": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
            "pairs_per_workload": len(args.seeds),
            "order": "pair i runs the parent first when i is odd and the change first when i is even; "
                     "within a pair the workloads run in turn",
            "seeds": args.seeds,
            "checkouts": "git archive of each commit",
            "quartiles": "numpy.percentile 25/75 (linear) over the runs of one side",
            "benchmark_code_identical": same_bench,
        },
    }
    if claim:
        w, metric, target = claim
        cmp = workloads[w]["end_to_end"][metric]
        won, n = (int(s) for s in cmp["change_wins_pairs"].split("/"))
        checks_correct = all(all(wl["all_checks_correct"].values()) for wl in workloads.values())
        no_more_failures = all(_failed_share(wl["failed_over_attempted"]["change"])
                               <= _failed_share(wl["failed_over_attempted"]["parent"]) for wl in workloads.values())
        speedup = cmp["median_ratio_change_over_parent"]
        if cmp["better"] == "lower":
            speedup = 1 / speedup
        out["claim"] = {
            "workload": w, "metric": metric, "target": f"at least {target:g}x",
            "parent_median": cmp["parent"]["median"], "change_median": cmp["change"]["median"],
            "speedup_of_medians": speedup, "change_wins_pairs": cmp["change_wins_pairs"],
            "median_gap_exceeds_parent_iqr": cmp["median_gap_exceeds_parent_iqr"],
            "met": bool(same_bench and checks_correct and no_more_failures and won >= 0.9 * n
                        and cmp["median_gap_exceeds_parent_iqr"] and speedup >= target),
        }
    out["workloads"] = workloads
    out["not_claimed_but_measured"] = [
        f"{w} {m}: {c['bound_check']} (bound {c['bound']:g}, parent spread {c['parent_spread_over_median']:.3f}, "
        f"median ratio {c['median_ratio_change_over_parent']:.3f}, change won {c['change_wins_pairs']})"
        for w, wl in workloads.items() for m, c in wl["end_to_end"].items()
    ]
    if traced:
        out["traced"] = traced
    path = repo / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
