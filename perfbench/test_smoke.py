"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Each workload's own metric names (README.md maps them onto those of BENCHMARK.json).
NAMED = {
    "reduce-store": ["reduce_per_s", "reduce_p50_ms", "reduce_tail_ms", "query_per_s"],
    "stream-ingest": ["update_per_s", "batch_p50_ms", "batch_tail_ms", "checkpoint_s", "wjls_round_trips_per_s"],
    "paper-desk": ["fig_trials_per_s", "sketch_trials_per_s"],
}
COMMON = ["setup_s", "wall_s", "peak_rss_mb", "failed_ratio", "ops_attempted"]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "tiny",
         "--seconds", "1", "--seed", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    lines = _run(workload, trace=0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {ln.split()[2]: ln.split()[4] for ln in lines if ln.startswith(f"metric {workload} ")}
    assert list(printed) == COMMON + NAMED[workload]
    assert all(printed.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = json.loads(_run(workload, trace=1)[-1])
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["trace.accounted_s"]["value"] > 0


def _perturb(cls_name, attr, field):
    def patch(monkeypatch):
        import wjl

        owner = getattr(wjl, cls_name)
        original = getattr(owner, attr)

        def corrupted(data):
            out = original(data)
            getattr(out, field)[(0,) * getattr(out, field).ndim] += 1.0
            return out

        monkeypatch.setattr(owner, attr, staticmethod(corrupted))

    return patch


def _drop_last_row(monkeypatch):
    import wjl.harness

    original = wjl.harness.records_to_csv
    monkeypatch.setattr(wjl.harness, "records_to_csv", lambda *a: original(*a).rsplit("\n", 2)[0] + "\n")


@pytest.mark.parametrize("workload, corrupt", [
    ("reduce-store", _perturb("ReducedVector", "from_bytes", "values")),
    ("stream-ingest", _perturb("StreamSketch", "from_bytes", "counters")),
    ("paper-desk", _drop_last_row),
])
def test_corrupted_output_is_counted_as_failed(workload, corrupt, monkeypatch):
    corrupt(monkeypatch)
    ctx = workloads.Context(seed=5, seconds=0.5, sizes=workloads.TINY, root=ROOT, out_dir=HERE / "_out" / "smoke")
    result = workloads.WORKLOADS[workload](ctx)
    named = {name: value for name, value, _ in result.named}
    assert ctx.failed > 0 and named["failed_ratio"] > 0
    assert np.isfinite(list(result.e2e.values())).all()


def test_broken_library_still_prints_a_failed_result(monkeypatch, capsys):
    import run
    import wjl.projection

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(wjl.projection, "reduce_sparse", broken)
    code = run.main(["--workload", "reduce-store", "--size", "tiny", "--seconds", "0.5", "--seed", "5"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])
