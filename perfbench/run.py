"""Benchmark of the wjl library: reduce-store, stream-ingest and paper-desk.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reduce-store --seed 1 --seconds 30 --trace 0

Prints the run metadata, each metric of the workload by its own name with its
unit, and as the last line one JSON object with the keys correct, attempted,
failed and metrics (the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1).  `--workload all` runs every workload,
each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS")
for var in PINNED:
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("reduce-store", "stream-ingest", "paper-desk", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for testing the benchmark itself")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
            for name in ("reduce-store", "stream-ingest", "paper-desk")
        ]
        return max(codes)

    if not (SRC / "wjl" / "__init__.py").is_file():
        print(f"error: no wjl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy as np
    import wjl

    if Path(wjl.__file__).resolve().parent != SRC / "wjl":
        print(f"error: imported wjl from {wjl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds,
        sizes=workloads.TINY if args.size == "tiny" else workloads.FULL,
        root=ROOT, out_dir=HERE / "_out",
    )
    tracer = Tracer() if args.trace else None
    try:
        result = workloads.WORKLOADS[args.workload](ctx, tracer)
    except Exception:
        # A library too broken for the workload to finish still gets a result
        # line: correct is false and every metric reads 0.
        traceback.print_exc()
        ctx.check(f"{args.workload} runs to the end", False)
        result = None

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "pinned_env": {v: os.environ[v] for v in PINNED},
        "git_commit": _git_commit(), **(result.meta if result else {}),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for what in ctx.failures:
        print(f"FAILED check: {what}", file=sys.stderr)
    if args.trace:
        tracer.write(ctx.out_dir / f"spans-{args.workload}.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if result is None:
        values = dict.fromkeys(units, 0.0)
    else:
        values = result.layers if args.trace else result.e2e
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, value, unit in result.named if result and not args.trace else []:
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for name, m in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'} {args.workload} {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed, "metrics": metrics,
    }))
    return 0 if ctx.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
