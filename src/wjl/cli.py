"""Command-line interface for vector generation, reduction, sketching, and
the experiment harness.

Exit codes: 0 success, 1 verification failure, 2 bad arguments or IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .generators import SparseSpec, gen_pair, sparse_csv
from .harness import (
    DESK_SCALE,
    PAPER_SCALE,
    ExperimentConfig,
    render_histogram,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_sketch_eval,
    run_verify,
)
from .projection import ProjectionMatrix, ReducedVector, reduce_sparse, rho
from .sketch import SketchConfig, StreamSketch

_SCALES = {"desk": DESK_SCALE, "paper": PAPER_SCALE}


def _read_pairs(text: str, source) -> tuple[np.ndarray, np.ndarray]:
    """Parse `int,float` CSV lines, skipping blank and header lines."""
    idx, vals = [], []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln[0].isalpha():
            continue
        i, v = ln.split(",")
        value = float(v)
        if not math.isfinite(value):
            raise ValueError(f"{source} line {lineno}: non-finite value {v.strip()}")
        idx.append(int(i))
        vals.append(value)
    return np.array(idx), np.array(vals)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wjl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--k", type=int, action="append", default=None, help="repeatable")
        p.add_argument("--l", type=int, default=10)
        p.add_argument("--l-overlap", type=int, default=8)
        p.add_argument("--epsilon", type=float, default=0.3)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--scale", choices=("paper", "desk"), default="desk")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")

    p = sub.add_parser("gen", help="generate a sparse pair as CSV files")
    common(p)

    p = sub.add_parser("reduce", help="reduce a sparse vector to a WJLR file")
    common(p)
    p.add_argument("vector", type=Path, help="sparse CSV index,value")
    p.add_argument("--k-dim", type=int, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("estimate", help="estimate the weighted squared norm from two WJLR files")
    p.add_argument("reduced_x", type=Path)
    p.add_argument("reduced_w", type=Path)

    p = sub.add_parser("sketch", help="sketch a stream from CSV lines t,value")
    common(p)
    p.add_argument("stream", type=Path, help="CSV file or - for stdin")
    p.add_argument("--mode", choices=("timestep", "turnstile"), default="timestep")
    p.add_argument("--r", type=int, default=13)
    p.add_argument("--m", type=int, default=137)
    p.add_argument("--output", type=Path, required=True)

    for name in ("fig1", "fig2", "fig3", "fig4", "sketch-eval"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        common(p)

    p = sub.add_parser("verify", help="run the oracle equivalence suite")
    common(p)

    p = sub.add_parser("plot", help="render a histogram SVG from an experiment CSV")
    p.add_argument("csv", type=Path)
    p.add_argument("--column", default="estimate")
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--output", type=Path, required=True)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    scale = _SCALES[args.scale]
    d = args.d if args.d is not None else scale["d"]
    k_list = tuple(args.k) if args.k else tuple(scale["k_list"])
    trials = args.trials if args.trials is not None else scale["trials"]
    spec = SparseSpec(d=d, l_x=args.l, l_w=args.l, l_overlap=args.l_overlap)
    cfg = ExperimentConfig(
        experiment=args.command,
        trials=trials,
        k_list=k_list,
        spec=spec,
        out_dir=args.out,
        master_seed=args.seed,
        threads=args.threads,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    if args.config:
        raw = json.loads(args.config.read_text())
        if "spec" in raw:
            cfg = replace(cfg, spec=SparseSpec(**raw.pop("spec")))
        if "out_dir" in raw:
            raw["out_dir"] = Path(raw["out_dir"])
        if "k_list" in raw:
            raw["k_list"] = tuple(raw["k_list"])
        cfg = replace(cfg, **raw)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            cfg = _experiment_config(args)
            spec = replace(cfg.spec, seed=cfg.master_seed)
            pair = gen_pair(spec)
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            (cfg.out_dir / "x.csv").write_text(sparse_csv(pair.x))
            (cfg.out_dir / "w.csv").write_text(sparse_csv(pair.w))
            print(f"wrote {cfg.out_dir}/x.csv and {cfg.out_dir}/w.csv")
        elif args.command == "reduce":
            d = args.d if args.d is not None else _SCALES[args.scale]["d"]
            seed = args.seed
            if args.config:
                raw = json.loads(args.config.read_text())
                d = raw.get("spec", {}).get("d", d)
                seed = raw.get("master_seed", seed)
            idx, vals = _read_pairs(args.vector.read_text(), args.vector)
            gv = reduce_sparse(ProjectionMatrix(k=args.k_dim, d=d, seed=seed), idx, vals)
            args.output.write_bytes(gv.to_bytes())
            print(f"wrote {args.output}")
        elif args.command == "estimate":
            gx = ReducedVector.from_bytes(args.reduced_x.read_bytes())
            gw = ReducedVector.from_bytes(args.reduced_w.read_bytes())
            print(repr(rho(gx, gw)))
        elif args.command == "sketch":
            stdin = str(args.stream) == "-"
            text = sys.stdin.read() if stdin else args.stream.read_text()
            sk = StreamSketch(SketchConfig(r=args.r, m=args.m, seed=args.seed, mode=args.mode))
            ts, vs = _read_pairs(text, "stdin" if stdin else args.stream)
            sk.update_many(ts, vs)
            args.output.write_bytes(sk.to_bytes())
            print(f"wrote {args.output} ({len(ts)} updates)")
        elif args.command in ("fig1", "fig2", "fig3", "fig4"):
            cfg = _experiment_config(args)
            runner = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4}[args.command]
            _, path = runner(cfg)
            svg = path.with_suffix(".svg")
            # fig2's ratio column is empty when no trial's x overlaps w; the
            # run itself succeeded, so it still gets its SVG.
            render_histogram(path, "ratio" if args.command == "fig2" else "estimate", 30, svg, allow_empty=True)
            print(f"wrote {path} and {svg}")
        elif args.command == "sketch-eval":
            cfg = _experiment_config(args)
            # Desk preset shrinks the seed count the same way it shrinks trials.
            rows, path = run_sketch_eval(cfg, n_seeds=500 if args.scale == "paper" else 100)
            for row in rows:
                print(f"{row['arm']}: success_rate={row['success_rate']}")
            print(f"wrote {path}")
        elif args.command == "verify":
            failures = 0
            for name, ok in run_verify(seed=args.seed):
                print(f"{'PASS' if ok else 'FAIL'}  {name}")
                failures += not ok
            return 1 if failures else 0
        elif args.command == "plot":
            out = render_histogram(args.csv, args.column, args.bins, args.output)
            print(f"wrote {out}")
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
