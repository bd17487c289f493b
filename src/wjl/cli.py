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
from .generators import gen_pair, sparse_csv
from .harness import (
    SCALES,
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

#: The experiment flags.  Each subcommand adds only those it reads; a flag
#: left at None falls back to the scale preset or the ExperimentConfig default.
_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--d": dict(type=int),
    "--trials": dict(type=int),
    "--k": dict(type=int, action="append", help="repeatable"),
    "--l": dict(type=int),
    "--l-overlap": dict(type=int),
    "--epsilon": dict(type=float),
    "--delta": dict(type=float),
    "--out": dict(type=Path, default=Path("out")),
    "--scale": dict(choices=tuple(SCALES), default="desk"),
    "--threads": dict(type=int),
    "--config": dict(type=Path, help="JSON config file"),
}
_FIG_FLAGS = ("--seed", "--d", "--trials", "--k", "--l", "--l-overlap", "--out", "--scale", "--threads", "--config")

#: Keys a --config file may set, with their JSON types (a float also takes
#: an integer).  The top-level keys are ExperimentConfig fields, all but
#: experiment, which the command names.
_CONFIG_TYPES = {
    "trials": int, "k_list": list, "spec": dict, "out_dir": str,
    "master_seed": int, "threads": int, "epsilon": float, "delta": float,
}
_SPEC_TYPES = {"d": int, "l_x": int, "l_w": int, "l_overlap": int, "norm_x": float, "seed": int}


def _read_pairs(text: str, source) -> tuple[np.ndarray, np.ndarray]:
    """Parse `int,float` CSV lines, skipping blank lines and a header: the
    first non-blank line, when it starts with a letter."""
    idx, vals = [], []
    header = True
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if header:
            header = False
            if ln[0].isalpha():
                continue
        try:
            i, v = ln.split(",")
            index, value = int(i), float(v)
        except ValueError as exc:
            raise ValueError(f"{source} line {lineno}: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"{source} line {lineno}: non-finite value {v.strip()}")
        idx.append(index)
        vals.append(value)
    return np.array(idx), np.array(vals)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wjl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # No prefix matching, so that a flag another command reads is an
        # error here: --out on reduce must not be taken for --output.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def flags(p, *names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    p = command("gen", help="generate a sparse pair as CSV files")
    flags(p, "--seed", "--d", "--l", "--l-overlap", "--out", "--scale", "--config")

    p = command("reduce", help="reduce a sparse vector to a WJLR file")
    flags(p, "--seed", "--d", "--scale", "--config")
    p.add_argument("vector", type=Path, help="sparse CSV index,value")
    p.add_argument("--k-dim", type=int, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = command("estimate", help="estimate the weighted squared norm from two WJLR files")
    p.add_argument("reduced_x", type=Path)
    p.add_argument("reduced_w", type=Path)

    p = command("sketch", help="sketch a stream from CSV lines t,value")
    flags(p, "--seed")
    p.add_argument("stream", type=Path, help="CSV file or - for stdin")
    p.add_argument("--mode", choices=("timestep", "turnstile"), default="timestep")
    p.add_argument("--r", type=int, default=13)
    p.add_argument("--m", type=int, default=137)
    p.add_argument("--output", type=Path, required=True)

    for name in ("fig1", "fig2", "fig3", "fig4"):
        flags(command(name, help=f"run the {name} experiment"), *_FIG_FLAGS)
    p = command("sketch-eval", help="run the sketch-eval experiment")
    flags(p, "--seed", "--d", "--epsilon", "--delta", "--out", "--scale", "--threads", "--config")

    flags(command("verify", help="run the oracle equivalence suite"), "--seed")

    p = command("plot", help="render a histogram SVG from an experiment CSV")
    p.add_argument("csv", type=Path)
    p.add_argument("--column", default="estimate")
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--output", type=Path, required=True)
    return parser


def _check_keys(raw, types: dict, where: str):
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, value in raw.items():
        if key not in types:
            raise ValueError(f"{where} has unknown key {key!r}")
        want = (int, float) if types[key] is float else types[key]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ValueError(f"{where}: {key} must be {types[key].__name__}, got {type(value).__name__}")


def _load_config(path: Path) -> dict:
    """A --config file's JSON object, with every key and value type checked."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    _check_keys(raw, _CONFIG_TYPES, f"config {path}")
    _check_keys(raw.get("spec", {}), _SPEC_TYPES, f"config {path} spec")
    for k in raw.get("k_list", []):
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"config {path}: k_list must hold integers, got {type(k).__name__}")
    return raw


def _settings(args) -> tuple[dict, dict]:
    """The ExperimentConfig and SparseSpec fields that the flags given set,
    then the --config file's over them; only the file is checked here."""
    opts = {flag: v for flag, v in vars(args).items() if v is not None}
    flag_of = (("out_dir", "out"), ("master_seed", "seed"), ("trials", "trials"), ("k_list", "k"),
             ("threads", "threads"), ("epsilon", "epsilon"), ("delta", "delta"))
    fields = {field: opts[flag] for field, flag in flag_of if flag in opts}
    spec = {field: opts[flag] for field, flag in (("d", "d"), ("l_x", "l"), ("l_w", "l"), ("l_overlap", "l_overlap"))
            if flag in opts}
    if args.config:
        raw = _load_config(args.config)
        spec |= raw.pop("spec", {})
        fields |= raw
    if "k_list" in fields:
        fields["k_list"] = tuple(fields["k_list"])
    if "out_dir" in fields:
        fields["out_dir"] = Path(fields["out_dir"])
    return fields, spec


def _experiment_config(args) -> ExperimentConfig:
    """The scale preset with the merged settings over it; only these final
    values are checked."""
    fields, spec = _settings(args)
    cfg = ExperimentConfig.preset(args.scale, args.command)
    return replace(cfg, spec=replace(cfg.spec, **spec), **fields)


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
            fields, spec = _settings(args)
            idx, vals = _read_pairs(args.vector.read_text(), args.vector)
            d = spec.get("d", SCALES[args.scale]["d"])
            gv = reduce_sparse(ProjectionMatrix(k=args.k_dim, d=d, seed=fields["master_seed"]), idx, vals)
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
            rows, path = run_sketch_eval(cfg)
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
