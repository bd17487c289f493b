"""Experiment harness: concentration and distortion studies plus verification.

Every experiment is a pure function of its config; per-trial seeds are
derived from the master seed and the trial index, so trials can run on a
thread pool and results are sorted by index before writing.  Re-running with
the same master seed yields byte-identical CSV and SVG outputs.
"""

from __future__ import annotations

import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._mix import mix2
from .generators import SparseSpec, gen_pair
from .oracle import WeightedPair, distortion, exact_expectation, weighted_sq_norm
from .projection import ProjectionMatrix, reduce_sparse, rho
from .sketch import StreamSketch, pair_estimates, plan_sketch
# perfbench/spans.py traces these names here; sketch-eval no longer calls them.
from .sketch import ingest_pair, sketch_estimate  # noqa: F401

# Seed-stream tags for deriving per-purpose seeds from the master seed.
_TAG_PAIR = 1
_TAG_MATRIX = 2
_TAG_VECTOR = 3
_TAG_SKETCH = 4

#: The experiment grid of each --scale: the paper's, and a desk-sized one on
#: which the full suite runs in minutes.  sketch_seeds is sketch-eval's
#: trials: its number of sketches per arm.
SCALES = {
    "desk": {"d": 2_000, "k_list": (100, 1_000, 10_000), "trials": 100, "sketch_seeds": 100},
    "paper": {"d": 200_000, "k_list": (100, 1_000, 10_000, 100_000), "trials": 250, "sketch_seeds": 500},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int
    k_list: tuple[int, ...]
    spec: SparseSpec
    out_dir: Path = Path(".")
    master_seed: int = 0
    threads: int = 1
    epsilon: float = 0.3
    delta: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        if min(self.k_list) < 1:
            raise ValueError(f"k_list values must be positive, got {min(self.k_list)}")
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")

    @classmethod
    def preset(cls, scale: str, experiment: str, **overrides) -> "ExperimentConfig":
        """The grid of SCALES[scale] for a 10-sparse pair overlapping in 8, then overrides."""
        grid = SCALES[scale]
        spec = SparseSpec(d=grid["d"], l_x=10, l_w=10, l_overlap=8)
        trials = grid["sketch_seeds" if experiment == "sketch-eval" else "trials"]
        fields = dict(experiment=experiment, trials=trials, k_list=grid["k_list"], spec=spec)
        return cls(**(fields | overrides))


@dataclass
class TrialRecord:
    trial_index: int
    k: int
    estimate: float
    true_value: float
    distortion: float
    arm: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.true_value == 0.0:
            return None
        return self.estimate / self.true_value


_CSV_COLUMNS = ("trial_index", "k", "arm", "estimate", "true_value", "ratio", "distortion")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _csv(meta: dict, columns, rows) -> str:
    """A metadata comment line (sorted-key JSON plus library_version), a
    header of the columns, then one line per row of values."""
    buf = io.StringIO()
    meta = dict(meta, library_version=__version__)
    buf.write("# " + json.dumps(meta, sort_keys=True, default=str) + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def records_to_csv(records: list[TrialRecord], meta: dict) -> str:
    """Serialize records with a leading metadata comment line."""
    rows = (
        [rec.trial_index, rec.k, rec.arm, rec.estimate, rec.true_value, rec.ratio, rec.distortion]
        for rec in sorted(records, key=lambda r: (r.arm, r.k, r.trial_index))
    )
    return _csv(meta, _CSV_COLUMNS, rows)


def read_csv(text: str) -> tuple[dict, list[dict]]:
    """Parse a harness CSV back into (metadata, row dicts); ValueError when it
    has no header line or a metadata line that is not a JSON object."""
    lines = [ln for ln in text.splitlines() if ln]
    meta = {}
    if lines and lines[0].startswith("#"):
        try:
            meta = json.loads(lines.pop(0)[1:])
        except json.JSONDecodeError:
            raise ValueError("CSV metadata line is not JSON") from None
    if not isinstance(meta, dict):
        raise ValueError("CSV metadata line must hold a JSON object")
    if not lines:
        raise ValueError("CSV has no header line")
    header = lines[0].split(",")
    return meta, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _write(cfg: ExperimentConfig, name: str, text: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def _pool_map(threads: int, fn, args_list) -> list:
    """[fn(a) for a in args_list], on a pool of that many threads when above 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args_list))
    return [fn(a) for a in args_list]


def _map(cfg: ExperimentConfig, fn, args_list):
    """The fig trials' map: one call of fn per trial."""
    return _pool_map(cfg.threads, fn, args_list)


def _support(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, values) of v's nonzero entries."""
    idx = np.flatnonzero(v)
    return idx, v[idx]


def _config_meta(cfg: ExperimentConfig, **extra) -> dict:
    meta = {
        "experiment": cfg.experiment,
        "trials": cfg.trials,
        "k_list": list(cfg.k_list),
        "spec": vars(cfg.spec) | {},
        "master_seed": cfg.master_seed,
    }
    meta.update(extra)
    return meta


def _fixed_pair_arm(
    cfg: ExperimentConfig, arm: str, seed_offset: int, pair: WeightedPair, k: int
) -> list[TrialRecord]:
    """cfg.trials estimates of one pair at one k, each with a fresh matrix
    whose seed is drawn at index seed_offset + trial.

    x and w are reduced together, as the two rows of one product over the
    union of their supports; the union and its (2, n) values are built once
    per arm.
    """
    truth = weighted_sq_norm(pair)
    dist = distortion(pair)
    union = np.flatnonzero((pair.x != 0) | (pair.w != 0))
    both = np.stack((pair.x[union], pair.w[union]))

    def task(trial):
        A = ProjectionMatrix(k=k, d=len(pair.x), seed=mix2(cfg.master_seed, _TAG_MATRIX, seed_offset + trial))
        return TrialRecord(trial, k, rho(*reduce_sparse(A, union, both)), truth, dist, arm=arm)

    return _map(cfg, task, list(range(cfg.trials)))


def run_fig1(cfg: ExperimentConfig) -> tuple[list[TrialRecord], Path]:
    """Fixed pair, fresh matrix per trial, all k in the grid."""
    pair = gen_pair(replace(cfg.spec, seed=mix2(cfg.master_seed, _TAG_PAIR, 0)))
    records = []
    for ki, k in enumerate(cfg.k_list):
        records.extend(_fixed_pair_arm(cfg, "", ki * cfg.trials, pair, k))
    meta = _config_meta(cfg, true_value=weighted_sq_norm(pair))
    return records, _write(cfg, "fig1.csv", records_to_csv(records, meta))


def run_fig2(cfg: ExperimentConfig) -> tuple[list[TrialRecord], Path]:
    """Fixed matrix seed and weight vector, fresh random x per trial.

    w is reduced once per k, with that k's matrix, before the trials run.
    """
    w = gen_pair(replace(cfg.spec, seed=mix2(cfg.master_seed, _TAG_PAIR, 0))).w
    matrix_seed = mix2(cfg.master_seed, _TAG_MATRIX, 0)
    matrices = [ProjectionMatrix(k=k, d=cfg.spec.d, seed=matrix_seed) for k in cfg.k_list]
    sw = _support(w)
    gws = [reduce_sparse(A, *sw) for A in matrices]

    def task(arg):
        ki, trial = arg
        x = gen_pair(replace(cfg.spec, seed=mix2(cfg.master_seed, _TAG_VECTOR, trial))).x
        pair = WeightedPair(x, w)  # overlap of this pair varies with the draw
        truth = weighted_sq_norm(pair)
        est = rho(reduce_sparse(matrices[ki], *_support(x)), gws[ki])
        return TrialRecord(trial, cfg.k_list[ki], est, truth, distortion(pair) if truth else float("nan"))

    args = [(ki, t) for ki in range(len(cfg.k_list)) for t in range(cfg.trials)]
    records = _map(cfg, task, args)
    path = _write(cfg, "fig2.csv", records_to_csv(records, _config_meta(cfg, matrix_seed=matrix_seed)))
    return records, path


def run_fig3(cfg: ExperimentConfig) -> tuple[list[TrialRecord], Path]:
    """Two arms differing only in support overlap (2 vs 10)."""
    k = max(cfg.k_list)
    records = []
    for overlap in (2, 10):
        spec = replace(cfg.spec, l_overlap=overlap, seed=mix2(cfg.master_seed, _TAG_PAIR, overlap))
        records.extend(_fixed_pair_arm(cfg, f"overlap{overlap}", overlap * 1_000_000, gen_pair(spec), k))
    path = _write(cfg, "fig3.csv", records_to_csv(records, _config_meta(cfg, k=k)))
    return records, path


def run_fig4(cfg: ExperimentConfig) -> tuple[list[TrialRecord], Path]:
    """Arms of increasing density l, overlap fixed at 0.8 l."""
    k = max(cfg.k_list)
    records = []
    for l in (10, 30, 100):
        spec = replace(
            cfg.spec,
            l_x=l,
            l_w=l,
            l_overlap=int(0.8 * l),
            seed=mix2(cfg.master_seed, _TAG_PAIR, l),
        )
        records.extend(_fixed_pair_arm(cfg, f"l{l}", l * 1_000_000, gen_pair(spec), k))
    path = _write(cfg, "fig4.csv", records_to_csv(records, _config_meta(cfg, k=k)))
    return records, path


def sketch_success_rate(
    pair: WeightedPair,
    epsilon: float,
    r: int,
    widths: tuple[int, ...],
    n_seeds: int,
    master_seed: int,
    threads: int = 1,
) -> list[float]:
    """Per width m, the fraction of independent r x m sketches whose estimate
    lands within epsilon, all widths read from the same seeds' counters (see
    pair_estimates).  The seeds are split into `threads` contiguous ranges,
    one pair_estimates call each on a pool of that many threads, and the
    rates do not depend on it."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    truth = weighted_sq_norm(pair)
    union = np.union1d(np.flatnonzero(pair.x), np.flatnonzero(pair.w))
    xs, ws = pair.x[union], pair.w[union]
    seeds = np.array([mix2(master_seed, _TAG_SKETCH, s) for s in range(n_seeds)], dtype=np.uint64)

    def estimates(part):
        return pair_estimates(union, xs, ws, part, r, widths)

    # _pool_map, not _map: _map maps fig trials, and a seed is not one.
    ests = np.concatenate(_pool_map(threads, estimates, np.array_split(seeds, min(threads, n_seeds))))
    hits = (np.abs(ests - truth) <= epsilon * truth).sum(axis=0)
    return [int(h) / n_seeds for h in hits]


def run_sketch_eval(cfg: ExperimentConfig) -> tuple[list[dict], Path]:
    """Empirical (epsilon, delta) check of the planned sketch dimensions, over
    cfg.trials sketches per arm.

    Includes a deliberately undersized m/4 arm, from the same sketches, as a
    sanity direction.  The metadata's spec is the 2-sparse one drawn.
    """
    spec = replace(cfg.spec, l_x=2, l_w=2, l_overlap=2, seed=mix2(cfg.master_seed, _TAG_PAIR, 0))
    pair = gen_pair(spec)
    dist = distortion(pair)
    r, m = plan_sketch(cfg.epsilon, cfg.delta, dist)
    widths = (m, max(1, m // 4))
    rates = sketch_success_rate(pair, cfg.epsilon, r, widths, cfg.trials, cfg.master_seed, cfg.threads)
    rows = []
    for arm, width, rate in zip(("planned", "undersized"), widths, rates):
        rows.append(
            {
                "arm": arm,
                "epsilon": cfg.epsilon,
                "delta": cfg.delta,
                "distortion": dist,
                "r": r,
                "m": width,
                "n_seeds": cfg.trials,
                "success_rate": rate,
                "sketch_bytes": StreamSketch.serialized_size(r, width),
            }
        )
    meta = _config_meta(replace(cfg, spec=spec), true_value=weighted_sq_norm(pair))
    text = _csv(meta, list(rows[0]), [list(row.values()) for row in rows])
    path = _write(cfg, "sketch_eval.csv", text)
    return rows, path


def run_verify(seed: int = 0) -> list[tuple[str, bool]]:
    """Oracle-vs-implementation equivalence suite; returns (check, passed) pairs."""
    rng = np.random.default_rng(seed)
    results = []

    ok = True
    for d in range(1, 7):
        for _ in range(20):
            x = rng.standard_normal(d)
            w = np.abs(rng.standard_normal(d))
            truth = weighted_sq_norm(WeightedPair(x, w))
            if abs(exact_expectation(x, w) - truth) > 1e-9 * max(truth, 1e-30):
                ok = False
    results.append(("enumeration oracle matches weighted squared norm", ok))

    ok = True
    for _ in range(100):
        x1 = float(rng.standard_normal())
        w1 = float(abs(rng.standard_normal()) + 0.1)
        k = int(rng.integers(1, 64))
        A = ProjectionMatrix(k=k, d=1, seed=int(rng.integers(0, 2**63)))
        est = rho(reduce_sparse(A, [0], [x1]), reduce_sparse(A, [0], [w1]))
        if abs(est - (x1 * w1) ** 2) > 1e-12 * (x1 * w1) ** 2:
            ok = False
    results.append(("d=1 estimates are exact", ok))

    ok = True
    for _ in range(50):
        x = rng.standard_normal(8)
        w = np.abs(rng.standard_normal(8))
        pair = WeightedPair(x, w)
        if distortion(pair) < 1.0 - 1e-12:
            ok = False
    results.append(("distortion at least 1", ok))
    return results


def render_histogram(csv_in: Path, column: str, bins: int, svg_out: Path, *, allow_empty: bool = False) -> Path:
    """Deterministic SVG histogram over a numeric CSV column.

    Fixed 640x480 viewport, equal-width bins over [min, max], heights
    normalized to the fullest bin; a vertical reference line marks the true
    value when present in the CSV metadata.  A CSV that read_csv rejects or
    that has no data rows raises ValueError naming csv_in; a column with no
    numeric value raises ValueError, or with allow_empty gets an SVG of the
    axis alone.
    """
    try:
        meta, rows = read_csv(Path(csv_in).read_text())
    except ValueError as exc:
        raise ValueError(f"{csv_in}: {exc}") from None
    if not rows:
        raise ValueError(f"{csv_in}: no data rows in CSV")
    if column not in rows[0]:
        raise ValueError(f"column {column!r} not found")
    try:
        values = np.array([float(r[column]) for r in rows if r[column] != ""])
    except ValueError as exc:
        raise ValueError(f"column {column!r} is not numeric") from exc
    if values.size == 0 and not allow_empty:
        raise ValueError("no numeric values in column")
    if bins < 1:
        raise ValueError("bins must be positive")

    width, height = 640, 480
    ml, mr, mt, mb = 50, 20, 20, 40
    plot_w, plot_h = width - ml - mr, height - mt - mb
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if values.size:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:  # one centred bar, a quarter of the plot wide
            def sx(v):  # data x -> pixels
                return ml + plot_w / 2

            counts, bar_w = np.array([values.size]), plot_w / 4
            lefts = [sx(lo) - bar_w / 2]
        else:
            def sx(v):  # data x -> pixels
                return ml + (v - lo) / (hi - lo) * plot_w

            counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
            bar_w, lefts = plot_w / bins, [sx(e) for e in edges[:-1]]
        for x0, h in zip(lefts, counts / counts.max()):
            bh = h * plot_h
            parts.append(
                f'<rect x="{x0!r}" y="{mt + plot_h - bh!r}" width="{bar_w!r}" '
                f'height="{bh!r}" fill="#4878a8" stroke="black" stroke-width="0.5"/>'
            )
        truth = meta.get("true_value")
        if truth is not None and lo <= float(truth) <= hi:
            tx = sx(float(truth))
            parts.append(
                f'<line x1="{tx!r}" y1="{mt}" x2="{tx!r}" y2="{mt + plot_h}" '
                f'stroke="red" stroke-width="1.5" stroke-dasharray="4,3"/>'
            )
    parts.append(
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    if values.size:
        parts.append(f'<text x="{ml}" y="{height - 10}" font-size="12">{_fmt(lo)}</text>')
        parts.append(
            f'<text x="{ml + plot_w - 80}" y="{height - 10}" font-size="12">{_fmt(hi)}</text>'
        )
    parts.append("</svg>")
    svg_out = Path(svg_out)
    svg_out.parent.mkdir(parents=True, exist_ok=True)
    svg_out.write_text("\n".join(parts) + "\n")
    return svg_out
