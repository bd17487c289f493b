"""The benchmark's three workloads over the public wjl API.

Each workload builds its inputs from the seed, times rounds of a fixed unit
of work until the time budget would be passed, then checks the outputs
outside the timed phase.  Every workload reports the same end-to-end metrics
of BENCHMARK.json (see README.md for how they map onto each workload's own
names).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNITS = (1, 1j, -1, -1j)  # i**e for e = 0..3, the reference for entry exponents


@dataclass(frozen=True)
class Sizes:
    # reduce-store: one k x d matrix; per round, data vectors and weights with
    # nnz 3:1 from (small, large), supports Zipf(zipf_a) over columns.
    k: int
    d: int
    data_small: int
    data_large: int
    weights_small: int
    weights_large: int
    nnz: tuple[int, int]
    zipf_a: float
    # stream-ingest: an r x m sketch fed update batches; the checkpoint also
    # round-trips a sketch sized by plan_sketch(*planned).
    r: int
    m: int
    batch: int
    data_batches: int
    weight_batches: int
    planned: tuple[float, float, float]
    # paper-desk: extra CLI arguments for the fig commands and sketch-eval.
    fig_args: tuple[str, ...]
    sketch_eval_args: tuple[str, ...]


# Rounds are short (about 1.2 s and 0.6 s on the machine in README.md) so
# that a run holds many of them and every timing is a median over rounds.
FULL = Sizes(
    k=100_000, d=200_000, data_small=6, data_large=2, weights_small=3, weights_large=1,
    nnz=(10, 100), zipf_a=1.1,
    r=13, m=137, batch=256, data_batches=4, weight_batches=1, planned=(0.3, 0.05, math.sqrt(2)),
    fig_args=(),
    # The desk default epsilon 0.3 plans 37 x 6046 sketches and takes about
    # 37 s per call, longer than a run; 0.8 plans 37 x 851 on the same path.
    sketch_eval_args=("--epsilon", "0.8"),
)

TINY = Sizes(
    k=64, d=2_000, data_small=3, data_large=1, weights_small=1, weights_large=1,
    nnz=(4, 12), zipf_a=1.1,
    r=5, m=7, batch=16, data_batches=4, weight_batches=1, planned=(0.9, 0.3, math.sqrt(2)),
    fig_args=("--d", "150", "--trials", "10", "--k", "16", "--k", "64"),
    sketch_eval_args=("--epsilon", "1.0", "--delta", "0.3"),
)

TAIL_PCT = {"reduce-store": 90, "stream-ingest": 90, "paper-desk": 95}


@dataclass
class Context:
    """One run's settings, counters and findings."""

    seed: int
    seconds: float
    sizes: Sizes
    root: Path
    out_dir: Path
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, what: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


@dataclass
class Result:
    e2e: dict  # end-to-end metric of BENCHMARK.json -> value
    named: list  # (workload's own metric name, value, unit)
    meta: dict
    layers: dict = field(default_factory=dict)  # per-layer metric -> value, traced runs only


def attempt_round(ctx: Context, round_fn, i: int) -> list[float]:
    """[round_fn(i)], or [] when it raises, which counts as one failed operation."""
    try:
        return [round_fn(i)]
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ctx.attempted += 1
        ctx.failed += 1
        ctx.failures.append(f"round {i} raised")
        return []


def timed_rounds(ctx: Context, round_fn, seconds: float) -> list[float]:
    """Run round_fn(i) -> timed seconds while the next round is expected to
    end within `seconds`; at least one round.  Stops at the first round that
    raises, so the list is empty when the first one does."""
    durations, start, i = [], time.perf_counter(), 0
    while True:
        done = attempt_round(ctx, round_fn, i)
        if not done:
            return durations
        durations += done
        i += 1
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations


def import_seconds(root: Path, module: str, repeats: int = 7) -> float:
    """Median time to import `module` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def setup_seconds(root: Path, module: str, construct, repeats: int = 7):
    """setup_s = median import time + median construction time of the long-lived objects."""
    builds, obj = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        obj = construct()
        builds.append(time.perf_counter() - t0)
    return import_seconds(root, module) + statistics.median(builds), obj


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_stats(samples_s: list[float], pct: int) -> tuple[float, float, dict]:
    ms = np.asarray(samples_s) * 1e3
    beyond = int(len(ms) - math.ceil(pct / 100 * len(ms)))
    return float(np.median(ms)), float(np.percentile(ms, pct)), {
        "samples": len(ms), "tail_percentile": pct, "samples_beyond_tail": beyond,
    }


class ZipfColumns:
    """Column indices whose popularity ranks follow Zipf(a), ranks mapped to
    columns by a seeded permutation so popular columns are spread over d."""

    def __init__(self, rng: np.random.Generator, d: int, a: float):
        self.rng, self.a, self.columns = rng, a, rng.permutation(d)

    def draw(self, n: int) -> np.ndarray:
        out = np.empty(0, dtype=np.int64)
        while out.size < n:
            ranks = self.rng.zipf(self.a, size=2 * n)
            out = np.concatenate([out, ranks[ranks <= self.columns.size]])
        return self.columns[out[:n] - 1]

    def support(self, nnz: int) -> np.ndarray:
        """nnz distinct columns, in order of first draw."""
        picked: dict[int, None] = {}
        while len(picked) < nnz:
            for c in self.draw(nnz).tolist():
                if len(picked) < nnz:
                    picked.setdefault(c, None)
        return np.fromiter(picked, dtype=np.int64)


def repeat_share(chunks: list[np.ndarray]) -> float:
    """Share of drawn indices that repeat an earlier one: 1 - distinct / total."""
    total = sum(c.size for c in chunks)
    return 1.0 - np.unique(np.concatenate(chunks)).size / total if total else 0.0


# --------------------------------------------------------------------------
# reduce-store


def reduce_store(ctx: Context, tracer=None) -> Result:
    import wjl
    from wjl import projection as P

    s = ctx.sizes
    rng = np.random.default_rng(ctx.seed)
    matrix_seed = int(rng.integers(0, 2**63))
    setup_s, A = setup_seconds(ctx.root, "wjl", lambda: P.ProjectionMatrix(k=s.k, d=s.d, seed=matrix_seed))
    cols = ZipfColumns(rng, s.d, s.zipf_a)
    small, large = s.nnz

    def draw(n_small, n_large, positive):
        # A fixed interleaving (small, small, small, large, ...) keeps the
        # peak memory of a round independent of the seed.
        per = n_small // n_large
        kinds = ([small] * per + [large]) * n_large + [small] * (n_small - per * n_large)
        out = []
        for nnz in kinds:
            vals = rng.standard_normal(nnz)
            out.append((cols.support(nnz), np.abs(vals) + 0.1 if positive else vals))
        return out

    rec = defaultdict(list)  # per-round measurements; the warm-up round's are dropped
    supports, kept, round_shares, finite = [], [], [], [True]

    def one_round(i):
        data = draw(s.data_small, s.data_large, False)
        weights = draw(s.weights_small, s.weights_large, True)
        round_supports = [idx for idx, _ in data]
        supports.extend(round_supports)
        round_shares.append(repeat_share(round_supports))
        sampled = set(rng.choice(len(data), size=2, replace=False).tolist())
        t_round = time.perf_counter()
        reduced = []
        for idx, vals in data + weights:
            t0 = time.perf_counter()
            reduced.append(P.reduce_sparse(A, idx, vals))
            rec["reduce_s"].append(time.perf_counter() - t0)
        rec["reduce_per_s"].append(len(reduced) / sum(rec["reduce_s"][-len(reduced):]))
        stored = []
        for j, g in enumerate(reduced):
            blob = g.to_bytes()
            stored.append(P.ReducedVector.from_bytes(blob))
            if j in sampled and len(kept) < 4:
                kept.append((data[j], g, blob, stored[-1]))
        gx, gw = stored[: len(data)], stored[len(data):]
        t0 = time.perf_counter()
        answers = [P.rho(x, w) for w in gw for x in gx]
        answers += [P.rho_pairwise(x, y, w) for w in gw for x, y in zip(gx, gx[1:])]
        end = time.perf_counter()
        rec["query_per_s"].append(len(answers) / (end - t0))
        rec["queries"].append(len(answers))
        finite[0] &= bool(np.all(np.isfinite(answers)))
        ctx.attempted += len(reduced) + len(answers)
        return end - t_round

    rounds, layers, _ = _run_timed(ctx, one_round, tracer, rec)
    rss = peak_rss_mb()

    # Checks, outside the timed phase.
    ctx.check("rho and rho_pairwise answers are finite", finite[0])
    inv = 1.0 / math.sqrt(s.k)
    for (idx, vals), g, blob, back in kept:
        ctx.check("WJLR round trip is bit-exact",
                  back.to_bytes() == blob and np.array_equal(g.values.view(np.uint64), back.values.view(np.uint64))
                  and (back.k, back.dims_d, back.matrix_seed) == (A.k, A.d, A.seed))
        for row in rng.choice(s.k, size=4, replace=False).tolist():
            with np.errstate(over="ignore"):  # uint64 wrap-around is the intended arithmetic
                ref = sum(UNITS[int(A.entry_exponents(row, int(c)))] * float(v) for c, v in zip(idx, vals)) * inv
            scale = float(np.sum(np.abs(vals))) * inv
            ctx.check("output coordinate matches single-entry recomputation",
                      abs(complex(back.values[row]) - ref) <= 1e-12 * scale)
    (ix, vx), gx = kept[0][0], kept[0][1]
    (iy, vy), gy = kept[1][0], kept[1][1]
    union = np.union1d(ix, iy)
    diff = np.zeros(union.size)
    np.add.at(diff, np.searchsorted(union, ix), vx)
    np.subtract.at(diff, np.searchsorted(union, iy), vy)
    g_diff = P.reduce_sparse(A, union, diff)
    scale = (np.sum(np.abs(vx)) + np.sum(np.abs(vy))) * inv
    ctx.check("linearity: g(x) - g(y) matches g(x - y)",
              np.max(np.abs((gx - gy).values - g_diff.values)) <= 1e-12 * scale)

    p50, tail, lat_meta = latency_stats(rec["reduce_s"], TAIL_PCT["reduce-store"])
    # Every round holds the same mix of sizes, so per-round rates compare.
    reduce_per_s = statistics.median(rec["reduce_per_s"])
    query_per_s = statistics.median(rec["query_per_s"])
    e2e = _common(setup_s, rounds, rss) | {
        "ops_per_s": reduce_per_s, "op_p50_ms": p50, "op_tail_ms": tail, "aux_per_s": query_per_s,
    }
    named = _common_named(ctx, setup_s, rounds, rss) + [
        ("reduce_per_s", reduce_per_s, "1/s"),
        ("reduce_p50_ms", p50, "ms"),
        ("reduce_tail_ms", tail, f"ms(p{TAIL_PCT['reduce-store']})"),
        ("query_per_s", query_per_s, "1/s"),
    ]
    meta = {
        "k": s.k, "d": s.d, "rounds": len(rounds), "reduces": lat_meta, "queries": sum(rec["queries"]),
        "column_reuse_share": repeat_share(supports),
        "column_reuse_share_per_round": statistics.median(round_shares),
        "wjl_version": wjl.__version__,
    }
    return Result(e2e, named, meta, layers)


# --------------------------------------------------------------------------
# stream-ingest


def stream_ingest(ctx: Context, tracer=None) -> Result:
    from wjl import sketch as S

    s = ctx.sizes
    rng = np.random.default_rng(ctx.seed)
    sketch_seed = int(rng.integers(0, 2**63))
    cfg = S.SketchConfig(r=s.r, m=s.m, seed=sketch_seed, mode="turnstile")
    pr, pm = S.plan_sketch(*s.planned)
    pcfg = S.SketchConfig(r=pr, m=pm, seed=sketch_seed ^ 1, mode="turnstile")
    setup_s, (sk, planned) = setup_seconds(ctx.root, "wjl", lambda: (S.StreamSketch(cfg), S.StreamSketch(pcfg)))
    keys_of = ZipfColumns(rng, s.d, s.zipf_a)

    rec = defaultdict(list)  # per-round measurements; the warm-up round's are dropped
    data_keys, estimates = [], []
    first = {}
    last = {}

    def stream(n_batches, positive):
        keys = keys_of.draw(n_batches * s.batch).reshape(n_batches, s.batch)
        vals = rng.standard_normal((n_batches, s.batch))
        return keys, np.abs(vals) + 0.1 if positive else vals

    def one_round(i):
        keys, vals = stream(s.data_batches, False)
        wkeys, wvals = stream(s.weight_batches, True)
        data_keys.append(keys.ravel())
        n_before = len(rec["batch_s"])
        t_round = time.perf_counter()
        for b in range(s.data_batches):
            t0 = time.perf_counter()
            sk.update_many(keys[b], vals[b])
            rec["batch_s"].append(time.perf_counter() - t0)
            if b == n_merge - 1 and "counters" not in first:
                first["counters"] = sk.counters.copy()
        sw = sk.spawn()
        for b in range(s.weight_batches):
            t0 = time.perf_counter()
            sw.update_many(wkeys[b], wvals[b])
            rec["batch_s"].append(time.perf_counter() - t0)
        batches = rec["batch_s"][n_before:]
        rec["update_per_s"].append(len(batches) * s.batch / sum(batches))
        estimates.append(S.sketch_estimate(sk, sw).value)
        t0 = time.perf_counter()
        blob = sk.to_bytes()
        back = S.StreamSketch.from_bytes(blob)
        end = time.perf_counter()
        rec["wjls_s"].append(end - t0)
        if "keys" not in first:
            first["keys"], first["vals"] = keys[:n_merge], vals[:n_merge]
        last.update(blob=blob, back=back, counters=sk.counters.copy(), items=sk.items_seen)
        ctx.attempted += s.data_batches + s.weight_batches + 3
        return end - t_round

    n_merge = max(2, min(4, s.data_batches) // 2 * 2)
    # A few updates so the planned-size sketch carries nonzero counters.
    planned.update_many(keys_of.draw(2), rng.standard_normal(2))

    def checkpoint():
        """One WJLS round trip of the planned-size sketch; returns (bytes, sketch read back)."""
        t0 = time.perf_counter()
        blob = planned.to_bytes()
        back = S.StreamSketch.from_bytes(blob)
        rec["checkpoint_s"].append(time.perf_counter() - t0)
        ctx.attempted += 2
        return blob, back

    rounds, layers, (planned_blob, planned_back) = _run_timed(ctx, one_round, tracer, rec, after=checkpoint)
    rss = peak_rss_mb()

    # Checks, outside the timed phase.
    ctx.check("sketch estimates are finite", np.all(np.isfinite(estimates)))
    k0, v0 = first["keys"][0], first["vals"][0]
    bulk, single = sk.spawn(), sk.spawn()
    bulk.update_many(k0, v0)
    for t, v in zip(k0.tolist(), v0.tolist()):
        single.update(t, v)
    tol = 1e-12 * float(np.sum(np.abs(v0)))
    ctx.check("chunking invariance: update_many matches per-update replay",
              np.max(np.abs(bulk.counters - single.counters)) <= tol)
    halves = []
    for part in np.split(np.arange(n_merge), 2):
        h = sk.spawn()
        for b in part:
            h.update_many(first["keys"][b], first["vals"][b])
        halves.append(h)
    merged = S.sketch_merge(*halves)
    tol = 1e-12 * float(np.sum(np.abs(first["vals"])))
    ctx.check("sketch_merge of two halves matches the whole stream",
              np.max(np.abs(merged.counters - first["counters"])) <= tol
              and merged.items_seen == n_merge * s.batch)
    back = last["back"]
    ctx.check("WJLS round trip is bit-exact (r x m sketch)",
              back.to_bytes() == last["blob"] and back.items_seen == last["items"]
              and np.array_equal(back.counters.view(np.uint64), last["counters"].view(np.uint64)))
    ctx.check("WJLS round trip is bit-exact (planned-size sketch)",
              planned_back.to_bytes() == planned_blob
              and planned_back.config == planned.config and planned_back.items_seen == planned.items_seen
              and np.array_equal(planned_back.counters.view(np.uint64), planned.counters.view(np.uint64)))
    # The hash functions survive the round trip: the same updates land alike.
    probe_keys, probe_vals = keys_of.draw(3), rng.standard_normal(3)
    fresh, reread = planned.spawn(), planned_back.spawn()
    fresh.update_many(probe_keys, probe_vals)
    reread.update_many(probe_keys, probe_vals)
    ctx.check("WJLS round trip keeps the hash functions (planned-size sketch)",
              np.array_equal(fresh.counters.view(np.uint64), reread.counters.view(np.uint64)))
    t, x, w = int(k0[0]), float(rng.standard_normal()), float(abs(rng.standard_normal()) + 0.1)
    sx, sw = S.new_pair(cfg)
    sx.update(t, x)
    sw.update(t, w)
    est = S.sketch_estimate(sx, sw).value
    ctx.check("a single-key stream estimates (x w)^2", math.isclose(est, (x * w) ** 2, rel_tol=1e-12))

    p50, tail, lat_meta = latency_stats(rec["batch_s"], TAIL_PCT["stream-ingest"])
    update_per_s = statistics.median(rec["update_per_s"])
    checkpoint_s = statistics.median(rec["checkpoint_s"])
    # The WJLS code runs per cell in the interpreter, and its speed drifts by
    # up to half over seconds while numpy loops do not; the fastest round
    # trip of the run reads steady from run to run where the median does not.
    wjls_per_s = 1.0 / min(rec["wjls_s"])
    e2e = _common(setup_s, rounds, rss) | {
        "ops_per_s": update_per_s, "op_p50_ms": p50, "op_tail_ms": tail, "aux_per_s": wjls_per_s,
    }
    named = _common_named(ctx, setup_s, rounds, rss) + [
        ("update_per_s", update_per_s, "1/s"),
        ("batch_p50_ms", p50, "ms"),
        ("batch_tail_ms", tail, f"ms(p{TAIL_PCT['stream-ingest']})"),
        ("checkpoint_s", checkpoint_s, "s"),
        ("wjls_round_trips_per_s", wjls_per_s, "1/s"),
    ]
    meta = {
        "sketch": [s.r, s.m], "planned_sketch": [pr, pm], "batch": s.batch, "rounds": len(rounds),
        "batches": lat_meta, "key_repeat_share": repeat_share(data_keys),
        "planned_wjls_bytes": S.StreamSketch.serialized_size(pr, pm),
    }
    return Result(e2e, named, meta, layers)


# --------------------------------------------------------------------------
# paper-desk

FIGS = ("fig1", "fig2", "fig3", "fig4")


def paper_desk(ctx: Context, tracer=None) -> Result:
    from wjl import cli, harness
    from wjl.harness import read_csv

    s = ctx.sizes
    setup_s, _ = setup_seconds(ctx.root, "wjl.cli", lambda: None)
    out = ctx.out_dir / "paper-desk"
    shutil.rmtree(out, ignore_errors=True)

    def argv(cmd, where):
        extra = s.sketch_eval_args if cmd == "sketch-eval" else s.fig_args
        return [cmd, "--scale", "desk", "--seed", str(ctx.seed), "--threads", "1", "--out", str(where), *extra]

    rec = defaultdict(list)  # per-round measurements; the warm-up round's are dropped
    fig_trials, sketches, codes, coverage = {}, {}, [], []
    original_map = harness._map

    def timed_map(cfg, fn, args_list):
        """The harness's per-trial map, each trial timed here rather than by the harness."""
        def trial(arg):
            t0 = time.perf_counter()
            out = fn(arg)
            rec["trial_s"].append(time.perf_counter() - t0)
            return out

        return original_map(cfg, trial, args_list)

    def capture(name):
        original = getattr(cli, name)

        def runner(cfg, *args, **kwargs):
            n0, t0 = len(rec["trial_s"]), time.perf_counter()
            records, path = original(cfg, *args, **kwargs)
            runner_s = time.perf_counter() - t0
            trials = rec["trial_s"][n0:]
            coverage.append((name, len(trials), len(records), sum(trials), runner_s))
            fig_trials[name] = len(records)
            return records, path

        return runner

    def one_round(i):
        total = 0.0
        for cmd in (*FIGS, "sketch-eval"):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv(cmd, out / "cycle"))
                rec[cmd].append(time.perf_counter() - t0)
            total += rec[cmd][-1]
            codes.append((cmd, code))
            ctx.attempted += 1
        return total

    runners = {f"run_{f}": capture(f"run_{f}") for f in FIGS}
    saved = {name: getattr(cli, name) for name in runners}
    try:
        for name, fn in runners.items():
            setattr(cli, name, fn)
        harness._map = timed_map
        rounds, layers, _ = _run_timed(ctx, one_round, tracer, rec)
    finally:
        harness._map = original_map
        for name, fn in saved.items():
            setattr(cli, name, fn)
    rss = peak_rss_mb()

    # Checks, outside the timed phase.
    for cmd, code in codes:
        ctx.check(f"wjl {cmd} exits with code 0", code == 0)
    for name, timed, records, trials_s, runner_s in coverage:
        ctx.check(f"{name}: every trial is timed by the benchmark, within the runner's time",
                  timed == records and trials_s <= runner_s)
    for cmd in FIGS:
        path = out / "cycle" / f"{cmd}.csv"
        if not ctx.check(f"{cmd}.csv written", path.exists()):
            continue
        meta, rows = read_csv(path.read_text())
        arms = {"fig1": len(meta["k_list"]), "fig2": len(meta["k_list"]), "fig3": 2, "fig4": 3}[cmd]
        ctx.check(f"{cmd}.csv has trials x arms rows", len(rows) == meta["trials"] * arms)
        ctx.check(f"{cmd}.csv estimates are non-empty and finite",
                  all(r["estimate"] not in ("", "nan") and math.isfinite(float(r["estimate"])) for r in rows))
    path = out / "cycle" / "sketch_eval.csv"
    if ctx.check("sketch_eval.csv written", path.exists()):
        meta, rows = read_csv(path.read_text())
        ctx.check("sketch_eval.csv has the planned and undersized arms",
                  [r["arm"] for r in rows] == ["planned", "undersized"])
        ctx.check("sketch_eval.csv success rates are finite",
                  all(r["success_rate"] not in ("", "nan") and math.isfinite(float(r["success_rate"])) for r in rows))
        planned = next((r for r in rows if r["arm"] == "planned"), None)
        ctx.check("planned sketch-eval arm has success_rate >= 1 - delta",
                  planned is not None and float(planned["success_rate"]) >= 1 - float(planned["delta"]))
        for r in rows:
            sketches[r["arm"]] = int(r["n_seeds"])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv("fig1", out / "repeat"))
        ctx.check("repeated fig1 exits with code 0", code == 0)
        ctx.check("repeated fig1 gives byte-identical CSV and SVG",
                  all((out / "repeat" / f).read_bytes() == (out / "cycle" / f).read_bytes()
                      for f in ("fig1.csv", "fig1.svg")))
        ctx.check("wjl verify passes", cli.main(["verify", "--seed", str(ctx.seed)]) == 0)
    shutil.rmtree(out, ignore_errors=True)

    pct = TAIL_PCT["paper-desk"]
    p50, tail, lat_meta = latency_stats(rec["trial_s"], pct)
    # Per-command medians make the rates independent of how many cycles ran.
    fig_s = sum(statistics.median(rec[c]) for c in FIGS)
    fig_trials_per_s = sum(fig_trials.values()) / fig_s
    sketch_trials_per_s = sum(sketches.values()) / statistics.median(rec["sketch-eval"])
    e2e = _common(setup_s, rounds, rss) | {
        "ops_per_s": fig_trials_per_s, "op_p50_ms": p50, "op_tail_ms": tail, "aux_per_s": sketch_trials_per_s,
    }
    named = _common_named(ctx, setup_s, rounds, rss) + [
        ("fig_trials_per_s", fig_trials_per_s, "1/s"),
        ("sketch_trials_per_s", sketch_trials_per_s, "1/s"),
    ]
    meta = {
        "cycles": len(rounds), "fig_trials_per_cycle": fig_trials, "sketches_per_cycle": sketches,
        "fig_trial_latency": lat_meta,
        "command_median_s": {c: statistics.median(rec[c]) for c in (*FIGS, "sketch-eval")},
        "cli_args": {"fig": list(s.fig_args), "sketch-eval": list(s.sketch_eval_args)},
    }
    return Result(e2e, named, meta, layers)


# --------------------------------------------------------------------------


def _run_timed(ctx: Context, one_round, tracer, rec: dict, after=None):
    """A warm-up round, whose measurements in `rec` are dropped, then the
    timed phase: rounds, then `after()` if given.

    Returns (round durations, per-layer metrics, after's result); the
    per-layer metrics are empty when untraced.  With a tracer,
    the first half of the budget runs untraced and the second half traced;
    the per-layer metrics come from the traced half, and the tracing overhead
    is the difference of the two halves' median rounds.
    """
    attempt_round(ctx, one_round, -1)
    rec.clear()
    if tracer is None:
        rounds = timed_rounds(ctx, one_round, ctx.seconds)
        return rounds, {}, after() if after else None
    from spans import layer_metrics

    plain = timed_rounds(ctx, one_round, ctx.seconds / 2)
    with tracer.installed():
        traced = timed_rounds(ctx, one_round, ctx.seconds / 2)
        timed_s, extra = sum(traced), None
        if after:
            t1 = time.perf_counter()
            extra = after()
            timed_s += time.perf_counter() - t1
    layers = layer_metrics(tracer)
    accounted = tracer.top_level_s()
    layers |= {
        "trace.timed_s": timed_s,
        "trace.accounted_s": accounted,
        "trace.remainder_s": timed_s - accounted,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    return plain + traced, layers, extra


def _common(setup_s, rounds, rss) -> dict:
    return {"setup_s": setup_s, "wall_s": statistics.median(rounds), "peak_rss_mb": rss}


def _common_named(ctx, setup_s, rounds, rss) -> list:
    return [
        ("setup_s", setup_s, "s"),
        ("wall_s", statistics.median(rounds), "s"),
        ("peak_rss_mb", rss, "MB"),
        ("failed_ratio", ctx.failed / max(ctx.attempted, 1), f"ratio(of {ctx.attempted})"),
        ("ops_attempted", ctx.attempted, "count"),
    ]


WORKLOADS = {"reduce-store": reduce_store, "stream-ingest": stream_ingest, "paper-desk": paper_desk}
