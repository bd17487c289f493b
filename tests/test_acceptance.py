"""Acceptance suite: one test per numbered criterion, each printing a
single pass/fail line (bypassing pytest capture) before asserting.
"""

import sys

import numpy as np

from wjl.cli import main as cli_main
from wjl.generators import SparseSpec, gen_pair
from wjl.harness import ExperimentConfig, run_fig1, run_fig3, run_fig4, sketch_success_rate
from wjl.hashing import coefficients_for_seeds, hash_eval_exponents
from wjl.oracle import (
    WeightedPair,
    distortion,
    exact_expectation,
    weighted_sq_norm,
)
from wjl.projection import ProjectionMatrix, reduce, reduce_sparse, rho, rho_pairwise
from wjl.sketch import cell_estimates, plan_sketch
from wjl.units import UNIT_VALUES


#: Lines collected here are echoed by the pytest_terminal_summary hook in
#: conftest.py, so they survive output capture.
REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_c01_d1_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x1 = float(rng.standard_normal())
        w1 = float(np.abs(rng.standard_normal()) + 0.05)
        k = int(rng.integers(1, 129))
        seed = int(rng.integers(0, 2**63))
        A = ProjectionMatrix(k=k, d=1, seed=seed)
        est = rho(reduce_sparse(A, [0], [x1]), reduce_sparse(A, [0], [w1]))
        truth = (x1 * w1) ** 2
        worst = max(worst, abs(est - truth) / truth)
    _report(1, "d=1 exactness", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_c02_oracle_unbiasedness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in range(1, 7):
        for _ in range(100):
            x = rng.standard_normal(d)
            w = np.abs(rng.standard_normal(d))
            truth = weighted_sq_norm(WeightedPair(x, w))
            err = abs(exact_expectation(x, w) - truth) / max(truth, 1e-300)
            worst = max(worst, err)
    _report(2, "oracle unbiasedness d=1..6", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_c03_monte_carlo_unbiasedness():
    pair = gen_pair(SparseSpec(d=1000, l_x=50, l_w=50, l_overlap=40, seed=103))
    truth = weighted_sq_norm(pair)
    ix, vx = np.flatnonzero(pair.x), pair.x[np.flatnonzero(pair.x)]
    iw, vw = np.flatnonzero(pair.w), pair.w[np.flatnonzero(pair.w)]
    n = 20_000
    ests = np.empty(n)
    for s in range(n):
        A = ProjectionMatrix(k=64, d=1000, seed=s)
        ests[s] = rho(reduce_sparse(A, ix, vx), reduce_sparse(A, iw, vw))
    z = abs(ests.mean() - truth) / (ests.std(ddof=1) / np.sqrt(n))
    _report(3, "Monte-Carlo unbiasedness d=1000 k=64 N=20000", z <= 4.0, f"|z| = {z:.2f}")


def test_c04_concentration_scaling(tmp_path):
    cfg = ExperimentConfig.preset("desk", "fig1", trials=250, out_dir=tmp_path, master_seed=104)
    records, _ = run_fig1(cfg)
    by_k = {k: np.array([r.estimate for r in records if r.k == k]) for k in cfg.k_list}
    truth = records[0].true_value
    ratio = by_k[10_000].std(ddof=1) / by_k[100].std(ddof=1)
    means_ok = all(
        abs(v.mean() - truth) <= 4 * v.std(ddof=1) / np.sqrt(len(v)) for v in by_k.values()
    )
    ok = 1 / 20 <= ratio <= 1 / 5 and means_ok
    _report(4, "concentration scaling (fig1 desk)", ok, f"std ratio {ratio:.4f}, means ok {means_ok}")


def test_c05_distortion_dependence(tmp_path):
    cfg = ExperimentConfig.preset("desk", "fig3", trials=250, out_dir=tmp_path, master_seed=105)
    records, _ = run_fig3(cfg)
    stats = {}
    for arm in ("overlap2", "overlap10"):
        arm_recs = [r for r in records if r.arm == arm]
        ests = np.array([r.estimate for r in arm_recs])
        stats[arm] = (ests.std(ddof=1), ests.std(ddof=1) / arm_recs[0].true_value)
    abs2, rel2 = stats["overlap2"]
    abs10, rel10 = stats["overlap10"]
    factor = max(abs2, abs10) / min(abs2, abs10)
    ok = factor <= 2.0 and rel2 > rel10
    _report(
        5,
        "distortion dependence (fig3 desk)",
        ok,
        f"abs std factor {factor:.2f}, rel std {rel2:.3f} vs {rel10:.3f}",
    )


def test_c06_density_dependence(tmp_path):
    cfg = ExperimentConfig.preset("desk", "fig4", trials=250, out_dir=tmp_path, master_seed=106)
    records, _ = run_fig4(cfg)
    stds = []
    for arm in ("l10", "l30", "l100"):
        ests = np.array([r.estimate for r in records if r.arm == arm])
        stds.append(ests.std(ddof=1))
    ok = stds[0] < stds[1] < stds[2]
    _report(6, "density dependence (fig4 desk)", ok, "stds " + ", ".join(f"{s:.3f}" for s in stds))


def test_c07_pairwise_corollary():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        d, k = 40, 32
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        w = np.abs(rng.standard_normal(d))
        A = ProjectionMatrix(k=k, d=d, seed=int(rng.integers(0, 2**63)))
        gx, gy, gw = reduce(A, x), reduce(A, y), reduce(A, w)
        a = rho_pairwise(gx, gy, gw)
        b = rho(reduce(A, x - y), gw)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    lin_ok = worst <= 1e-12

    d, k, n = 40, 16, 5000
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    w = np.abs(rng.standard_normal(d))
    truth = weighted_sq_norm(WeightedPair(x - y, w))
    ests = np.empty(n)
    for s in range(n):
        A = ProjectionMatrix(k=k, d=d, seed=s)
        ests[s] = rho_pairwise(reduce(A, x), reduce(A, y), reduce(A, w))
    z = abs(ests.mean() - truth) / (ests.std(ddof=1) / np.sqrt(n))
    _report(
        7,
        "pairwise corollary",
        lin_ok and z <= 4.0,
        f"worst linearity err {worst:.2e}, MC |z| = {z:.2f}",
    )


def test_c08_sketch_unbiasedness():
    rng = np.random.default_rng(108)
    worst = 0.0
    for i in range(100):
        d = 1 + i % 6
        x = rng.standard_normal(d)
        w = np.abs(rng.standard_normal(d))
        truth = weighted_sq_norm(WeightedPair(x, w))
        err = abs(exact_expectation(x, w) - truth) / max(truth, 1e-300)
        worst = max(worst, err)
    exact_ok = worst <= 1e-9

    d, n = 100, 50_000
    x = rng.standard_normal(d)
    w = np.abs(rng.standard_normal(d))
    truth = weighted_sq_norm(WeightedPair(x, w))
    ests = cell_estimates(x, w, np.arange(n, dtype=np.uint64))
    z = abs(ests.mean() - truth) / (ests.std(ddof=1) / np.sqrt(n))
    _report(
        8,
        "sketch unbiasedness",
        exact_ok and z <= 4.0,
        f"worst exact rel err {worst:.2e}, MC |z| = {z:.2f}",
    )


def test_c09_sketch_variance_bound():
    rng = np.random.default_rng(109)
    d, n = 50, 20_000
    worst = 0.0
    for p in range(20):
        x = rng.standard_normal(d)
        w = np.abs(rng.standard_normal(d))
        seeds = np.arange(p * n, (p + 1) * n, dtype=np.uint64)
        var = cell_estimates(x, w, seeds).var(ddof=1)
        bound = 34.0 * np.sum(x**2) ** 2 * np.sum(w**2) ** 2
        worst = max(worst, var / bound)
    _report(9, "sketch variance bound", worst <= 1.1, f"worst var/bound {worst:.3f}")


def test_c10_sketch_eps_delta_guarantee():
    pair = gen_pair(SparseSpec(d=200, l_x=2, l_w=2, l_overlap=2, seed=110))
    dist = distortion(pair)
    assert dist <= 1.5
    r, m = plan_sketch(0.3, 0.05, dist)
    (rate,) = sketch_success_rate(pair, 0.3, r, (m,), 500, 110)
    _report(
        10,
        "(eps, delta) sketch guarantee",
        rate >= 0.95,
        f"distortion {dist:.3f}, r={r}, m={m}, success rate {rate:.3f}",
    )


def test_c11_hash_moments():
    seeds = np.arange(1000, dtype=np.uint64) + np.uint64(111)
    coeffs = coefficients_for_seeds(seeds)
    u = UNIT_VALUES[hash_eval_exponents(coeffs[:, None, :], np.arange(1000, dtype=np.uint64))]
    assert u.size == 1_000_000
    u2 = u * u
    m1, m2, m3 = abs(u.mean()), abs(u2.mean()), abs((u2 * u).mean())
    m4 = (u2 * u2).mean()
    ok = m1 < 0.005 and m2 < 0.005 and m3 < 0.005 and m4 == 1.0
    _report(
        11,
        "hash moments over 1e6 evaluations",
        ok,
        f"|m1|={m1:.4f} |m2|={m2:.4f} |m3|={m3:.4f} m4={m4.real:g}",
    )


def test_c12_cli_determinism(tmp_path):
    ok = True
    details = []
    for cmd in ("fig1", "fig2", "fig3", "fig4", "sketch-eval"):
        out1, out2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        base = [cmd, "--scale", "desk", "--seed", "42"]
        rc1 = cli_main(base + ["--out", str(out1), "--threads", "1"])
        rc2 = cli_main(base + ["--out", str(out2), "--threads", "8"])
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        same = (
            rc1 == rc2 == 0
            and files1 == files2
            and all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in files1)
        )
        ok = ok and same
        details.append(f"{cmd}:{'ok' if same else 'DIFF'}")
    _report(12, "CLI determinism incl. --threads 8", ok, " ".join(details))
