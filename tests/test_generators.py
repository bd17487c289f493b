import numpy as np
import pytest

from wjl.generators import SparseSpec, gen_pair, sparse_csv
from wjl.oracle import WeightedPair, distortion, weighted_sq_norm


def test_determinism():
    spec = SparseSpec(d=100, l_x=5, l_w=5, l_overlap=3, seed=9)
    a = gen_pair(spec)
    b = gen_pair(spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)


def test_full_overlap_same_support():
    pair = gen_pair(SparseSpec(d=10, l_x=3, l_w=3, l_overlap=3, seed=1))
    assert np.array_equal(np.flatnonzero(pair.x), np.flatnonzero(pair.w))


def test_disjoint_supports_zero_norm():
    pair = gen_pair(SparseSpec(d=10, l_x=3, l_w=3, l_overlap=0, seed=2))
    assert weighted_sq_norm(pair) == 0.0


def test_counts_norm_and_overlap_at_paper_scale():
    pair = gen_pair(SparseSpec(d=200_000, l_x=10, l_w=10, l_overlap=8, seed=3))
    sx = set(np.flatnonzero(pair.x))
    sw = set(np.flatnonzero(pair.w))
    assert len(sx) == 10 and len(sw) == 10
    assert len(sx & sw) == 8
    assert np.linalg.norm(pair.x) == pytest.approx(1.0, abs=1e-12)
    assert set(pair.w[list(sw)]) == {1.0}


def test_target_norm():
    pair = gen_pair(SparseSpec(d=50, l_x=7, l_w=4, l_overlap=2, norm_x=3.5, seed=4))
    assert np.linalg.norm(pair.x) == pytest.approx(3.5, abs=1e-12)


def test_infeasible_specs_rejected():
    with pytest.raises(ValueError):
        SparseSpec(d=10, l_x=8, l_w=8, l_overlap=2)  # supports do not fit
    with pytest.raises(ValueError):
        SparseSpec(d=10, l_x=3, l_w=3, l_overlap=4)
    with pytest.raises(ValueError, match="overlap must not be negative, got -1"):
        SparseSpec(d=10, l_x=5, l_w=5, l_overlap=-1)
    for norm in (float("nan"), float("inf"), -float("inf"), 0.0):
        with pytest.raises(ValueError, match="target norm must be positive and finite"):
            SparseSpec(d=10, l_x=3, l_w=3, l_overlap=1, norm_x=norm)


def test_distortion_trend_with_overlap():
    means = {}
    for overlap in (2, 10):
        vals = []
        for seed in range(50):
            pair = gen_pair(SparseSpec(d=500, l_x=10, l_w=10, l_overlap=overlap, seed=seed))
            vals.append(distortion(pair))
        means[overlap] = np.mean(vals)
    assert means[2] > means[10]


def test_sparse_csv_export():
    pair = gen_pair(SparseSpec(d=20, l_x=3, l_w=2, l_overlap=1, seed=6))
    text = sparse_csv(pair.x)
    lines = text.splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 4
    for ln in lines[1:]:
        i, v = ln.split(",")
        assert pair.x[int(i)] == float(v)
