import math

import numpy as np
import pytest

from wjl.oracle import (
    WeightedPair,
    distortion,
    exact_expectation,
    weighted_sq_norm,
)


def test_weighted_sq_norm_examples():
    assert weighted_sq_norm(WeightedPair([1.0, 2.0], [3.0, 4.0])) == 73.0
    x = np.array([1.0, -2.0, 0.5])
    assert weighted_sq_norm(WeightedPair(x, np.ones(3))) == pytest.approx(np.sum(x**2))
    assert weighted_sq_norm(WeightedPair([1.0, 0.0], [0.0, 5.0])) == 0.0


def test_weighted_pair_validation():
    with pytest.raises(ValueError):
        WeightedPair([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        WeightedPair([1.0], [-1.0])


def test_distortion_examples():
    assert distortion(WeightedPair([1.0, 0.0], [1.0, 1.0])) == pytest.approx(math.sqrt(2))
    # w = x = (1, 2): ||x||^2 / sqrt(sum x^4) = 5 / sqrt(17)
    assert distortion(WeightedPair([1.0, 2.0], [1.0, 2.0])) == pytest.approx(5 / math.sqrt(17))
    with pytest.raises(ValueError):
        distortion(WeightedPair([1.0, 0.0], [0.0, 1.0]))


def test_distortion_scale_invariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    w = np.abs(rng.standard_normal(10))
    base = distortion(WeightedPair(x, w))
    for a in (0.1, 7.0):
        assert distortion(WeightedPair(a * x, w)) == pytest.approx(base, rel=1e-12)
        assert distortion(WeightedPair(x, a * w)) == pytest.approx(base, rel=1e-12)


def test_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        assert np.dot(x, y) ** 2 <= np.sum(x**2) * np.sum(y**2) * (1 + 1e-12)


def test_power_sum_bound():
    # sum |x_i|^p |y_i|^p <= ||x||_2^p ||y||_2^p
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        for p in (1, 2, 3):
            lhs = np.sum(np.abs(x) ** p * np.abs(y) ** p)
            rhs = np.linalg.norm(x) ** p * np.linalg.norm(y) ** p
            assert lhs <= rhs * (1 + 1e-12)


def test_distortion_at_least_one():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        d = int(rng.integers(2, 20))
        x = np.zeros(d)
        w = np.zeros(d)
        nx = int(rng.integers(1, d + 1))
        x[rng.choice(d, nx, replace=False)] = rng.standard_normal(nx)
        w[rng.choice(d, nx, replace=False)] = np.abs(rng.standard_normal(nx))
        pair = WeightedPair(x, w)
        if weighted_sq_norm(pair) == 0:
            continue
        assert distortion(pair) >= 1.0 - 1e-12


def test_exact_rho_expectation_examples():
    assert exact_expectation([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    assert exact_expectation([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]) == pytest.approx(4.0, abs=1e-9)
    assert exact_expectation([1.0], [3.0]) == pytest.approx(9.0, abs=1e-12)


def test_exact_rho_expectation_matches_norm_randomized():
    rng = np.random.default_rng(5)
    for d in range(1, 7):
        for _ in range(100):
            x = rng.standard_normal(d)
            w = np.abs(rng.standard_normal(d))
            truth = weighted_sq_norm(WeightedPair(x, w))
            assert exact_expectation(x, w) == pytest.approx(truth, rel=1e-9, abs=1e-9)


def test_exact_sketch_expectation_examples():
    assert exact_expectation([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    assert exact_expectation([2.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0, abs=1e-9)
    assert exact_expectation([1.0], [1.0]) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        exact_expectation(np.ones(9), np.ones(9))
