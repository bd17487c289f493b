"""Exact reference computations used as independent oracles in tests.

The expectation oracle enumerates every assignment of units exhaustively
(4^d cases), so it is exact up to floating-point rounding and completely
independent of the seeded generation paths it is used to check.  The scalar
hash reference evaluates one polynomial with Python integers, as a check on
the vectorized product kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import MERSENNE_P, coefficients_for_seeds
from .units import UNIT_VALUES

#: Largest dimension accepted by the enumeration oracle (4^8 = 65536 cases).
MAX_ENUM_DIM = 8


@dataclass
class WeightedPair:
    """An input vector and its non-negative weight vector."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.x.shape != self.w.shape or self.x.ndim != 1:
            raise ValueError("x and w must be 1-d vectors of equal length")
        if np.any(self.w < 0):
            raise ValueError("weights must be non-negative")


def weighted_sq_norm(pair: WeightedPair) -> float:
    """Sum of w_i^2 x_i^2 (np.sum uses pairwise summation)."""
    return float(np.sum((pair.w * pair.x) ** 2))


def distortion(pair: WeightedPair) -> float:
    """||x||_2 ||w||_2 / ||x||_w; at least 1 by Cauchy-Schwarz."""
    sq = weighted_sq_norm(pair)
    if sq == 0.0:
        raise ValueError("distortion undefined: weighted norm is zero")
    return float(np.linalg.norm(pair.x) * np.linalg.norm(pair.w)) / np.sqrt(sq)


def _all_unit_rows(d: int) -> np.ndarray:
    """All 4^d unit rows as a (4^d, d) complex array."""
    if d > MAX_ENUM_DIM:
        raise ValueError(f"enumeration limited to d <= {MAX_ENUM_DIM}")
    exps = np.indices((4,) * d).reshape(d, -1).T
    return UNIT_VALUES[exps]


def exact_expectation(x: np.ndarray, w: np.ndarray) -> float:
    """Exact mean of Re[(u.x)^2 (u.w)^2] over all 4^d unit vectors u.

    This is the mean of one k = 1 rho term (u a matrix row) and of one 1x1
    sketch cell (u the cell's hash at the d stream positions) alike: the
    expression is of degree 4 in u, so its mean over 4-wise independent
    uniform units, which both estimators supply, is its mean over all u.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rows = _all_unit_rows(len(x))
    return float(np.mean((((rows @ x) * (rows @ w)) ** 2).real))


@dataclass(frozen=True)
class HashPolynomial:
    """Coefficients (a0..a7) of one degree-7 polynomial over GF(2^61 - 1)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != 8:
            raise ValueError("expected 8 coefficients")
        if any(not 0 <= c < MERSENNE_P for c in self.coefficients):
            raise ValueError("coefficients must lie in [0, p)")


def hash_new(seed: int) -> HashPolynomial:
    """The polynomial that coefficients_for_seeds derives from a 64-bit seed."""
    return HashPolynomial(tuple(int(c) for c in coefficients_for_seeds(np.array([seed], dtype=np.uint64))[0]))


def hash_eval(h: HashPolynomial, t: int) -> int:
    """Evaluate the polynomial at t by Horner's rule; returns the unit exponent."""
    if not 0 <= t < MERSENNE_P:
        raise ValueError("evaluation point must lie in [0, p)")
    acc = 0
    for c in reversed(h.coefficients):
        acc = (acc * t + c) % MERSENNE_P
    return acc & 3
