"""Seed-reproducible sparse test-vector generation with exact overlap control.

The input vector gets Gaussian nonzero values rescaled to a target Euclidean
norm; the weight vector gets entries set to 1.  Supports are drawn by a
seeded shuffle of the index range, partitioned into an overlap pool and
vector-exclusive pools, so the overlap size is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import WeightedPair


@dataclass(frozen=True)
class SparseSpec:
    d: int
    l_x: int
    l_w: int
    l_overlap: int
    norm_x: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.l_x < 1 or self.l_w < 1:
            raise ValueError("dimensions and nonzero counts must be positive")
        if self.l_overlap < 0:
            raise ValueError(f"overlap must not be negative, got {self.l_overlap}")
        if self.l_overlap > min(self.l_x, self.l_w):
            raise ValueError("overlap cannot exceed either nonzero count")
        if self.l_x + self.l_w - self.l_overlap > self.d:
            raise ValueError("supports do not fit in d dimensions")
        if not 0 < self.norm_x < np.inf:
            raise ValueError(f"target norm must be positive and finite, got {self.norm_x}")


def gen_pair(spec: SparseSpec) -> WeightedPair:
    """Draw one (x, w) pair deterministically from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    picked = rng.permutation(spec.d)[: spec.l_x + spec.l_w - spec.l_overlap]
    shared = picked[: spec.l_overlap]
    x_only = picked[spec.l_overlap : spec.l_x]
    w_only = picked[spec.l_x :]

    x = np.zeros(spec.d)
    support_x = np.concatenate([shared, x_only])
    vals = rng.standard_normal(spec.l_x)
    norm = np.linalg.norm(vals)
    while norm == 0.0:  # probability zero in practice
        vals = rng.standard_normal(spec.l_x)
        norm = np.linalg.norm(vals)
    x[support_x] = vals * (spec.norm_x / norm)

    w = np.zeros(spec.d)
    w[np.concatenate([shared, w_only])] = 1.0
    return WeightedPair(x, w)


def sparse_csv(v: np.ndarray) -> str:
    """Export the nonzeros of a vector as `index,value` CSV."""
    lines = ["index,value"]
    for i in np.flatnonzero(v):
        lines.append(f"{i},{float(v[i])!r}")
    return "\n".join(lines) + "\n"
