"""Linear map into a low-dimensional complex space and the norm estimators.

A projection matrix has i.i.d. uniform entries over {1, i, -1, -i}.  Entries
are never materialized globally: each entry's exponent is a counter-based
deterministic function of (seed, row, column), so rows can be generated
independently, huge matrices need no storage, and sparse inputs touch only
the matching columns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _mix
from ._mix import COL_MULT, GOLDEN, ROW_MULT, U64_MASK, finalize_array
from .units import UNIT_VALUES

REDUCED_MAGIC = b"WJLR"
REDUCED_VERSION = 1

#: Default universal constant for the reduced-dimension planner; matches the
#: constant appearing in the tail-bound analysis.
DEFAULT_PLAN_CONSTANT = 576.0


class ProvenanceError(ValueError):
    """Raised when reduced vectors from different matrices are combined."""


@dataclass(frozen=True)
class ProjectionMatrix:
    """A k x d random matrix over the fourth roots of unity, defined by seed."""

    k: int
    d: int
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.k >= 1 << 32 or self.d >= 1 << 32:
            raise ValueError("matrix dimensions must be below 2^32 to fit the WJLR header")
        if not 0 <= self.seed <= U64_MASK:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def entry_exponents(self, rows, cols) -> np.ndarray:
        """Unit exponents of the entries at the given (broadcast) positions."""
        rows = np.asarray(rows, dtype=np.uint64)
        cols = np.asarray(cols, dtype=np.uint64)
        base = np.uint64((self.seed * GOLDEN) & U64_MASK)
        # Wraps around mod 2^64 by design.  Ufunc calls rather than operators:
        # numpy's scalar operators, which 0-d inputs reach, warn on overflow.
        z = np.add(base, np.multiply(rows, np.uint64(ROW_MULT)))
        z = np.add(z, np.multiply(cols, np.uint64(COL_MULT)))
        e = finalize_array(z)
        e &= np.uint64(3)
        return e.astype(np.uint8)

    def toarray(self) -> np.ndarray:
        """Materialize the full matrix as complex128; small matrices only."""
        e = self.entry_exponents(
            np.arange(self.k, dtype=np.uint64)[:, None],
            np.arange(self.d, dtype=np.uint64)[None, :],
        )
        return UNIT_VALUES[e]


@dataclass
class ReducedVector:
    """The compressed representation A x / sqrt(k), tagged with provenance."""

    k: int
    values: np.ndarray
    matrix_seed: int
    dims_d: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.k,):
            raise ValueError("values length must equal k")

    def _check_same_matrix(self, other: "ReducedVector"):
        if (self.k, self.matrix_seed, self.dims_d) != (other.k, other.matrix_seed, other.dims_d):
            raise ProvenanceError(
                "reduced vectors come from different projection matrices"
            )

    def __sub__(self, other: "ReducedVector") -> "ReducedVector":
        self._check_same_matrix(other)
        return ReducedVector(self.k, self.values - other.values, self.matrix_seed, self.dims_d)

    def __add__(self, other: "ReducedVector") -> "ReducedVector":
        self._check_same_matrix(other)
        return ReducedVector(self.k, self.values + other.values, self.matrix_seed, self.dims_d)

    def to_bytes(self) -> bytes:
        header = REDUCED_MAGIC + struct.pack(
            "<HIIQ", REDUCED_VERSION, self.k, self.dims_d, self.matrix_seed
        )
        return header + self.values.astype("<c16", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReducedVector":
        if data[:4] != REDUCED_MAGIC:
            raise ValueError("bad reduced vector magic")
        if len(data) < 22:
            raise ValueError(f"truncated WJLR file: expected 22 bytes, got {len(data)}")
        version, k, d, seed = struct.unpack("<HIIQ", data[4:22])
        if version != REDUCED_VERSION:
            raise ValueError(f"unsupported reduced vector version {version}")
        size = 22 + 16 * k
        if len(data) < size:
            raise ValueError(f"truncated WJLR file: expected {size} bytes, got {len(data)}")
        if len(data) > size:
            raise ValueError(f"WJLR file has trailing bytes: expected {size} bytes, got {len(data)}")
        return cls(k, np.frombuffer(data, dtype="<c16", offset=22).astype(np.complex128), seed, d)

    def to_csv(self) -> str:
        lines = ["index,re,im"]
        for i, z in enumerate(self.values):
            lines.append(f"{i},{float(z.real)!r},{float(z.imag)!r}")
        return "\n".join(lines) + "\n"


def _project(A: ProjectionMatrix, cols: np.ndarray, values: np.ndarray) -> ReducedVector:
    """g = A[:, cols] @ values / sqrt(k), over blocks of about BLOCK_ELEMS entries.

    Each block is whole rows, so every output coordinate comes from one
    matrix-vector product over all of cols, exactly as without blocking.  A
    block holds at least two rows: numpy sends a one-row product down its dot
    path, which rounds differently from the matrix-vector path, so a trailing
    one-row block joins the block before it.
    """
    rows = max(2, _mix.BLOCK_ELEMS // cols.size)
    bounds = list(range(0, A.k, rows)) + [A.k]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty(A.k, dtype=np.complex128)
    cols = cols[None, :]
    for start, stop in zip(bounds, bounds[1:]):
        e = A.entry_exponents(np.arange(start, stop, dtype=np.uint64)[:, None], cols)
        out[start:stop] = np.take(UNIT_VALUES, e) @ values
    return ReducedVector(A.k, out * (1.0 / math.sqrt(A.k)), A.seed, A.d)


def reduce(A: ProjectionMatrix, x: np.ndarray) -> ReducedVector:
    """Apply the linear map g(x) = A x / sqrt(k) to a dense vector.

    Bit-identical to reduce_sparse(A, arange(d), x).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.d,):
        raise ValueError(f"expected vector of length {A.d}, got {x.shape}")
    return _project(A, np.arange(A.d, dtype=np.uint64), x)


def reduce_sparse(A: ProjectionMatrix, indices: np.ndarray, values: np.ndarray) -> ReducedVector:
    """Reduce a sparse vector given as parallel (index, value) arrays."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.shape != values.shape or indices.ndim != 1:
        raise ValueError("indices and values must be parallel 1-d arrays")
    if indices.size and (indices.min() < 0 or indices.max() >= A.d):
        raise ValueError("sparse index out of range")
    if indices.size == 0:
        return ReducedVector(A.k, np.zeros(A.k, dtype=np.complex128), A.seed, A.d)
    return _project(A, indices.astype(np.uint64), values)


def rho(gx: ReducedVector, gw: ReducedVector) -> float:
    """Weighted squared-norm estimate Re[k * sum_i (g(x)_i g(w)_i)^2].

    Not a norm: the returned value can be negative.
    """
    gx._check_same_matrix(gw)
    terms = (gx.values * gw.values) ** 2
    return float(gx.k * np.sum(terms).real)


def rho_pairwise(gx: ReducedVector, gy: ReducedVector, gw: ReducedVector) -> float:
    """Estimate of the squared weighted distance between x and y."""
    return rho(gx - gy, gw)


@dataclass(frozen=True)
class PlanParams:
    epsilon: float
    delta: float
    delta_threshold: float
    c: float = DEFAULT_PLAN_CONSTANT

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.delta_threshold <= 0 or self.c <= 0:
            raise ValueError("distortion threshold and constant must be positive")


def required_k(p: PlanParams) -> int:
    """Reduced dimension sufficient for an (epsilon, delta) guarantee."""
    return math.ceil(p.c * p.delta_threshold**4 * math.log(1.0 / p.delta) / p.epsilon**2)


def hoeffding_k(x: np.ndarray, w: np.ndarray, epsilon: float, delta: float) -> int:
    """Cruder 1-norm-based planner, exposed for comparison with required_k."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    xw = math.sqrt(float(np.sum((w * x) ** 2)))
    if xw == 0.0:
        raise ValueError("weighted norm of x is zero")
    ratio = float(np.sum(np.abs(x)) * np.sum(np.abs(w))) / xw
    return math.ceil(ratio**4 * math.log(2.0 / delta) / epsilon**2)
