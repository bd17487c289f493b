"""Linear map into a low-dimensional complex space and the norm estimators.

A projection matrix has i.i.d. uniform entries over {1, i, -1, -i}.  Entries
are never materialized globally: each entry's exponent is a counter-based
deterministic function of (seed, row, column), so rows can be generated
independently, huge matrices need no storage, and sparse inputs touch only
the matching columns.

Generator (WJLR version 2): one SplitMix64 word
``W(c, q) = finalize(seed*GOLDEN + q*ROW_MULT + c*COL_MULT)`` holds the
exponents of the 32 rows ``32q .. 32q + 31`` of column ``c``; row ``r`` is the
2-bit field ``(W(c, r >> 5) >> 2*(r & 31)) & 3``.  The words run down a column
because every reduction needs all k rows of each column of its support.
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
REDUCED_VERSION = 2

#: Universal constant of the reduced-dimension planner, from the tail-bound
#: analysis.
PLAN_CONSTANT = 576.0

#: _RE[b, j] and _IM[b, j] are the real and imaginary parts of the unit whose
#: exponent is the 2-bit field j of byte b: a byte of a word holds 4 rows.
_FIELDS = (np.arange(256)[:, None] >> (2 * np.arange(4))) & 3
_RE = UNIT_VALUES.real[_FIELDS]
_IM = UNIT_VALUES.imag[_FIELDS]

#: A reduction sums its support in panels of this many columns.  It is part
#: of the arithmetic, not a memory budget: another value changes the last
#: bits of every support wider than either.
_PANEL_COLS = 1 << 15


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

    def _words(self, groups, cols) -> np.ndarray:
        """Generator words W(c, q) at the given (broadcast) row groups q and columns c.

        Bits 2j and 2j + 1 of W(c, q) are the exponent of the entry at row
        32q + j of column c.
        """
        base = np.uint64((self.seed * GOLDEN) & U64_MASK)
        # Wraps around mod 2^64 by design.  Ufunc calls rather than operators:
        # numpy's scalar operators, which 0-d inputs reach, warn on overflow.
        z = np.add(base, np.multiply(np.asarray(groups, dtype=np.uint64), np.uint64(ROW_MULT)))
        z = np.add(z, np.multiply(np.asarray(cols, dtype=np.uint64), np.uint64(COL_MULT)))
        return finalize_array(z)

    def entry_exponents(self, rows, cols) -> np.ndarray:
        """Unit exponents of the entries at the given (broadcast) positions."""
        rows = np.asarray(rows, dtype=np.uint64)
        w = self._words(np.right_shift(rows, np.uint64(5)), cols)
        shift = np.left_shift(np.bitwise_and(rows, np.uint64(31)), np.uint64(1))
        return np.bitwise_and(np.right_shift(w, shift), np.uint64(3)).astype(np.uint8)

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
        if self.k < 1 or self.dims_d < 1:
            raise ValueError(f"reduced vector k and d must be positive, got k={self.k}, d={self.dims_d}")
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


def _project(A: ProjectionMatrix, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values @ A[:, cols].T / sqrt(k), summed over panels of _PANEL_COLS columns.

    values is (n,) or (m, n), m vectors over the columns cols; the result is
    (k,) or (m, k).  Each panel is reduced on its own and the panels' sums are
    added in order, so no product spans more than _PANEL_COLS columns and the
    memory of a wide support stays near 8 rows x _PANEL_COLS floats.
    """
    g = _project_panel(A, cols[:_PANEL_COLS], values[..., :_PANEL_COLS])
    for c0 in range(_PANEL_COLS, cols.size, _PANEL_COLS):
        g += _project_panel(A, cols[c0:c0 + _PANEL_COLS], values[..., c0:c0 + _PANEL_COLS])
    g *= 1.0 / math.sqrt(A.k)
    return g[..., :A.k]


def _project_panel(A: ProjectionMatrix, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values @ A[:8 * ceil(k / 8), cols].T, over blocks of about BLOCK_ELEMS entries.

    values is (n,) or (m, n).  A block's words are viewed as bytes, 4 rows
    each; each product block's bytes are cast once to one intp index array,
    both _RE and _IM are looked up through it, and the real and imaginary
    parts are two real products of all m vectors over all of cols, so m
    vectors over one support generate, cast and look up each block once.
    Every product spans a whole number of 8 rows (rows past k are computed and
    dropped).  An (n,) or (1, n) product is a BLAS gemv, which sums an output
    row the same way at any width that is a multiple of 4 rows; an m >= 2 row
    product is a gemm, which does so at widths that are multiples of 8 but
    not of 4 alone.  Threaded OpenBLAS gives the same bits as one thread for
    widths that are multiples of 8, but not for widths of 4, 12, 20, ... rows
    over some 30,000 columns or more.  So the 8-row width is what keeps
    blocking and the BLAS thread count from changing a bit.

    Words are generated BLOCK_ELEMS at a time and the products take
    BLOCK_ELEMS entries at a time, but at least one word and two bytes per
    column.
    """
    n = cols.size
    lanes_total = 2 * -(-A.k // 8)  # 4-row bytes per column, in pairs
    groups_total = -(-lanes_total // 8)  # words per column
    lanes = max(2, _mix.BLOCK_ELEMS // (4 * n)) & ~1  # bytes per product, even
    groups = max(1, _mix.BLOCK_ELEMS // n)  # words per column generated at once
    out = np.empty((*values.shape[:-1], 4 * lanes_total), dtype=np.complex128)
    cols = cols[:, None]
    for q0 in range(0, groups_total, groups):
        q = np.arange(q0, min(q0 + groups, groups_total), dtype=np.uint64)
        # Little-endian, so that byte j of word q holds rows 32q + 4j .. 32q + 4j + 3.
        b = A._words(q, cols).astype("<u8", copy=False).view(np.uint8)
        stop = min(b.shape[1], lanes_total - 8 * q0)
        for l0 in range(0, stop, lanes):
            part = b[:, l0:min(l0 + lanes, stop)].astype(np.intp)
            rows = slice(4 * (8 * q0 + l0), 4 * (8 * q0 + l0 + part.shape[1]))
            out.real[..., rows] = values @ _RE.take(part, axis=0).reshape(n, -1)
            out.imag[..., rows] = values @ _IM.take(part, axis=0).reshape(n, -1)
    return out


def reduce(A: ProjectionMatrix, x: np.ndarray) -> ReducedVector:
    """Apply the linear map g(x) = A x / sqrt(k) to a dense vector.

    Bit-identical to reduce_sparse(A, arange(d), x).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.d,):
        raise ValueError(f"expected vector of length {A.d}, got {x.shape}")
    return ReducedVector(A.k, _project(A, np.arange(A.d, dtype=np.uint64), x), A.seed, A.d)


def reduce_sparse(
    A: ProjectionMatrix, indices: np.ndarray, values: np.ndarray
) -> ReducedVector | tuple[ReducedVector, ...]:
    """Reduce sparse vectors given as (index, value) arrays.

    values is (n,), one vector, which returns one ReducedVector; or (m, n),
    m vectors over the one support indices, which returns a tuple of m
    ReducedVectors from one product, as rho(*reduce_sparse(A, idx, [x, w]))
    uses it.  An (n,) and a (1, n) call give the same bits; each row of an
    m >= 2 call matches its own (n,) call to rounding only, since BLAS sums a
    many-row product in another order.
    """
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise ValueError(f"sparse indices must be integers, got dtype {indices.dtype}")
    indices = indices.astype(np.int64, copy=False)
    values = np.asarray(values, dtype=np.float64)
    if indices.ndim != 1:
        raise ValueError("sparse indices must be a 1-d array")
    if values.ndim not in (1, 2):
        raise ValueError(f"sparse values must be (n,) or (m, n), got shape {values.shape}")
    if values.shape[-1] != indices.size:
        raise ValueError(f"sparse values have {values.shape[-1]} columns for {indices.size} indices")
    if values.ndim == 2 and values.shape[0] == 0:
        raise ValueError("sparse values of shape (m, n) need at least one row")
    if indices.size and (indices.min() < 0 or indices.max() >= A.d):
        raise ValueError("sparse index out of range")
    if indices.size:
        g = _project(A, indices.astype(np.uint64), values)
    else:
        g = np.zeros((*values.shape[:-1], A.k), dtype=np.complex128)
    if values.ndim == 1:
        return ReducedVector(A.k, g, A.seed, A.d)
    return tuple(ReducedVector(A.k, row, A.seed, A.d) for row in g)


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


def required_k(epsilon: float, delta: float, distortion: float) -> int:
    """Reduced dimension k for an (epsilon, delta) guarantee."""
    if not 0 < epsilon <= 1 or not 0 < delta < 1:
        raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
    if distortion < 1:
        raise ValueError("distortion is at least 1")
    return math.ceil(PLAN_CONSTANT * distortion**4 * math.log(1.0 / delta) / epsilon**2)
