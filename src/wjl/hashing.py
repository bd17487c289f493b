"""8-independent hash functions into the fourth roots of unity.

Each hash is a degree-7 polynomial with uniform random coefficients over the
prime field GF(p) with p = 2^61 - 1; the field element is mapped to a unit by
its two least-significant bits.  Evaluating the polynomial at any 8 distinct
points is a bijection on coefficient tuples, which gives 8-independence.

The mapping [0, p) -> {0,1,2,3} via low bits is not exactly uniform because
p % 4 == 3; the deviation is at most 4/p per value and is ignored.
"""

from __future__ import annotations

import numpy as np

from ._mix import GOLDEN, finalize_array

#: Mersenne prime 2^61 - 1.
MERSENNE_P = (1 << 61) - 1

_P = np.uint64(MERSENNE_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_S29, _S32, _S61 = np.uint64(29), np.uint64(32), np.uint64(61)


def _fold61(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # Partial reduction in place, tmp being scratch of x's shape: any uint64
    # x becomes x' == x (mod p) with x' <= p + 7.  Uses 2^61 == 1 (mod p).
    np.right_shift(x, _S61, out=tmp)
    x &= _P
    x += tmp
    return x


def _canonical61(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # x <= p + 7 to its residue in [0, p), in place.
    np.subtract(x, _P, out=tmp)  # wraps around to above x when x < p
    return np.minimum(x, tmp, out=x)


def _mul61(a, b_lo, b_hi, out, lo, tmp) -> np.ndarray:
    """out = s == a * b (mod p) with s < 2^63 + 2^34, for a <= p + 7.

    b = b_hi * 2^32 + b_lo, with b_hi None when b < 2^32.  out may be a;
    lo and tmp are scratch of out's shape.
    """
    np.bitwise_and(a, _MASK32, out=lo)  # a0
    s = np.right_shift(a, _S32, out=out)  # a1 <= 2^29
    hi = None
    if b_hi is None:
        # The b-high cross terms vanish (e.g. Horner evaluation points that
        # are coordinate indices).
        s *= b_lo                     # mid = a1 * b < 2^61
        lo *= b_lo                    # < 2^64, exact in uint64
    else:
        hi = s * b_hi                 # a1 * b1 <= 2^58
        s *= b_lo
        s += np.multiply(lo, b_hi, out=tmp)  # mid = a1 * b0 + a0 * b1 < 2^62
        lo *= b_lo                    # < 2^64, exact in uint64
    # a*b = hi*2^64 + mid*2^32 + lo; 2^64 == 8, 2^61 == 1 (mod p)
    np.right_shift(s, _S29, out=tmp)
    s &= _MASK29
    s <<= _S32
    s += tmp
    s += np.right_shift(lo, _S61, out=tmp)
    lo &= _P
    s += lo
    if hi is not None:
        hi <<= np.uint64(3)
        s += hi
    return s


def _split32(b: np.ndarray):
    # (b_lo, b_hi) operands of _mul61.
    if b.size and int(b.max()) < 1 << 32:
        return b, None
    return b & _MASK32, b >> _S32


def mulmod61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b) mod (2^61 - 1) for uint64 arrays with entries < 2^61."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out, lo, tmp = (np.empty(shape, dtype=np.uint64) for _ in range(3))
    _mul61(a, *_split32(b), out, lo, tmp)
    return _canonical61(_fold61(out, tmp), tmp)


def coefficients_for_seeds(seeds: np.ndarray) -> np.ndarray:
    """Coefficients (a0..a7) of one polynomial per 64-bit seed: shape seeds.shape + (8,)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    c = np.arange(1, 9, dtype=np.uint64) * np.uint64(GOLDEN)
    z = finalize_array(seeds[..., None] + c)
    # Modular reduction of a uniform 64-bit value; bias is O(2^-58).
    return z % _P


def hash_eval_exponents(coefficients: np.ndarray, t) -> np.ndarray:
    """Vectorized Horner evaluation; returns unit exponents.

    coefficients has shape (..., 8); t is a scalar or an array broadcastable
    against the leading dimensions.  Output dtype is uint64 with values in
    {0,1,2,3}.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    t = np.asarray(t, dtype=np.uint64)
    if np.any(t >= _P):
        raise ValueError("evaluation point must lie in [0, p)")
    acc = np.empty(np.broadcast_shapes(coefficients.shape[:-1], t.shape), dtype=np.uint64)
    lo, tmp = np.empty_like(acc), np.empty_like(acc)
    # Full-shape copies of the evaluation points keep the multiplications off
    # numpy's slower broadcasting loops.
    t_lo, t_hi = (None if b is None else np.broadcast_to(b, acc.shape).copy() for b in _split32(t))
    # Horner's rule, in place.  acc stays partially reduced (<= p + 7) between
    # steps and becomes the residue in [0, p) at the end.  The first step from
    # 0 leaves the leading coefficient.
    acc[...] = coefficients[..., 7]
    _fold61(acc, tmp)
    for idx in range(6, -1, -1):
        _mul61(acc, t_lo, t_hi, acc, lo, tmp)
        acc += coefficients[..., idx]  # < 2^63 + 2^34 + 2^61, no wrap-around
        _fold61(acc, tmp)
    _canonical61(acc, tmp)
    acc &= np.uint64(3)
    return acc
