"""8-independent hash functions into the fourth roots of unity.

Each hash is a degree-7 polynomial with uniform random coefficients over the
prime field GF(p) with p = 2^61 - 1; the field element is mapped to a unit by
its two least-significant bits.  Evaluating the polynomial at any 8 distinct
points is a bijection on coefficient tuples, which gives 8-independence.

The mapping [0, p) -> {0,1,2,3} via low bits is not exactly uniform because
p % 4 == 3; the deviation is at most 4/p per value and is ignored.

Many polynomials are evaluated at many keys as one matrix product over GF(p),
computed exactly in float64 (the technique of FFLAS-FFPACK): coefficients a_j
and key powers b_j = t^j mod p are split into 21-bit limbs a = a0 + a1 2^21 +
a2 2^42, and with 2^63 == 4 and 2^84 == 2^23 (mod p) each product a b is
S0 + 2^21 S1 + 2^42 S2 (mod p) for the slabs

    S0 = a0 b0 + 4 (a1 b2 + a2 b1),  S1 = a0 b1 + a1 b0 + 4 a2 b2,
    S2 = a0 b2 + a1 b1 + a2 b0.

Summed over j = 0..7, every slab and every partial sum of one is an integer
below 2^47 for coefficients in [0, p), and below 2^49 for any 64-bit
representatives, so the float64 products are exact whatever the BLAS
summation order, FMA use or thread count; only the recombination runs in
uint64.
"""

from __future__ import annotations

import numpy as np

from . import _mix
from ._mix import GOLDEN, finalize_array

#: Mersenne prime 2^61 - 1.
MERSENNE_P = (1 << 61) - 1

_P = np.uint64(MERSENNE_P)
_MASK21 = np.uint64((1 << 21) - 1)
_MASK40 = np.uint64((1 << 40) - 1)
_MASK19 = np.uint64((1 << 19) - 1)
_S61 = np.uint64(61)


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


# The library never calls mulmod61; perfbench/spans.py traces it by name.
def mulmod61(a, b) -> np.ndarray:
    """(a * b) mod (2^61 - 1) for broadcast uint64 arrays, in Python integers."""
    a = np.asarray(a, dtype=np.uint64).astype(object)
    b = np.asarray(b, dtype=np.uint64).astype(object)
    return np.asarray(a * b % MERSENNE_P, dtype=np.uint64)


def coefficient_words(seeds: np.ndarray) -> np.ndarray:
    """The SplitMix64 words that coefficients_for_seeds reduces mod p.

    Shape seeds.shape + (8,); the result is a view of a coefficient-major
    array, in which word j over all seeds is contiguous.  Each word is its
    coefficient up to a multiple of p, which the product kernel accepts.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    c = np.arange(1, 9, dtype=np.uint64) * np.uint64(GOLDEN)
    return np.moveaxis(finalize_array(c.reshape((8,) + (1,) * seeds.ndim) + seeds), 0, -1)


def coefficients_for_seeds(seeds: np.ndarray) -> np.ndarray:
    """Coefficients (a0..a7) of one polynomial per 64-bit seed: shape seeds.shape + (8,)."""
    z = coefficient_words(seeds)
    # Reduction of a uniform 64-bit value mod p; bias is O(2^-58).
    tmp = np.empty_like(z)
    return _canonical61(_fold61(z, tmp), tmp)


def _limbs(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The 21-bit limbs of uint64 z as float64: out[v] = (z >> 21 v) & (2^21 - 1)
    # for v = 0, 1 and out[2] = z >> 42 (below 2^22).
    part = np.empty(z.shape, dtype=np.uint64)
    for v in range(3):
        np.right_shift(z, np.uint64(21 * v), out=part)
        if v < 2:
            np.bitwise_and(part, _MASK21, out=part)
        np.copyto(out[v], part.view(np.int64), casting="unsafe")
    return out


def key_powers(t) -> np.ndarray:
    """t^0 .. t^7 mod p for 1-d keys t in [0, p): uint64 (8, len(t))."""
    t = np.asarray(t, dtype=np.uint64)
    if t.size and int(t.max()) >= MERSENNE_P:
        raise ValueError("evaluation point must lie in [0, p)")
    # Python integers: a few operations per distinct key, where vectorized
    # products would cost dozens of numpy calls per batch.
    out = np.empty((8, t.size), dtype=np.uint64)
    for k0 in range(0, t.size, _mix.BLOCK_ELEMS):
        keys = t[k0 : k0 + _mix.BLOCK_ELEMS].tolist()
        powers = [[1] * len(keys), keys]
        for _ in range(6):
            powers.append([x * k % MERSENNE_P for x, k in zip(powers[-1], keys)])
        out[:, k0 : k0 + len(keys)] = powers
    return out


def limb_exponents(coefficients: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Unit exponents of c polynomials at u keys: uint8 (c, u) in {0,1,2,3}.

    coefficients has shape (c, 8) and may hold any uint64 representatives of
    the field elements (coefficient_words, say); powers is key_powers of the
    u keys.  Runs key-major over tiles of about BLOCK_ELEMS cell-keys.
    """
    c, u = coefficients.shape[0], powers.shape[1]
    cell = np.empty((3, 8, c))
    _limbs(np.moveaxis(coefficients, -1, 0), cell[::-1])  # rows a2, a1, a0 of a0..a7
    cell = cell.reshape(24, c)
    out = np.empty((u, c), dtype=np.uint8)
    step = max(1, _mix.BLOCK_ELEMS // max(1, c))
    for k0 in range(0, u, step):
        k1 = min(u, k0 + step)
        w = k1 - k0
        # Slab s multiplies (a2, a1, a0) by rows s .. s + 2 of (4 b1, 4 b2, b0,
        # b1, b2), b0, b1, b2 being the limbs of the key powers.
        rows = np.empty((5, 8, w))
        _limbs(powers[:, k0:k1], rows[2:])
        np.multiply(rows[3:], 4.0, out=rows[:2])
        keys = np.empty((24, 3, w))
        for s in range(3):
            keys[:, s] = rows[s : s + 3].reshape(24, w)
        # (3w x 24) . (24 x c): slab s is the contiguous block x[s] of (w, c).
        x = np.matmul(keys.reshape(24, 3 * w).T, cell).reshape(3, w, c).astype(np.int64)
        x0, x1, x2 = x.view(np.uint64)
        # h == S0 + 2^21 S1 + 2^42 S2 (mod p), with 2^21 S1 == (S1 mod 2^40)
        # 2^21 + (S1 >> 40) and 2^42 S2 == (S2 mod 2^19) 2^42 + (S2 >> 19).
        # Slabs stay below 2^49 for words below 2^64, so h stays below 2^63.
        h = np.bitwise_and(x1, _MASK40)
        np.left_shift(h, np.uint64(21), out=h)
        np.right_shift(x1, np.uint64(40), out=x1)
        np.add(h, x1, out=h)
        np.bitwise_and(x2, _MASK19, out=x1)
        np.left_shift(x1, np.uint64(42), out=x1)
        np.add(h, x1, out=h)
        np.right_shift(x2, np.uint64(19), out=x2)
        np.add(h, x2, out=h)
        np.add(h, x0, out=h)
        _canonical61(_fold61(h, x1), x1)
        np.bitwise_and(h, np.uint64(3), out=out[k0:k1], casting="unsafe")
    return np.ascontiguousarray(out.T)


def hash_eval_exponents(coefficients: np.ndarray, t) -> np.ndarray:
    """Unit exponents of polynomials at keys, by the exact product.

    coefficients has shape (..., 8); t is a scalar or an array broadcastable
    against the leading dimensions.  Output dtype is uint64 with values in
    {0,1,2,3}.  Every polynomial is evaluated at every distinct key, and the
    broadcast pairs are picked from that table.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    t = np.asarray(t, dtype=np.uint64)
    keys, inverse = np.unique(t, return_inverse=True)
    rows = coefficients.reshape(-1, 8)
    table = limb_exponents(rows, key_powers(keys))
    cells = np.arange(rows.shape[0]).reshape(coefficients.shape[:-1])
    return table[cells, inverse.reshape(t.shape)].astype(np.uint64)
