"""Deterministic 64-bit mixing used for seeding and counter-based generation.

All array functions operate on uint64 numpy arrays and rely on wrap-around
(mod 2^64) arithmetic, which numpy performs silently for arrays.
"""

from __future__ import annotations

import numpy as np

U64_MASK = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
ROW_MULT = 0xC2B2AE3D27D4EB4F
COL_MULT = 0x165667B19E3779F9

#: uint64 elements per block of the projection and hashing kernels.  Each
#: block's temporaries (a few arrays of this size) stay in the CPU cache
#: instead of streaming whole k x nnz or r x m x n arrays through memory.
#: Every output element is a pure function of its seed and indices, so the
#: block size changes no result.
BLOCK_ELEMS = 1 << 15

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def finalize_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place; returns z.

    Every caller passes a temporary it has just built, so the finalizer
    needs one scratch array of z's size, not two.  An argument of another
    dtype is converted to a new uint64 array first, which is returned.
    """
    z = np.asarray(z).astype(np.uint64, copy=False)
    if z.ndim == 0:
        # numpy warns on scalar wrap-around; go through Python ints instead
        return np.uint64(finalize(int(z)))
    tmp = np.right_shift(z, np.uint64(30))
    z ^= tmp
    z *= _M1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def finalize(z: int) -> int:
    """SplitMix64 finalizer for a single Python integer."""
    z &= U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64_MASK
    return z ^ (z >> 31)


def mix2(seed: int, a: int, b: int) -> int:
    """Collision-resistant mix of a seed with two small indices."""
    return finalize(seed ^ ((a * GOLDEN) & U64_MASK) ^ ((b * ROW_MULT) & U64_MASK))
