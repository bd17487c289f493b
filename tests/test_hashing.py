import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wjl import _mix
from wjl.hashing import (
    MERSENNE_P,
    coefficient_words,
    coefficients_for_seeds,
    hash_eval_exponents,
    key_powers,
    limb_exponents,
    mulmod61,
)
from wjl.oracle import HashPolynomial, hash_eval, hash_new
from wjl.units import UNIT_VALUES


def test_hash_new_deterministic():
    assert hash_new(42) == hash_new(42)
    assert hash_new(42) != hash_new(43)


def test_no_collisions_over_many_seeds():
    coeffs = coefficients_for_seeds(np.arange(10_000, dtype=np.uint64))
    assert len({tuple(row) for row in coeffs}) == 10_000


def test_coefficient_mean_near_half_p():
    coeffs = coefficients_for_seeds(np.arange(100_000, dtype=np.uint64))
    mean = coeffs.astype(np.float64).mean()
    assert abs(mean - MERSENNE_P / 2) < 0.01 * MERSENNE_P


def test_constant_polynomial():
    h = HashPolynomial((6, 0, 0, 0, 0, 0, 0, 0))
    for t in (0, 1, 17, 123456):
        assert hash_eval(h, t) == 2  # -1


def test_identity_polynomial_low_bits():
    h = HashPolynomial((0, 1, 0, 0, 0, 0, 0, 0))
    assert [int(hash_eval(h, t)) for t in range(4)] == [0, 1, 2, 3]


def test_eval_rejects_out_of_field():
    h = hash_new(0)
    with pytest.raises(ValueError):
        hash_eval(h, MERSENNE_P)
    with pytest.raises(ValueError):
        hash_eval_exponents(np.array(h.coefficients, dtype=np.uint64), MERSENNE_P)


def test_unit_frequencies_and_moments():
    h = hash_new(2024)
    e = hash_eval_exponents(np.array(h.coefficients, dtype=np.uint64), np.arange(10**6, dtype=np.uint64))
    freqs = np.bincount(e.astype(int), minlength=4) / 1e6
    assert np.all(freqs >= 0.2485) and np.all(freqs <= 0.2515)
    u = UNIT_VALUES[e]
    assert abs(u.mean()) < 0.005
    assert abs((u * u).mean()) < 0.005
    assert abs((u * u * u).mean()) < 0.005
    u2 = u * u
    assert np.all(u2 * u2 == 1.0)


def test_mulmod_against_python_ints():
    rng = np.random.default_rng(3)
    a = rng.integers(0, MERSENNE_P, 10_000, dtype=np.uint64)
    b = rng.integers(0, MERSENNE_P, 10_000, dtype=np.uint64)
    got = mulmod61(a, b)
    for i in range(0, 10_000, 997):
        assert int(got[i]) == (int(a[i]) * int(b[i])) % MERSENNE_P


def test_horner_matches_wide_integer_reference():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = hash_new(int(rng.integers(0, 2**63)))
        ts = rng.integers(0, MERSENNE_P, 100, dtype=np.uint64)
        vec = hash_eval_exponents(np.array(h.coefficients, dtype=np.uint64), ts)
        for t, e in zip(ts, vec):
            acc = 0
            for c in reversed(h.coefficients):
                acc = (acc * int(t) + c) % MERSENNE_P
            assert acc & 3 == int(e)


def test_coefficients_are_the_words_mod_p():
    seeds = np.array([[0, 1], [2**64 - 1, 12345]], dtype=np.uint64)
    words = coefficient_words(seeds)
    coeffs = coefficients_for_seeds(seeds)
    assert words.shape == coeffs.shape == (2, 2, 8)
    assert [int(w) % MERSENNE_P for w in words.ravel()] == coeffs.ravel().tolist()


@pytest.mark.parametrize("shape", [(1,), (257,), (3, 5, 7)])
def test_finalize_array_finalizes_its_argument_in_place(shape):
    rng = np.random.default_rng(shape[-1])
    z = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    z.flat[0] = 2**64 - 1
    words = z.ravel().tolist()
    out = _mix.finalize_array(z)
    assert out is z
    assert z.ravel().tolist() == [_mix.finalize(w) for w in words]


@pytest.mark.parametrize("z", [np.uint64(2**64 - 1), np.array(2**64 - 1, dtype=np.uint64), 12345])
def test_finalize_array_of_a_scalar_is_a_uint64_without_a_warning(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _mix.finalize_array(z)
    assert type(out) is np.uint64
    assert int(out) == _mix.finalize(int(z))


_FIELD = st.one_of(st.sampled_from([0, 1, MERSENNE_P - 1]), st.integers(0, MERSENNE_P - 1))
_KEYS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, MERSENNE_P - 1]), st.integers(0, MERSENNE_P - 1))


@settings(max_examples=80, deadline=None)
@given(
    coefficients=st.lists(st.lists(_FIELD, min_size=8, max_size=8), min_size=1, max_size=4),
    words=st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8),
    keys=st.lists(_KEYS, min_size=1, max_size=12),
)
def test_product_kernel_matches_scalar_horner(coefficients, words, keys):
    # The float64 product against Python-integer Horner, for coefficients in
    # [0, p) and for raw 64-bit words, whose residues are the coefficients.
    t = np.array(keys, dtype=np.uint64)
    got = hash_eval_exponents(np.array(coefficients, dtype=np.uint64)[:, None, :], t)
    for row, polynomial in zip(got, coefficients):
        assert row.tolist() == [hash_eval(HashPolynomial(tuple(polynomial)), k) for k in keys]
    reduced = HashPolynomial(tuple(w % MERSENNE_P for w in words))
    got = limb_exponents(np.array([words], dtype=np.uint64), key_powers(t))
    assert got[0].tolist() == [hash_eval(reduced, k) for k in keys]


_WORDS = st.one_of(st.sampled_from([0, 1, MERSENNE_P - 1, MERSENNE_P, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 40),
    u=st.integers(1, 30),
    budget=st.one_of(st.sampled_from([1, 2]), st.integers(1, 2_000)),
    data=st.data(),
)
def test_limb_exponents_match_python_integers_for_any_tile(c, u, budget, data):
    # Budgets below c give tiles of one key; the table is the same in all.
    words = data.draw(st.lists(_WORDS, min_size=8 * c, max_size=8 * c))
    keys = data.draw(st.lists(_KEYS, min_size=u, max_size=u))
    coefficients = np.array(words, dtype=np.uint64).reshape(c, 8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_mix, "BLOCK_ELEMS", budget)
        got = limb_exponents(coefficients, key_powers(np.array(keys, dtype=np.uint64)))
    assert got.dtype == np.uint8 and got.shape == (c, u) and got.flags.c_contiguous
    want = [[sum(w * t**j for j, w in enumerate(row)) % MERSENNE_P & 3 for t in keys]
            for row in coefficients.tolist()]
    assert got.tolist() == want


def test_joint_distribution_eight_points_small_field():
    """Sampled independence check in GF(17): evaluation at 8 distinct points is
    a bijection on coefficient tuples, so the joint low-bit distribution is the
    product of the (slightly non-uniform, since 17 % 4 != 0) marginals."""
    p = 17
    n = 10**6
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, p, (n, 8))
    points = np.arange(1, 9)
    cells = np.zeros(n, dtype=np.int64)
    marg = np.array([5, 4, 4, 4]) / p  # low bits of 0..16
    for t in points:
        vals = np.zeros(n, dtype=np.int64)
        for c in coeffs.T[::-1]:
            vals = (vals * t + c) % p
        cells = cells * 4 + (vals & 3)
    idx = np.arange(4**8)
    expected = np.ones(4**8)
    for digit in range(8):
        expected *= marg[(idx >> (2 * digit)) & 3]
    counts = np.bincount(cells, minlength=4**8)
    res = stats.chisquare(counts, expected * n)
    assert res.pvalue > 1e-3

