import itertools

import numpy as np

from wjl.units import UNIT_VALUES


def test_unit_mul_examples():
    i, minus_one, minus_i = UNIT_VALUES[1], UNIT_VALUES[2], UNIT_VALUES[3]
    assert i * i == minus_one
    assert UNIT_VALUES[0] * minus_i == minus_i
    assert minus_one * minus_one == UNIT_VALUES[0]


def test_unit_mul_exhaustive():
    # Products of units are exact: the unit of the summed exponents.
    for a, b in itertools.product(range(4), repeat=2):
        assert UNIT_VALUES[a] * UNIT_VALUES[b] == UNIT_VALUES[(a + b) % 4]


def test_fourth_power_is_one():
    for u in UNIT_VALUES:
        assert u * u * u * u == 1


def test_unit_axpy_matches_complex_mul_exactly():
    # acc + u * s adds or subtracts s on one component, with no rounding from
    # the multiplications by 0 or +/-1.
    rng = np.random.default_rng(0)
    for _ in range(200):
        acc = complex(rng.standard_normal(), rng.standard_normal())
        s = float(rng.standard_normal())
        expected = [
            complex(acc.real + s, acc.imag),
            complex(acc.real, acc.imag + s),
            complex(acc.real - s, acc.imag),
            complex(acc.real, acc.imag - s),
        ]
        assert [acc + u * s for u in UNIT_VALUES] == expected


def test_unit_values_table():
    assert list(UNIT_VALUES) == [1, 1j, -1, -1j]
