import random
from fractions import Fraction

import pytest

from paper import scalar_to_pair
from semiconformal.scalars import (
    MODE_EXACT,
    MODE_FLOAT,
    CScalar,
    ModeMismatch,
    scalar_from_pair,
)


def rand_exact(rng):
    return CScalar.exact(
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
    )


def test_exact_arithmetic_is_exact():
    a = CScalar.exact(Fraction(1, 3))
    b = CScalar.exact(Fraction(1, 6))
    assert a + b == CScalar.exact(Fraction(1, 2))
    # (1+2i)(3-i) = 5+5i
    assert CScalar.exact(1, 2) * CScalar.exact(3, -1) == CScalar.exact(5, 5)


def test_exact_division_round_trips():
    rng = random.Random(2021)
    for _ in range(50):
        a, b = rand_exact(rng), rand_exact(rng)
        if b.is_zero():
            continue
        assert (a / b) * b == a


def test_float_division_does_not_square_the_divisor():
    # |o|^2 would underflow to 0 and overflow to inf for these divisors
    assert CScalar.floating(1) / CScalar.floating(1e-200) == CScalar.floating(1e200)
    assert CScalar.floating(1e200) / CScalar.floating(1e200) == CScalar.floating(1.0)
    assert CScalar.floating(1e200, 1e200) / CScalar.floating(0.0, 1e200) == CScalar.floating(1.0, -1.0)
    with pytest.raises(ZeroDivisionError):
        CScalar.floating(1.0) / CScalar.zero(MODE_FLOAT)


def test_floating_builds_from_floats_ints_and_strings():
    # the components reach the constructor as given, which refuses a Fraction
    for re, im in [(0.5, -2.0), (1, 2), ("0.5", "-2"), (True, 0), (-0.0, "inf")]:
        v = CScalar.floating(re, im)
        assert type(v.re) is float and type(v.im) is float
        assert repr((v.re, v.im)) == repr((float(re), float(im)))


def test_lowest_terms_equality_is_structural():
    a = CScalar.exact(Fraction(2, 4), Fraction(-6, 9))
    b = CScalar.exact(Fraction(1, 2), Fraction(-2, 3))
    assert a == b
    assert hash(a) == hash(b)


def test_modes_never_mix():
    e = CScalar.exact(1)
    f = CScalar.floating(1.0)
    with pytest.raises(ModeMismatch):
        e + f
    with pytest.raises(ModeMismatch):
        f * e
    with pytest.raises(ModeMismatch):
        e * 0.5
    with pytest.raises(ModeMismatch):
        f * Fraction(1, 2)
    with pytest.raises(ModeMismatch):
        CScalar(0.5, 0.0, MODE_EXACT)


def test_int_operands_work_in_both_modes():
    assert 2 * CScalar.exact(Fraction(1, 2)) == CScalar.exact(1)
    assert 2 * CScalar.floating(0.5) == CScalar.floating(1.0)
    assert CScalar.exact(3) / 2 == CScalar.exact(Fraction(3, 2))


def test_powers():
    i = CScalar.i(MODE_EXACT)
    assert i**2 == CScalar.exact(-1)
    assert i**103 == i ** (103 % 4)
    half = CScalar.exact(Fraction(1, 2))
    assert half**-2 == CScalar.exact(4)


def test_conversions():
    a = CScalar.exact(Fraction(1, 4), Fraction(-3, 2))
    f = a.to_floating()
    assert f.mode == MODE_FLOAT
    assert f.re == 0.25 and f.im == -1.5
    assert a.to_complex() == complex(0.25, -1.5)
    assert abs(CScalar.exact(3, 4)) == 5.0


def test_serialization_round_trip():
    a = CScalar.exact(Fraction(-7, 3), Fraction(2, 5))
    re_s, im_s = scalar_to_pair(a)
    assert re_s == "-7/3" and im_s == "2/5"
    assert scalar_from_pair(re_s, im_s, MODE_EXACT) == a

    b = CScalar.floating(0.1, -2.5e-17)
    pair = scalar_to_pair(b)
    assert scalar_from_pair(*pair, MODE_FLOAT) == b


def test_zero_and_bool():
    z = CScalar.zero(MODE_EXACT)
    assert z.is_zero() and not z
    assert CScalar.one(MODE_FLOAT)
    with pytest.raises(ZeroDivisionError):
        CScalar.one(MODE_EXACT) / z
