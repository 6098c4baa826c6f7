import cmath
import math
import random
from fractions import Fraction

import pytest

from paper import (
    coeff_q1,
    equal_param_phi,
    two_param_a_k0,
    two_param_boundary,
    two_param_psi1,
    two_param_psi2,
    two_param_Q,
)
from semiconformal.closed_forms import (
    BranchCut,
    HopfFamily,
    ProductFamily,
    Q0Family,
    Q1Family,
    TwoParamFamily,
    closed_q0,
    closed_q1,
    coeff_q0,
    hopf_series,
    odd_weights,
    one_param_series,
    parse_family,
    product_form_psi,
    u_factor_q0,
    u_factor_q1,
)
from semiconformal.scalars import CScalar, ModeMismatch
from semiconformal.solver import BoundaryData, OnAxis, Point3, solve


def exact(v, im=0):
    return CScalar.exact(v, im)


# -- u-profile factors -------------------------------------------------------


def test_u_factor_q0_values():
    assert u_factor_q0(0) == Fraction(-1)
    assert u_factor_q0(1) == Fraction(1, 2)
    assert u_factor_q0(2) == Fraction(1, 2)
    assert u_factor_q0(3) == Fraction(9, 8)


def test_u_factor_q1_values():
    assert u_factor_q1(0) == Fraction(-1)
    assert u_factor_q1(1) == Fraction(-1, 2)
    assert u_factor_q1(2) == Fraction(1, 4)


def test_u_factor_q0_ratio_characterization():
    # f(k+1) = 3(2k-1) f(k) / (k+2), f(1) = 1/2
    assert u_factor_q0(1) == Fraction(1, 2)
    for k in range(1, 41):
        assert u_factor_q0(k + 1) == Fraction(3 * (2 * k - 1), k + 2) * u_factor_q0(k)


# -- one-parameter coefficient tables -----------------------------------------


def test_coeff_q0_values():
    c = exact(Fraction(5, 3), Fraction(-1, 2))
    assert coeff_q0(c, 1, 0) == -(c**2) / 2
    assert coeff_q0(c, 0, 1) == c
    assert coeff_q0(c, 2, 0) == -(c**4) / 2
    assert coeff_q0(c, 0, 5).is_zero()


def test_coeff_q1_values():
    c = exact(Fraction(2, 7), Fraction(1, 3))
    assert coeff_q1(c, 1, 0) == c**2 / 2
    assert coeff_q1(c, 0, 0) == exact(1)
    assert coeff_q1(c, 2, 0) == -(c**4) / 4


def test_coefficient_tables_match_solver_deeply():
    c = exact(Fraction(1, 2), Fraction(1, 5))
    for q in (0, 1):
        psi = solve(BoundaryData(q=q, data=(exact(1), c)), 10)
        assert psi == one_param_series(q, c, 10)


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("c", [CScalar.floating(0.7, -0.4), exact(Fraction(2, 3), 1)])
def test_one_param_series_forms_each_power_once(monkeypatch, q, c):
    """The table takes one c^n per n, and each coefficient is bit for bit the
    one ``coeff_q0``/``coeff_q1`` gives on its own."""
    trunc, calls, power = 12, [], CScalar.__pow__
    monkeypatch.setattr(CScalar, "__pow__", lambda self, n: calls.append(n) or power(self, n))
    psi = one_param_series(q, c, trunc)
    assert len(calls) <= 3 * trunc + 1
    coeff = coeff_q0 if q == 0 else coeff_q1
    for k in range(trunc + 1):
        for l in range(trunc + 1 - k):
            assert _bits(psi.coeff(k, l)) == _bits(coeff(c, k, l)), (k, l)


def _bits(v: CScalar) -> tuple:
    return (v.mode, *(x.hex() if isinstance(x, float) else x for x in (v.re, v.im)))


# -- closed forms vs series ------------------------------------------------------


def test_closed_q0_removable_singularity():
    c = 1 + 0j
    for z in (0.0, 0.1, -0.2):
        limit = closed_q0(c, 0.0, z)
        assert limit == 1 + c * z
        near = closed_q0(c, 1e-12, z)
        assert abs(near - (1 + c * z)) < 1e-10


def test_closed_q0_matches_a_long_series_near_u_zero():
    # no cancellation near the removable singularity: agreement to rounding level
    from math import comb

    def oracle(c, u, z, terms=60):
        w = 1 + c * z
        t = 3 * c * c * u / (2 * w * w)
        total, power = 0j, 1 + 0j
        for k in range(1, terms):
            power *= t
            total += power * comb(2 * k - 2, k - 1) / (k * (k + 1))
        return w * (1 - (2.0 / 3.0) * total)

    for c in (1 + 0j, 0.3 - 0.8j):
        for z in (0.05, -0.2):
            assert closed_q0(c, 0.0, z) == 1 + c * z
            for e in range(-14, -2):
                u = 10.0**e
                want = oracle(c, u, z)
                assert abs(closed_q0(c, u, z) - want) <= 4e-16 * abs(want), (c, z, u)


def test_closed_q1_at_origin_is_two():
    assert closed_q1(0.7 + 0.2j, 0.0, 0.0) == 2.0 + 0j


def test_closed_q0_with_c_equal_i_is_globally_finite():
    # radicand (1+iz)^2 + 6u = 1 - z^2 + 6u + 2iz stays off the cut for u >= 0
    for u in (0.0, 0.3, 2.0, 10.0):
        for z in (-3.0, -0.5, 0.0, 0.5, 3.0):
            value = closed_q0(1j, u, z)
            assert cmath.isfinite(value)


def test_closed_q0_matches_series_inside_domain():
    c = exact(1)
    series = one_param_series(0, c, 40).to_floating()
    for u in (0.0, 0.01, 0.03):
        for z in (-0.1, 0.0, 0.1):
            gap = abs(closed_q0(1.0, u, z) - series.eval_complex(u, z))
            assert gap < 1e-10


def test_closed_q1_is_twice_the_series():
    c = exact(1)
    series = one_param_series(1, c, 40).to_floating()
    for u in (0.0, 0.02, 0.05):
        for z in (-0.1, 0.0, 0.1):
            gap = abs(closed_q1(1.0, u, z) - 2.0 * series.eval_complex(u, z))
            assert gap < 1e-10


def test_branch_cut_flag_fires_on_crossing():
    # c=1, z=0: the ratio 1-6u is a negative real number for u > 1/6
    with pytest.raises(BranchCut):
        closed_q0(1.0, 0.2, 0.0)
    with pytest.raises(BranchCut):
        closed_q1(1.0, -0.6, 0.0)
    # the branch point itself, ratio 0, stays finite: 8w/9
    assert abs(closed_q0(1.0, 1.0 / 6.0, 0.0) - 8.0 / 9.0) < 1e-15
    with pytest.raises(BranchCut):  # 1 + cz = 0: u-radius 0
        closed_q0(2.0, 0.1, -0.5)
    with pytest.raises(BranchCut):
        closed_q1(2.0, 0.1, -0.5)


def test_closed_q1_follows_the_series_branch_near_the_cut():
    # |cz| near 1: the radicand 2c^2u + w^2 crosses the cut on the way from
    # u = 0 although u is 0.8 of the u-radius |w|^2/(2|c|^2); the row series
    # sum A_k(z) u^k, A_k = -f(k) c^(2k) w^(1-2k), follows sqrt continuously
    c, z = 1.83 + 1.39j, -0.413
    w = 1 + c * z
    u = 0.8 * abs(w) ** 2 / (2 * abs(c) ** 2)
    y = c * c * u / (w * w)
    total, term = w, -w * (-0.5) * y  # k = 1: f(1) = -1/2
    for k in range(1, 400):
        total += term
        term *= -(2 * k - 1) / (k + 1) * y
    assert abs(closed_q1(c, u, z) - 2 * total) < 1e-12
    assert abs(closed_q1(c, u, z) - (0.2216 - 1.0064j)) < 1e-4


def test_exact_scalars_are_rejected_by_numeric_evaluators():
    with pytest.raises(ModeMismatch):
        closed_q0(exact(1), 0.1, 0.0)


# -- product form -----------------------------------------------------------------


def test_product_form_at_origin():
    b, c = 0.8 + 0.1j, 1.0 + 0j
    assert abs(product_form_psi(b, c, 0.0, 0.0) - b * math.e / 2) < 1e-15


def test_product_form_z_dependence_is_exponential():
    c = 0.5 + 0.3j
    for z in (0.2, -0.7):
        want = cmath.exp(c * z) * math.e / 2
        assert abs(product_form_psi(1.0, c, 0.0, z) - want) < 1e-14


def test_product_form_solves_the_q0_equation():
    # numeric oracle: finite differences pin down which equation it satisfies
    b, c, u, z = 1.0, 1.0, 0.01, 0.1
    h = 1e-5

    def psi(uu, zz):
        return product_form_psi(b, c, uu, zz)

    pu = (psi(u + h, z) - psi(u - h, z)) / (2 * h)
    pz = (psi(u, z + h) - psi(u, z - h)) / (2 * h)
    value = psi(u, z)
    res_q0 = value * pu + u * pu * pu + 0.5 * pz * pz
    res_q1 = -value * pu + u * pu * pu + 0.5 * pz * pz
    assert abs(res_q0) < 1e-8
    assert abs(res_q1) > 1e-2


def test_product_form_branch_cut():
    with pytest.raises(BranchCut):
        product_form_psi(1.0, 1.0, 0.6, 0.0)  # 1 - 2u < 0


# -- Hopf solution ------------------------------------------------------------------


def test_hopf_series_matches_solver():
    bd = BoundaryData(q=1, data=(exact(1), exact(0, -2), exact(-2)))
    assert solve(bd, 6) == hopf_series(6)


# -- two-parameter rows ----------------------------------------------------------------


def test_psi1_vanishes_on_the_diagonal():
    a = exact(Fraction(3, 4), Fraction(1, 2))
    for l in (1, 3, 7):
        assert two_param_psi1(a, a, l).is_zero()


def test_psi1_low_orders():
    a = exact(Fraction(1, 2), Fraction(1, 3))
    b = exact(Fraction(2, 5))
    assert two_param_psi1(a, b, 1) == -(a + b) * (a - b) ** 2 / 2
    assert two_param_psi1(a, b, 2) == (a - b) ** 2 * (a * a + a * b + b * b)


def test_psi1_requires_positive_l():
    with pytest.raises(ValueError):
        two_param_psi1(exact(1), exact(2), 0)


def test_psi2_at_l_zero():
    a = exact(Fraction(1, 3), Fraction(-1, 2))
    b = exact(Fraction(5, 4))
    want = -((a - b) ** 2) * (a + b) ** 2 / 2
    assert two_param_psi2(a, b, 0) == want
    assert two_param_psi2(a, a, 4).is_zero()


def test_rows_match_solver_to_l_ten():
    rng = random.Random(321)
    for _ in range(2):
        a = exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        b = exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if (a + b).is_zero():
            continue
        psi = solve(BoundaryData(q=1, data=two_param_boundary(a, b)), 12)
        for l in range(1, 11):
            assert psi.derivative_value(1, l) == two_param_psi1(a, b, l)
        for l in range(0, 11):
            assert psi.derivative_value(2, l) == two_param_psi2(a, b, l)


def test_odd_weights_are_the_factorial_ratios():
    want = [math.factorial(2 * j - 1) // math.factorial(j - 1) ** 2 for j in range(1, 41)]
    assert odd_weights(40) == want
    assert odd_weights(0) == []


def test_Q_polynomial():
    a = exact(Fraction(2, 3), Fraction(1, 7))
    b = exact(Fraction(-1, 2), Fraction(3, 5))
    assert two_param_Q(a, b, 2) == exact(1)
    for k in (3, 5, 8):
        assert two_param_Q(a, b, k) == two_param_Q(b, a, k)


def test_Q_homogeneity_degree():
    a = exact(Fraction(1, 2), Fraction(1, 3))
    b = exact(Fraction(2, 5), Fraction(-1, 4))
    lam = exact(Fraction(3, 2), Fraction(1, 5))
    for k in (2, 4, 6):
        lhs = two_param_Q(lam * a, lam * b, k)
        rhs = lam ** (2 * k - 4) * two_param_Q(a, b, k)
        assert lhs == rhs


def test_Q_coefficient_sum():
    one = exact(1)
    for k in range(2, 21):
        want = Fraction(2) ** (k - 3) * math.factorial(k)
        assert two_param_Q(one, one, k) == CScalar.exact(want)


def test_a_k0_low_orders_and_diagonal():
    a = exact(Fraction(1, 2), Fraction(2, 3))
    b = exact(Fraction(1, 4))
    assert two_param_a_k0(a, b, 0) == exact(1)
    assert two_param_a_k0(a, b, 1) == (a + b) ** 2 / 2
    for k in (2, 3, 6):
        assert two_param_a_k0(a, a, k).is_zero()


def test_a_k0_matches_solver():
    a = exact(Fraction(1, 3), Fraction(1, 2))
    b = exact(Fraction(-2, 5), Fraction(1, 4))
    psi = solve(BoundaryData(q=1, data=two_param_boundary(a, b)), 8)
    for k in range(9):
        assert psi.coeff(k, 0) == two_param_a_k0(a, b, k)


def dyadic_exact(w: complex) -> CScalar:
    """The exact scalar a float complex number is."""
    return exact(Fraction(w.real), Fraction(w.imag))


def scaled_oracle(alpha: complex, beta: complex):
    """k -> two_param_a_k0 at the exact alpha, beta.  a[k,0] is homogeneous of
    degree 2k, so it is taken at the Gaussian integers L*alpha, L*beta (L the
    common power of two) and divided by L^(2k), which is faster."""
    parts = [Fraction(v) for w in (alpha, beta) for v in (w.real, w.imag)]
    scale = math.lcm(*(f.denominator for f in parts))
    a, b = (exact(int(x * scale), int(y * scale)) for x, y in (parts[:2], parts[2:]))
    return lambda k: two_param_a_k0(a, b, k) * Fraction(1, scale ** (2 * k))


def test_u_row_is_finite_and_matches_the_exact_terms():
    # Prefactors (k-2)!/2^(k-2) and 1/(2k!) applied apart would overflow a
    # float form in between: term 137 is exactly 6.3e74.
    alpha = complex(-0.0710460086685849, 1.377030118601125)
    beta = complex(-0.12574529912908972, -1.2538642971181502)
    row = TwoParamFamily(alpha, beta).u_row(181)
    assert len(row) == 181
    oracle = scaled_oracle(alpha, beta)
    for k in range(0, 181, 9):
        assert row[k] == oracle(k), k


def test_two_param_u_row_equals_the_oracle_on_random_dyadic_pairs():
    rng = random.Random(15)

    def dyadic():
        return complex(*(rng.randint(-99, 99) / 2 ** rng.randint(0, 12) for _ in range(2)))

    pairs = [(dyadic(), dyadic()) for _ in range(95)] + [(1, 1j), (2 + 1j, 2 + 1j), (1, 0.5j)]
    pairs = [(alpha, beta) for alpha, beta in pairs if alpha + beta != 0]
    assert len(pairs) >= 90
    for alpha, beta in pairs:
        n = rng.randint(8, 41)
        want = list(map(scaled_oracle(alpha, beta), range(n)))
        assert TwoParamFamily(alpha, beta).u_row(n) == want, (alpha, beta)
    # alpha = 1, beta = i: every odd term from k = 3 on is exactly 0
    row = TwoParamFamily(1, 1j).u_row(61)
    assert [k for k, v in enumerate(row) if not v] == list(range(3, 61, 2))


def test_every_u_row_equals_its_oracle_at_the_dyadic_parameters():
    rng = random.Random(16)
    for c in [1, -1, 2j, 1e30, 1e-30, 0.3 + 0.7j] + [
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]:
        for cls, oracle in ((Q0Family, coeff_q0), (Q1Family, coeff_q1)):
            want = [oracle(dyadic_exact(c), k, 0) for k in range(41)]
            assert cls(c).u_row(41) == want, (cls.name, c)
    assert HopfFamily().u_row(5) == [exact(1), exact(-2), exact(0), exact(0), exact(0)]
    for fam in (Q0Family(1), TwoParamFamily(1, 0.5), HopfFamily()):
        assert fam.u_row(0) == [] and fam.u_row(1) == [exact(1)]


def test_every_series_has_its_exact_u_row_times_psi00():
    # series solves q and data(n); u_row is a recurrence for the row with psi(0,0) = 1
    for fam in (Q0Family(0.5 - 0.25j), Q1Family(-0.75 + 0.5j),
                TwoParamFamily(0.5 + 0.25j, -0.25 + 0.5j), HopfFamily()):
        series, a00 = fam.series(12), complex(fam.data(12)[0])
        for k, v in enumerate(fam.u_row(13)):
            want = a00 * v.to_complex()
            assert series.coeff(k, 0).to_complex() == pytest.approx(want, rel=1e-12), (fam, k)


# -- equal-parameter closed form ----------------------------------------------------------


def test_equal_param_phi_values():
    assert equal_param_phi(-1j, (1.0, 0.0, 0.0)) == 0j
    with pytest.raises(OnAxis):
        equal_param_phi(-1j, (0.0, 0.0, 0.5))


def test_equal_param_phi_is_half_the_hopf_map():
    from semiconformal.solver import AnsatzMap, eval_phi
    from semiconformal.scalars import MODE_FLOAT

    rng = random.Random(9)
    amap = AnsatzMap(q=1, psi=hopf_series(6, MODE_FLOAT))
    for _ in range(5):
        p = Point3(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(-1, 1))
        lhs = 2 * equal_param_phi(-1j, p)
        rhs = eval_phi(amap, p).to_complex()
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_equal_param_phi_on_bouquet_plane():
    # on the plane z = -1/alpha (real alpha) the map reduces to alpha^2 (x+iy):
    # the common bouquet point of the fibres lies on the axis, not off it
    alpha = 0.5
    for x, y in ((0.3, 0.1), (-0.2, 0.4)):
        got = equal_param_phi(alpha, (x, y, -1 / alpha))
        assert abs(got - alpha * alpha * complex(x, y)) < 1e-14


# -- family descriptors ---------------------------------------------------------------------


def test_family_descriptor_round_trip():
    fams = [
        Q0Family(1j),
        Q0Family(0.5 - 1e-3j),
        Q1Family(2 + 1j),
        TwoParamFamily(1 + 0j, 0.5 + 0j),
        HopfFamily(),
        ProductFamily(b=1 + 0j, c=1j),
    ]
    for fam in fams:
        values = zip(fam._fields, fam._values())
        assert parse_family({"family": fam.name, **{k: [v.real, v.imag] for k, v in values}}) == fam


def test_parse_family_checks_every_key_before_it_parses_a_value():
    def parse(key, value):
        raise AssertionError(f"parsed {key!r}")

    for doc, message in (({"family": "q0", "c": "x", "b": "y"}, "takes no parameter 'b'"),
                         ({"family": "product", "b": "y"}, "needs parameter 'c'")):
        with pytest.raises(ValueError, match=message):
            parse_family(doc, parse)
    assert parse_family({"family": "q0", "c": "2"}, lambda key, text: complex(text)) == Q0Family(2)


def test_family_invariants():
    with pytest.raises(ValueError):
        Q0Family(0j)
    with pytest.raises(ValueError):
        TwoParamFamily(1 + 0j, -1 + 0j)
    with pytest.raises(ValueError):
        parse_family({"family": "nope"})
