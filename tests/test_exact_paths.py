"""Property tests of the integer paths: exact products, the exact row sweep and
the coefficient identity on Gaussian-integer numerators, each against a
reference written here on ``CScalar``s."""

import math
from fractions import Fraction
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from paper import check_mixed_leibniz
from semiconformal.closed_forms import one_param_series
from semiconformal.identities import check_series_coefficient_identity
from semiconformal.scalars import MODE_EXACT, CScalar
from semiconformal.series import BiSeries
from semiconformal.solver import BoundaryData, governing_residual, solve

# Zero parts are drawn often, so purely real and purely imaginary values occur.
rationals = st.just(Fraction(0)) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
gaussian = st.builds(CScalar.exact, rationals, rationals)
nonzero_gaussian = gaussian.filter(lambda v: not v.is_zero())


@st.composite
def exact_series(draw, max_trunc=6):
    trunc = draw(st.integers(0, max_trunc))
    keys = [(k, l) for k in range(trunc + 1) for l in range(trunc + 1 - k)]
    values = draw(st.lists(st.none() | gaussian, min_size=len(keys), max_size=len(keys)))
    return BiSeries(trunc, MODE_EXACT, {kl: v for kl, v in zip(keys, values) if v is not None})


boundary_data = st.tuples(
    st.integers(0, 1),
    st.lists(gaussian, min_size=0, max_size=3),
    nonzero_gaussian,
    nonzero_gaussian,
    st.integers(2, 8),
)


def naive_product(f, g):
    trunc = min(f.trunc, g.trunc)
    out = {}
    for (k1, l1), x in f.items():
        for (k2, l2), y in g.items():
            kl = (k1 + k2, l1 + l2)
            if sum(kl) <= trunc:
                out[kl] = out.get(kl, CScalar.zero(MODE_EXACT)) + x * y
    return BiSeries(trunc, MODE_EXACT, out)


@given(exact_series(), exact_series())
def test_exact_product_matches_naive_double_loop(f, g):
    product = f * g
    assert product == naive_product(f, g)
    assert product == g * f
    trunc = product.trunc
    for k, l in ((0, 0), (trunc, 0), (0, trunc), (trunc // 2, trunc - trunc // 2)):
        report = check_mixed_leibniz(k, l, f, g)
        assert report.ok, report.first_failure


@given(boundary_data)
def test_exact_solve_on_random_data(case):
    q, extra, v0, v1, order = case
    data = (v0, v1, *extra)
    psi = solve(BoundaryData(q=q, data=data), order)

    residual = governing_residual(psi, q)
    assert residual.trunc == order - 1
    assert residual.n_nonzero == 0
    report = check_series_coefficient_identity(psi, q, order, order)
    assert report.ok, report.first_failure
    for l in range(order + 1):
        want = data[l] / math.factorial(l) if l < len(data) else CScalar.zero(MODE_EXACT)
        assert psi.coeff(0, l) == want

    # The float sweep agrees per total-degree shell, normwise.
    floating = solve(BoundaryData(q=q, data=tuple(v.to_floating() for v in data)), order)
    for degree in range(order + 1):
        shell = [(k, degree - k) for k in range(degree + 1)]
        scale = max(abs(psi.coeff(*kl)) for kl in shell)
        gap = max(abs(floating.coeff(*kl).to_complex() - psi.coeff(*kl).to_complex())
                  for kl in shell)
        assert gap <= 1e-12 * scale, (degree, gap, scale)


def scalar_identity_failure(psi, q, kmax, lmax):
    """The coefficient identity summed directly on CScalar derivative values."""
    s = 1 if q == 0 else -1
    dv = psi.derivative_value
    zero = CScalar.zero(MODE_EXACT)
    for k in range(1, kmax + 1):
        for l in range(lmax + 1):
            if k + l + 1 > psi.trunc:
                continue
            total = zero
            for j in range(l + 1):
                for i in range(k + 1):
                    total = total + ((k - i + s) * comb(l, j) * comb(k, i)) * (
                        dv(k - i, l - j) * dv(i + 1, j))
                for i in range(k):
                    total = total + (comb(l, j) * comb(k - 1, i)) * (
                        dv(k - i - 1, l - j + 1) * dv(i + 1, j + 1))
            if not total.is_zero():
                return {"index": (k, l), "lhs": str(total), "rhs": str(zero)}
    return None


def test_corrupted_coefficient_fails_like_the_scalar_sum():
    # Denominators 3, 5 and 7 in the data, and the corruption adds an 11, so
    # the failing sum only reads right after its conversion back over D^2.
    data = (CScalar.exact(Fraction(2, 3), 1), CScalar.exact(Fraction(1, 5), Fraction(-3, 7)),
            CScalar.exact(Fraction(-1, 2)))
    psi = solve(BoundaryData(q=0, data=data), 7)
    table = dict(psi.items())
    table[(2, 1)] = table[(2, 1)] + CScalar.exact(Fraction(1, 11), Fraction(-2, 3))
    bad = BiSeries(7, MODE_EXACT, table)

    report = check_series_coefficient_identity(bad, 0, 7, 7)
    want = scalar_identity_failure(bad, 0, 7, 7)
    assert report.status == "fail"
    assert want is not None and want["index"] == (1, 1)
    assert report.first_failure == want


def test_benchmark_case_matches_the_closed_table():
    c = CScalar.exact(Fraction(2, 3), 1)
    psi = solve(BoundaryData(q=0, data=(CScalar.exact(1), c)), 24)
    assert psi == one_param_series(0, c, 24)
