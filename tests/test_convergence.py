import math
from fractions import Fraction

import pytest

from paper import coeff_q1, two_param_a_k0
from semiconformal.closed_forms import (
    HopfFamily,
    ProductFamily,
    Q0Family,
    Q1Family,
    TwoParamFamily,
    coeff_q0,
)
from semiconformal.convergence import (
    InsufficientTerms,
    estimate_radius_u,
    estimate_report,
)
from semiconformal.scalars import CScalar


def q0_row(c: complex, n: int) -> list[complex]:
    cs = CScalar.from_complex(c)
    return [coeff_q0(cs, k, 0).to_complex() for k in range(n)]


def q1_row(c: complex, n: int) -> list[complex]:
    cs = CScalar.from_complex(c)
    return [coeff_q1(cs, k, 0).to_complex() for k in range(n)]


def two_param_row(alpha: complex, beta: complex, n: int) -> list[complex]:
    a, b = CScalar.from_complex(alpha), CScalar.from_complex(beta)
    return [two_param_a_k0(a, b, k).to_complex() for k in range(n)]


# -- estimators ------------------------------------------------------------------


def test_geometric_series_has_radius_one():
    coeffs = [1.0] * 40
    assert estimate_radius_u(coeffs, "ratio") == pytest.approx(1.0)
    assert estimate_radius_u(coeffs, "root") == pytest.approx(1.0)


def test_scaled_geometric_series():
    coeffs = [3.0**k for k in range(40)]
    assert estimate_radius_u(coeffs, "ratio") == pytest.approx(1 / 3)
    assert estimate_radius_u(coeffs, "root") == pytest.approx(1 / 3)


def test_q0_row_radius_close_to_one_sixth():
    est = estimate_radius_u(q0_row(1.0, 60), "ratio")
    assert abs(est - 1 / 6) / (1 / 6) < 0.05
    # the consecutive ratios approach their limit from below, so the
    # estimate overshoots slightly rather than undershooting
    assert est > 1 / 6


def test_two_param_radius_at_least_the_sufficient_bound():
    est = estimate_radius_u(two_param_row(1.0, 0.5, 60), "ratio")
    assert est >= 0.5


def test_ratio_and_root_agree_at_sixty_terms():
    rows = [
        q0_row(1.0, 60),
        q1_row(1.0, 60),
        two_param_row(1.0, 0.5, 60),
    ]
    for row in rows:
        ratio = estimate_radius_u(row, "ratio")
        root = estimate_radius_u(row, "root")
        assert abs(ratio - root) / ratio < 0.10


def test_insufficient_terms():
    with pytest.raises(InsufficientTerms):
        estimate_radius_u([1.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_unknown_method():
    with pytest.raises(ValueError):
        estimate_radius_u([1.0] * 20, "vibes")


def test_non_finite_terms_raise():
    for bad in (math.inf, -math.inf, math.nan, complex(1, math.inf), CScalar.floating(math.nan)):
        for method in ("ratio", "root"):
            with pytest.raises(ValueError, match="not finite"):
                estimate_radius_u([1.0] * 20 + [bad], method)


def test_exact_terms_beyond_double_range():
    # the radius 1e-100 and 1e100 with terms far outside double range
    for base, radius in ((10**100, 1e-100), (Fraction(1, 10**100), 1e100)):
        row = [CScalar.exact(base**k) for k in range(40)]
        for method in ("ratio", "root"):
            assert estimate_radius_u(row, method) == pytest.approx(radius, rel=1e-13)


def test_an_estimate_outside_double_range_raises():
    for base in (10**400, Fraction(1, 10**400)):
        row = [CScalar.exact(base**k) for k in range(20)]
        for method in ("ratio", "root"):
            with pytest.raises(OverflowError, match="outside double range"):
                estimate_radius_u(row, method)


def test_exact_and_float_rows_agree():
    fam = Q0Family(1 + 0j)
    exact_row = fam.u_row(60)
    for method in ("ratio", "root"):
        got = estimate_radius_u(exact_row, method)
        assert got == pytest.approx(estimate_radius_u(q0_row(1.0, 60), method), rel=1e-13)


# -- analytic bounds -------------------------------------------------------------------


def test_bounds_for_one_param_families():
    assert Q0Family(1 + 0j).radius_bound(0j) == pytest.approx(1 / 6)
    assert Q0Family(1 + 0j).radius_bound(1j) == pytest.approx(1 / 3)
    assert Q1Family(1 + 0j).radius_bound(0j) == pytest.approx(1 / 2)


def test_bounds_for_two_param_families():
    assert TwoParamFamily(1 + 0j, 0.5 + 0j).radius_bound() == pytest.approx(0.5)
    assert TwoParamFamily(0.5 + 0j, 0.5 + 0j).radius_bound() is None
    assert HopfFamily().radius_bound() is None
    assert ProductFamily(b=1 + 0j, c=1 + 0j).radius_bound() == pytest.approx(0.5)


# -- tail behaviour straddling the bound --------------------------------------------------


def test_partial_sums_converge_inside_and_diverge_outside():
    row = q0_row(1.0, 60)
    inside = 0.9 / 6.0
    outside = 1.5 / 6.0
    inside_terms = [abs(a) * inside**k for k, a in enumerate(row)][2:]
    outside_terms = [abs(a) * outside**k for k, a in enumerate(row)]
    assert all(s > t for s, t in zip(inside_terms, inside_terms[1:]))
    assert outside_terms[-1] > outside_terms[20] > outside_terms[10]


# -- report assembly ------------------------------------------------------------------------


def test_estimate_report_fields():
    fam = Q0Family(1 + 0j)
    report = estimate_report(fam, q0_row(1.0, 60), method="ratio")
    assert report.terms_used == 60
    assert report.theoretical == pytest.approx(1 / 6)
    assert report.relative_gap == pytest.approx(
        (report.empirical - 1 / 6) / (1 / 6)
    )
    doc = report.to_json_dict()
    assert set(doc) == {"empirical", "theoretical", "relative_gap", "method", "terms_used"}


def test_estimate_report_unbounded_family():
    fam = TwoParamFamily(1 + 0j, 1 + 0j)
    row = [1.0] * 30  # placeholder coefficients; the bound is family data
    report = estimate_report(fam, row, method="root")
    assert report.theoretical is None
    assert report.relative_gap is None
    assert report.to_json_dict()["theoretical"] == "unbounded"
