import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from semiconformal import identities
from semiconformal.cli import main
from semiconformal.closed_forms import hopf_series, odd_weights, u_factor_q0, u_factor_q1
from semiconformal.identities import (
    check_binomial_convolution,
    check_mixed_leibniz,
    check_odd_binomial_sum,
    check_profile_recurrence,
    check_profile_recurrence_reduced,
    check_q_coefficient_sum,
    check_series_coefficient_identity,
    default_suite,
    newton_coeff,
)
from semiconformal.scalars import (
    MODE_EXACT,
    MODE_FLOAT,
    CScalar,
    ModeMismatch,
    common_denominator,
    to_gaussian,
)
from semiconformal.series import BiSeries
from semiconformal.solver import BoundaryData, solve


def exact(v, im=0):
    return CScalar.exact(v, im)


# -- fundamental coefficient identity -------------------------------------------


def test_hopf_satisfies_the_identity_with_its_own_sign():
    report = check_series_coefficient_identity(hopf_series(8), q=1, kmax=5, lmax=5)
    assert report.ok, report.first_failure


def test_hopf_fails_the_identity_with_the_wrong_sign():
    report = check_series_coefficient_identity(hopf_series(8), q=0, kmax=5, lmax=5)
    assert not report.ok
    assert report.first_failure["index"] == (1, 0)


def test_solved_series_satisfies_the_identity():
    c = exact(1)
    psi = solve(BoundaryData(q=0, data=(exact(1), c)), 10)
    report = check_series_coefficient_identity(psi, q=0, kmax=9, lmax=9)
    assert report.ok, report.first_failure


def reference_first_failure(psi, q, kmax, lmax):
    """The identity's first failure from a table of derivative values built
    through ``coeff`` over ``common_denominator``, summed in ``CScalar``s."""
    s = 1 if q == 0 else -1
    keys = [(k, l) for k in range(psi.trunc + 1) for l in range(psi.trunc + 1 - k)]
    values = [psi.coeff(k, l) for k, l in keys]
    den = common_denominator(values)
    table = {kl: exact(Fraction(factorial(kl[0]) * factorial(kl[1]) * x, den),
                       Fraction(factorial(kl[0]) * factorial(kl[1]) * y, den))
             for kl, x, y in zip(keys, *to_gaussian(values, den))}

    def d(k, l):
        return table.get((k, l), exact(0))

    for k in range(1, kmax + 1):
        for l in range(lmax + 1):
            if k + l + 1 > psi.trunc:
                continue
            lhs = exact(0)
            for j in range(l + 1):
                for i in range(k + 1):
                    lhs = lhs + (k - i + s) * comb(l, j) * comb(k, i) * d(k - i, l - j) * d(i + 1, j)
                for i in range(k):
                    lhs = lhs + comb(l, j) * comb(k - 1, i) * d(k - i - 1, l - j + 1) * d(i + 1, j + 1)
            if not lhs.is_zero():
                return dict(index=(k, l), lhs=str(lhs), rhs=str(exact(0)))
    return None


def test_identity_failure_on_perturbed_series_matches_a_coefficient_table():
    rng = random.Random(21)
    c = exact(Fraction(2, 3), 1)
    for trial in range(8):
        q = trial % 2
        psi = solve(BoundaryData(q=q, data=tuple(c ** l for l in range(11))), 10)
        table = dict(psi.items())
        k, l = rng.randint(0, 4), rng.randint(0, 5)
        table[(k, l)] = psi.coeff(k, l) + exact(Fraction(rng.randint(1, 9), rng.randint(2, 9)),
                                                 rng.randint(-2, 2))
        perturbed = BiSeries(10, MODE_EXACT, table)
        report = check_series_coefficient_identity(perturbed, q, 10, 10)
        assert not report.ok
        assert report.first_failure == reference_first_failure(perturbed, q, 10, 10)


def test_identity_check_rejects_floating_series():
    with pytest.raises(ModeMismatch):
        check_series_coefficient_identity(hopf_series(6, MODE_FLOAT), 1, 3, 3)


def test_failure_report_serializes():
    report = check_series_coefficient_identity(hopf_series(8), q=0, kmax=3, lmax=3)
    doc = report.to_json_dict()
    assert doc["status"] == "fail"
    assert doc["first_failure"]["rhs"] == str(CScalar.zero(MODE_EXACT))


# -- mixed-partial product rule -----------------------------------------------------


def test_leibniz_hand_case():
    s = BiSeries(4, MODE_EXACT, {(0, 0): exact(1), (1, 0): exact(1), (0, 1): exact(1)})
    report = check_mixed_leibniz(1, 1, s, s)
    assert report.ok
    # both sides equal 2 on (1+u+z)^2
    assert (s * s).derivative_value(1, 1) == exact(2)


def test_leibniz_zeroth_order_is_pointwise_product():
    rng = random.Random(8)
    f = _rand_poly(rng, 3)
    g = _rand_poly(rng, 3)
    assert check_mixed_leibniz(0, 0, f, g).ok
    assert (f * g).derivative_value(0, 0) == f.coeff(0, 0) * g.coeff(0, 0)


def _rand_poly(rng, trunc):
    table = {}
    for k in range(trunc + 1):
        for l in range(trunc + 1 - k):
            if rng.random() < 0.6:
                table[(k, l)] = exact(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                )
    return BiSeries(trunc, MODE_EXACT, table)


def test_leibniz_randomized_degree_four():
    rng = random.Random(123)
    for _ in range(4):
        f = _rand_poly(rng, 4)
        g = _rand_poly(rng, 4)
        for k in range(5):
            for l in range(5 - k):
                assert check_mixed_leibniz(k, l, f, g).ok


# -- profile recurrences ------------------------------------------------------------


def test_profile_recurrence_q0_first_step():
    # brute RHS at k=1 equals 1, forcing f(2) = 1/2
    f = u_factor_q0
    rhs = sum(
        Fraction((m + 2) * (1 - m)) * f(m + 1) * f(1 - m)
        + Fraction((2 * m - 1) * (2 - 2 * m - 1), 2) * f(m) * f(1 - m)
        for m in range(2)
    )
    assert rhs == Fraction(1)
    assert u_factor_q0(2) == Fraction(1, 2)
    assert check_profile_recurrence(0, 30).ok


def test_profile_recurrence_q1_first_step():
    f = u_factor_q1
    rhs = -sum(
        Fraction(m * (1 - m)) * f(m + 1) * f(1 - m)
        + Fraction((2 * m - 1) * (1 - 2 * m), 2) * f(m) * f(1 - m)
        for m in range(2)
    )
    assert rhs == Fraction(1, 2)
    assert u_factor_q1(2) == Fraction(1, 4)
    assert check_profile_recurrence(1, 30).ok


def test_reduced_recurrence_hand_case():
    # k=2: LHS = 3 f(3) - 5 f(2) = 7/8; RHS = (1/6)(3 * 7 * f(2) f(1)) = 7/8
    f = u_factor_q0
    assert 3 * f(3) - 5 * f(2) == Fraction(7, 8)
    assert Fraction(3 * 7, 6) * f(2) * f(1) == Fraction(7, 8)
    assert check_profile_recurrence_reduced(30).ok


def per_term_first_failure(q, f, kmax):
    """The recurrences summed term by term with a call f(k) per factor:
    (index, lhs, rhs) of the first k where the two sides differ, or None.
    q is 0, 1, or "reduced"."""
    for k in range(1 if q != "reduced" else 2, kmax + 1):
        if q == "reduced":
            lhs = (k + 1) * f(k + 1) - (3 * k - 1) * f(k)
            rhs = sum((m + 2) * (8 * (k - m) - 1) * f(m + 1) * f(k - m)
                      for m in range(1, k)) / Fraction(6)
        else:
            lhs, rhs = (k + 1) * f(k + 1), Fraction(0)
            for m in range(k + 1):
                quad = Fraction(2 * m - 1, 2) * (2 * k - 2 * m - 1) * f(m) * f(k - m)
                if q == 0:
                    rhs += (m + 2) * (k - m) * f(m + 1) * f(k - m) + quad
                else:
                    rhs -= m * (k - m) * f(m + 1) * f(k - m) + quad
        if lhs != rhs:
            return {"index": k, "lhs": str(lhs), "rhs": str(rhs)}
    return None


@pytest.mark.parametrize("q", [0, 1, "reduced"])
@pytest.mark.parametrize("bad_k", [0, 1, 2, 9, 31])
def test_tabulated_recurrences_report_the_per_term_first_failure(monkeypatch, q, bad_k):
    true_f = u_factor_q0 if q in (0, "reduced") else u_factor_q1

    def wrong(k):
        return true_f(k) + (Fraction(1, 3) if k == bad_k else 0)

    monkeypatch.setattr(identities, "u_factor_q0" if true_f is u_factor_q0 else "u_factor_q1",
                        wrong)
    report = (check_profile_recurrence_reduced(30) if q == "reduced"
              else check_profile_recurrence(q, 30))
    want = per_term_first_failure(q, wrong, 30)
    assert report.first_failure == want
    # the reduced form never reads f(0)
    assert (want is None) == (q == "reduced" and bad_k == 0)


# -- binomial convolution identities ----------------------------------------------------


def test_convolution_first_hand_case():
    lhs = Fraction(comb(2, 1) * comb(0, 0), 2 * 2)
    rhs = (
        Fraction(comb(6, 3), 48) + Fraction(comb(4, 2), 8) - Fraction(comb(2, 1), 3)
    )
    assert lhs == rhs == Fraction(1, 2)
    assert check_binomial_convolution("first", 40).ok


def test_convolution_second_hand_case():
    lhs = Fraction(comb(2, 1) * comb(0, 0), 2 * 1 * 2)
    rhs = Fraction(1, 6) * (-Fraction(comb(6, 3), 20) + Fraction(6 * comb(4, 2), 9))
    assert lhs == rhs == Fraction(1, 2)
    assert check_binomial_convolution("second", 40).ok


def test_odd_binomial_sum_hand_cases():
    # S_2 = 1 and S_3 = 6 + 6 = 12 = 2 * 3 * 2
    assert Fraction(factorial(1) * factorial(1), 1) == 1
    s3 = Fraction(factorial(1) * factorial(3), factorial(0) ** 2 * factorial(1) ** 2) + Fraction(
        factorial(3) * factorial(1), factorial(1) ** 2 * factorial(0) ** 2
    )
    assert s3 == 12
    assert check_odd_binomial_sum(50).ok


def test_q_coefficient_sum_check():
    assert check_q_coefficient_sum(20).ok


def per_term_sums_first_failure(name, kmax):
    """The convolutions and the two odd-weight sums summed term by term in
    Fraction, reading ``identities.comb`` and ``identities.odd_weights`` per
    term: the first failure as the checks report it, or None."""
    comb, g = identities.comb, identities.odd_weights(kmax - 1)
    for k in range(2, kmax + 1):
        if name in ("first", "second"):
            lhs = Fraction(0)
            for m in range(1, k):
                w = Fraction(comb(2 * m, m) * comb(2 * k - 2 * m - 2, k - m - 1))
                lhs += w / ((m + 1) * (k - m + 1) * (1 if name == "first" else k - m))
            if name == "first":
                rhs = (Fraction(comb(2 * k + 2, k + 1), 12 * (k + 2))
                       + Fraction(comb(2 * k, k), 2 * (k + 2))
                       - Fraction(comb(2 * k - 2, k - 1), k + 1))
            else:
                rhs = (-Fraction((k - 1) * comb(2 * k + 2, k + 1), (k + 2) * (2 * k + 1))
                       + Fraction(6 * (k - 1) * comb(2 * k, k), (k + 1) * (2 * k - 1))) / 6
        elif name == "odd":
            lhs = sum(g[j - 1] * g[k - j - 1] for j in range(1, k))
            rhs = Fraction(2) ** (2 * k - 5) * k * (k - 1)
        else:
            pref = Fraction(factorial(k - 2), 2 ** (k - 2))
            lhs = sum(pref * (g[j - 1] * g[k - j - 1]) for j in range(1, k))
            rhs = Fraction(2) ** (k - 3) * factorial(k)
        if lhs != rhs:
            return {"index": k, "lhs": str(lhs), "rhs": str(rhs)}
    return None


@pytest.mark.parametrize("which", ["first", "second"])
@pytest.mark.parametrize("bad_n", [0, 1, 2, 9, 41])
def test_convolutions_report_the_per_term_first_failure(monkeypatch, which, bad_n):
    # C(2n, n) one too large at n = bad_n; n = 41 enters only the right-hand side
    monkeypatch.setattr(identities, "comb",
                        lambda n, r: comb(n, r) + (n == 2 * r == 2 * bad_n))
    want = per_term_sums_first_failure(which, 40)
    assert want is not None
    assert check_binomial_convolution(which, 40).first_failure == want


@pytest.mark.parametrize("name, kmax", [("odd", 50), ("q", 20)])
@pytest.mark.parametrize("bad_j", [0, 1, 6, 18])
def test_odd_weight_sums_report_the_per_term_first_failure(monkeypatch, name, kmax, bad_j):
    monkeypatch.setattr(identities, "odd_weights",
                        lambda n: [x + (i == bad_j) for i, x in enumerate(odd_weights(n))])
    want = per_term_sums_first_failure(name, kmax)
    assert want is not None
    check = check_odd_binomial_sum if name == "odd" else check_q_coefficient_sum
    assert check(kmax).first_failure == want


# -- generalized binomial coefficients ---------------------------------------------------


def test_newton_geometric_series():
    assert all(newton_coeff(1, n) == 1 for n in range(10))


def test_newton_cubed_with_scaled_argument():
    # coefficient of t^m in (1-4t)^(-3) is 2^(2m-1)(m+2)(m+1)
    for m in range(12):
        got = newton_coeff(3, m) * Fraction(4) ** m
        assert got == Fraction(2) ** (2 * m - 1) * (m + 2) * (m + 1)
    assert newton_coeff(3, 1) * 4 == 12 == comb(3, 2) * 4


def test_newton_half_gives_central_binomials():
    for k in range(21):
        assert newton_coeff(Fraction(1, 2), k) * Fraction(4) ** k == comb(2 * k, k)


def test_newton_resums_the_z_direction():
    # sum_l C(l+2k-2, 2k-2) x^l = (1-x)^(-(2k-1)) coefficientwise
    for k in range(1, 8):
        for l in range(12):
            assert newton_coeff(2 * k - 1, l) == comb(l + 2 * k - 2, 2 * k - 2)


# -- suite --------------------------------------------------------------------------------


def test_default_suite_passes():
    reports = default_suite(kmax=12)
    for report in reports:
        assert report.ok, (report.name, report.first_failure)
    names = {r.name for r in reports}
    assert "series_coefficient_identity" in names
    assert "u_profile_recurrence_q0" in names



# The reports of default_suite(k), pinned: one row (name, range, status,
# first_failure) per report.
SUITE_REPORTS = {
    None: [
        ("u_profile_recurrence_q0", "1<=k<=30", "pass", None),
        ("u_profile_recurrence_q1", "1<=k<=30", "pass", None),
        ("u_profile_recurrence_reduced", "2<=k<=30", "pass", None),
        ("binomial_convolution_first", "2<=k<=40", "pass", None),
        ("binomial_convolution_second", "2<=k<=40", "pass", None),
        ("odd_central_binomial_sum", "2<=k<=50", "pass", None),
        ("q_row_coefficient_sum", "2<=k<=20", "pass", None),
        ("series_coefficient_identity", "1<=k<=8, 0<=l<=8, k+l+1<=8, q=1", "pass", None),
    ],
    2: [
        ("u_profile_recurrence_q0", "1<=k<=2", "pass", None),
        ("u_profile_recurrence_q1", "1<=k<=2", "pass", None),
        ("u_profile_recurrence_reduced", "2<=k<=2", "pass", None),
        ("binomial_convolution_first", "2<=k<=2", "pass", None),
        ("binomial_convolution_second", "2<=k<=2", "pass", None),
        ("odd_central_binomial_sum", "2<=k<=2", "pass", None),
        ("q_row_coefficient_sum", "2<=k<=2", "pass", None),
        ("series_coefficient_identity", "1<=k<=8, 0<=l<=8, k+l+1<=8, q=1", "pass", None),
    ],
    6: [
        ("u_profile_recurrence_q0", "1<=k<=6", "pass", None),
        ("u_profile_recurrence_q1", "1<=k<=6", "pass", None),
        ("u_profile_recurrence_reduced", "2<=k<=6", "pass", None),
        ("binomial_convolution_first", "2<=k<=6", "pass", None),
        ("binomial_convolution_second", "2<=k<=6", "pass", None),
        ("odd_central_binomial_sum", "2<=k<=6", "pass", None),
        ("q_row_coefficient_sum", "2<=k<=6", "pass", None),
        ("series_coefficient_identity", "1<=k<=8, 0<=l<=8, k+l+1<=8, q=1", "pass", None),
    ],
    12: [
        ("u_profile_recurrence_q0", "1<=k<=12", "pass", None),
        ("u_profile_recurrence_q1", "1<=k<=12", "pass", None),
        ("u_profile_recurrence_reduced", "2<=k<=12", "pass", None),
        ("binomial_convolution_first", "2<=k<=12", "pass", None),
        ("binomial_convolution_second", "2<=k<=12", "pass", None),
        ("odd_central_binomial_sum", "2<=k<=12", "pass", None),
        ("q_row_coefficient_sum", "2<=k<=12", "pass", None),
        ("series_coefficient_identity", "1<=k<=8, 0<=l<=8, k+l+1<=8, q=1", "pass", None),
    ],
}


@pytest.mark.parametrize("kmax", list(SUITE_REPORTS))
def test_default_suite_reports_are_pinned(kmax):
    want = [dict(zip(("name", "range", "status", "first_failure"), row))
            for row in SUITE_REPORTS[kmax]]
    assert [r.to_json_dict() for r in default_suite(kmax)] == want


def test_identities_command_writes_the_pinned_bytes(tmp_path, capsys):
    out = tmp_path / "identities.json"
    assert main(["identities", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert [tuple(r.values()) for r in json.loads(data)] == SUITE_REPORTS[None]
    assert hashlib.sha256(data).hexdigest() == (
        "6517bc7aed1b2d4dcbe347ddeda67d9d80faa3ff13b04266948088ce0861365d")
