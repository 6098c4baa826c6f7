"""Exact verification of the recurrences and binomial identities behind the
closed-form coefficient tables.

Every check of ``default_suite`` recomputes both sides exactly, and every sum
runs on plain ``int``s over one common denominator: the brute-force sum is
always the oracle and the closed expression is the claim under test.  A
``Fraction`` is built only where a table is read and where a failure is
reported.  Checks run in exact mode only; a floating series is rejected
outright, since a tolerance would make these combinatorial statements
meaningless.

The series coefficient identity reads the series' stored Gaussian-integer
numerators over their least common denominator D once, as k! l! D a[k,l],
and sums in plain ``int``s, converting back over D^2 only to report a
failure.  It uses neither the product kernel nor ``BiSeries.__mul__``, so it
stays an independent check of the solver and of ``governing_residual``.

Constants (binomials, profile factors f(k)) come from tables built once per
call; the brute-force sums and their order are those of the stated identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add

from .closed_forms import HOPF_BOUNDARY, odd_weights, u_factor_q0, u_factor_q1
from .scalars import MODE_EXACT, CScalar, ModeMismatch, Record
from .series import BiSeries
from .solver import BoundaryData, solve


class IdentityReport(Record):
    """Outcome of one identity check over a stated index range."""

    __slots__ = _fields = ("name", "range_desc", "status", "first_failure")

    def __init__(self, name: str, range_desc: str, status: str, first_failure: dict | None = None):
        self._set("name", name)
        self._set("range_desc", range_desc)
        self._set("status", status)
        self._set("first_failure", first_failure)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return dict(zip(("name", "range", "status", "first_failure"), self._values()))


def _report(name: str, range_desc: str, failures) -> IdentityReport:
    for i, lhs, rhs in failures:
        return IdentityReport(name, range_desc, "fail", dict(index=i, lhs=str(lhs), rhs=str(rhs)))
    return IdentityReport(name, range_desc, "pass")


# -- the fundamental coefficient identity of the governing equations ------------


def check_series_coefficient_identity(
    psi: BiSeries, q: int, kmax: int, lmax: int
) -> IdentityReport:
    """For a solution psi and its sign s = +1 (q=0) / -1 (q=1), the derivative
    values psi_{k,l} = k! l! a[k,l] satisfy, for every k >= 1, l >= 0,

        sum_{j<=l} sum_{i<=k} (k-i+s) C(l,j) C(k,i) psi_{k-i,l-j} psi_{i+1,j}
      + sum_{j<=l} sum_{i<=k-1}       C(l,j) C(k-1,i) psi_{k-i-1,l-j+1} psi_{i+1,j+1}
      = 0.

    Checked exactly on all 1 <= k <= kmax, 0 <= l <= lmax with k+l+1 <= trunc.
    """
    if psi.mode != MODE_EXACT:
        raise ModeMismatch("coefficient identity checks require exact mode")
    if q not in (0, 1):
        raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
    s = 1 if q == 0 else -1
    trunc = psi.trunc

    # t_re[k][l] + i*t_im[k][l] = D * psi_{k,l} = k! l! D a[k,l], read from
    # the stored numerators over the least common denominator D, so each sum
    # below is D^2 times the identity's left-hand side.
    den = psi._den
    t_re = [[0] * (trunc + 1) for _ in range(trunc + 1)]
    t_im = [[0] * (trunc + 1) for _ in range(trunc + 1)]
    fact = [factorial(m) for m in range(trunc + 1)]
    for k, (re, im) in enumerate(zip(*psi._parts)):
        for l, (x, y) in enumerate(zip(re, im)):
            t_re[k][l] = fact[k] * fact[l] * x
            t_im[k][l] = fact[k] * fact[l] * y
    # Pascal's triangle: binom[n][r] = C(n, r) for every n the sums reach.
    binom = [[1]]
    for _ in range(min(max(kmax, lmax), trunc)):
        binom.append([1, *map(add, binom[-1], binom[-1][1:]), 1])

    def failures():
        for k in range(1, kmax + 1):
            for l in range(0, lmax + 1):
                if k + l + 1 > trunc:
                    continue
                tot_re = tot_im = 0
                bk, bk1 = binom[k], binom[k - 1]
                for j in range(l + 1):
                    cl = binom[l][j]
                    # a term with a zero factor adds nothing and is skipped
                    for i in range(k + 1):
                        a_re, a_im = t_re[k - i][l - j], t_im[k - i][l - j]
                        b_re, b_im = t_re[i + 1][j], t_im[i + 1][j]
                        if (a_re or a_im) and (b_re or b_im):
                            w = (k - i + s) * cl * bk[i]
                            tot_re += w * (a_re * b_re - a_im * b_im)
                            tot_im += w * (a_re * b_im + a_im * b_re)
                    for i in range(k):
                        a_re, a_im = t_re[k - i - 1][l - j + 1], t_im[k - i - 1][l - j + 1]
                        b_re, b_im = t_re[i + 1][j + 1], t_im[i + 1][j + 1]
                        if (a_re or a_im) and (b_re or b_im):
                            w = cl * bk1[i]
                            tot_re += w * (a_re * b_re - a_im * b_im)
                            tot_im += w * (a_re * b_im + a_im * b_re)
                if tot_re or tot_im:
                    lhs = CScalar.exact(Fraction(tot_re, den * den), Fraction(tot_im, den * den))
                    yield (k, l), lhs, CScalar.zero(MODE_EXACT)

    return _report(
        "series_coefficient_identity",
        f"1<=k<={kmax}, 0<=l<={lmax}, k+l+1<={psi.trunc}, q={q}",
        failures(),
    )


def check_mixed_leibniz(k: int, l: int, f: BiSeries, g: BiSeries) -> IdentityReport:
    """Mixed partial of a product at the origin versus the double-binomial sum

        d^{k+l}(fg)/du^k dz^l |_0 = sum_{i<=k} sum_{j<=l} C(k,i) C(l,j)
                                    f_{k-i,l-j} g_{i,j}.
    """
    if f.mode != MODE_EXACT or g.mode != MODE_EXACT:
        raise ModeMismatch("Leibniz check requires exact mode")
    product = f * g
    if k + l > product.trunc:
        raise ValueError("requested order exceeds the product truncation")
    direct = product.derivative_value(k, l)
    total = CScalar.zero(MODE_EXACT)
    for i in range(k + 1):
        for j in range(l + 1):
            total = total + (comb(k, i) * comb(l, j)) * (
                f.derivative_value(k - i, l - j) * g.derivative_value(i, j)
            )
    failures = [] if direct == total else [((k, l), direct, total)]
    return _report("mixed_partial_product_rule", f"(k,l)=({k},{l})", failures)


# -- recurrences for the one-parameter u-profiles -------------------------------


def _numerators(table: list) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm D of their denominators."""
    den = lcm(*(x.denominator for x in table))
    return [x.numerator * (den // x.denominator) for x in table], den


def check_profile_recurrence(q: int, kmax: int) -> IdentityReport:
    """The u-profile factors satisfy their defining quadratic recurrence:

        q=0:  (k+1) f(k+1) = sum_{m=0}^k [(m+2)(k-m) f(m+1)f(k-m)
                                          + (2m-1)(2k-2m-1)/2 f(m)f(k-m)]
        q=1:  (k+1) f(k+1) = -sum_{m=0}^k [m(k-m) f(m+1)f(k-m)
                                          + (2m-1)(2k-2m-1)/2 f(m)f(k-m)]

    with f(0) = -1, checked exactly for 1 <= k <= kmax, on the table
    f(0..kmax+1) built once per call.
    """
    if q not in (0, 1):
        raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
    factor = u_factor_q0 if q == 0 else u_factor_q1
    # f(m) = F[m] / D, so both sides below are 2 D^2 times the recurrence's.
    F, d = _numerators([factor(k) for k in range(kmax + 2)])

    def failures():
        for k in range(1, kmax + 1):
            lhs, rhs = 2 * d * (k + 1) * F[k + 1], 0
            for m in range(k + 1):
                quad = (2 * m - 1) * (2 * k - 2 * m - 1) * F[m] * F[k - m]
                if q == 0:
                    rhs += 2 * (m + 2) * (k - m) * F[m + 1] * F[k - m] + quad
                else:
                    rhs -= 2 * m * (k - m) * F[m + 1] * F[k - m] + quad
            if lhs != rhs:
                yield k, Fraction(lhs, 2 * d * d), Fraction(rhs, 2 * d * d)

    return _report(f"u_profile_recurrence_q{q}", f"1<=k<={kmax}", failures())


def check_profile_recurrence_reduced(kmax: int) -> IdentityReport:
    """Reduced form of the q=0 recurrence with the f(0) terms eliminated:

        (k+1) f(k+1) - (3k-1) f(k)
            = (1/6) sum_{m=1}^{k-1} (m+2)(8(k-m)-1) f(m+1) f(k-m),

    checked exactly for 2 <= k <= kmax, with both sides over 6 D^2.
    """
    F, d = _numerators([u_factor_q0(k) for k in range(kmax + 2)])

    def failures():
        for k in range(2, kmax + 1):
            lhs = 6 * d * ((k + 1) * F[k + 1] - (3 * k - 1) * F[k])
            rhs = 0
            for m in range(1, k):
                rhs += (m + 2) * (8 * (k - m) - 1) * F[m + 1] * F[k - m]
            if lhs != rhs:
                yield k, Fraction(lhs, 6 * d * d), Fraction(rhs, 6 * d * d)

    return _report("u_profile_recurrence_reduced", f"2<=k<={kmax}", failures())


# -- central-binomial convolution identities -------------------------------------


def check_binomial_convolution(which: str, kmax: int) -> IdentityReport:
    """Closed forms for two weighted self-convolutions of C(2m, m).

    first:
        sum_{m=1}^{k-1} C(2m,m) C(2k-2m-2,k-m-1) / ((m+1)(k-m+1))
          = C(2k+2,k+1)/(12(k+2)) + C(2k,k)/(2(k+2)) - C(2k-2,k-1)/(k+1)

    second:
        sum_{m=1}^{k-1} C(2m,m) C(2k-2m-2,k-m-1) / ((m+1)(k-m)(k-m+1))
          = (1/6) [ -(k-1)/((k+2)(2k+1)) C(2k+2,k+1)
                    + 6(k-1)/((k+1)(2k-1)) C(2k,k) ]

    both checked exactly for 2 <= k <= kmax; each k's sum runs over the lcm
    of its term denominators.
    """
    if which not in ("first", "second"):
        raise ValueError(f"unknown convolution identity {which!r}")
    cb = [comb(2 * n, n) for n in range(kmax + 2)]

    def failures():
        for k in range(2, kmax + 1):
            dens = [(m + 1) * (k - m + 1) * (1 if which == "first" else k - m)
                    for m in range(1, k)]
            den = lcm(*dens)
            lhs = sum(cb[m] * cb[k - m - 1] * (den // dm) for m, dm in enumerate(dens, 1))
            if which == "first":
                rhs = (
                    Fraction(cb[k + 1], 12 * (k + 2))
                    + Fraction(cb[k], 2 * (k + 2))
                    - Fraction(cb[k - 1], k + 1)
                )
            else:
                rhs = (
                    -Fraction((k - 1) * cb[k + 1], (k + 2) * (2 * k + 1))
                    + Fraction(6 * (k - 1) * cb[k], (k + 1) * (2 * k - 1))
                ) / 6
            if lhs * rhs.denominator != rhs.numerator * den:
                yield k, Fraction(lhs, den), rhs

    return _report(f"binomial_convolution_{which}", f"2<=k<={kmax}", failures())


def check_odd_binomial_sum(kmax: int) -> IdentityReport:
    """The factorial sum behind the two-parameter coefficient-sum claim:

        S_k = sum_{j=1}^{k-1} g(j) g(k-j) = 2^(2k-5) k (k-1),

    with g(j) = (2j-1)! / (j-1)!^2 the ``odd_weights`` that ``two_param_Q``
    reads, checked exactly for 2 <= k <= kmax, with both sides times 2^5.
    """
    g = odd_weights(kmax - 1)

    def failures():
        for k in range(2, kmax + 1):
            lhs = 32 * sum(g[j - 1] * g[k - j - 1] for j in range(1, k))
            rhs = k * (k - 1) << (2 * k)
            if lhs != rhs:
                yield k, Fraction(lhs, 32), Fraction(rhs, 32)

    return _report("odd_central_binomial_sum", f"2<=k<={kmax}", failures())


def check_q_coefficient_sum(kmax: int) -> IdentityReport:
    """The coefficients (k-2)!/2^(k-2) g(j) g(k-j) of the two-parameter u-row
    polynomial Q_k sum to 2^(k-3) k!, checked exactly for 2 <= k <= kmax by
    brute summation over the ``odd_weights`` table, both sides over 2^(k-1)."""
    g = odd_weights(kmax - 1)

    def failures():
        for k in range(2, kmax + 1):
            pref = 2 * factorial(k - 2)
            lhs = sum(pref * (g[j - 1] * g[k - j - 1]) for j in range(1, k))
            rhs = factorial(k) << (2 * k - 4)
            if lhs != rhs:
                yield k, Fraction(lhs, 1 << (k - 1)), Fraction(rhs, 1 << (k - 1))

    return _report("q_row_coefficient_sum", f"2<=k<={kmax}", failures())


# -- generalized binomial coefficients --------------------------------------------


def newton_coeff(r, n: int) -> Fraction:
    """Coefficient of t^n in (1-t)^(-r) for rational r: the rising factorial
    r(r+1)...(r+n-1)/n!, i.e. the generalized binomial C(n+r-1, r-1).  For
    r = p/q it is the integer product (p)(p+q)...(p+(n-1)q) over q^n n!."""
    if n < 0:
        raise ValueError("n must be non-negative")
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    return Fraction(prod(p + i * q for i in range(n)), q**n * factorial(n))


# -- aggregated suite ---------------------------------------------------------------


def default_suite(kmax: int | None = None) -> list[IdentityReport]:
    """The standard battery of exact checks, ending with the coefficient
    identity on the exact solve of the Hopf data to order 8."""
    if kmax is None:
        k_rec, k_conv, k_sum, k_q = 30, 40, 50, 20
    else:
        k_rec = k_conv = k_sum = kmax
        k_q = min(kmax, 20)
    psi = solve(BoundaryData(q=1, data=HOPF_BOUNDARY), 8)
    return [
        check_profile_recurrence(0, k_rec),
        check_profile_recurrence(1, k_rec),
        check_profile_recurrence_reduced(k_rec),
        check_binomial_convolution("first", k_conv),
        check_binomial_convolution("second", k_conv),
        check_odd_binomial_sum(k_sum),
        check_q_coefficient_sum(k_q),
        check_series_coefficient_identity(psi, 1, psi.trunc, psi.trunc),
    ]
