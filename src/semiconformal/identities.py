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
numerators over their least common denominator D once, as the u-rows
p! D A_p, and takes each k's left-hand side through z-degree l as l! times
one row of weighted row products: one ``series.mul_add`` call per unordered
pair of rows, the two orders' weights added.  The sums are in plain
``int``s, converted back over D^2 only to report a failure.  Its weights come
from the identity as stated, not from the solver's ``_products`` or from
``governing_residual``, so it shares only the product kernel with the code
it checks.

Constants (central binomials, profile factors f(k)) come from tables built
once per call.  The other checks keep the brute-force sums of the stated
identities, in their order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .closed_forms import HOPF_BOUNDARY, odd_weights, u_factor_q0, u_factor_q1
from .scalars import MODE_EXACT, CScalar, ModeMismatch, Record
from .series import BiSeries, mul_add
from .solver import BoundaryData, exponent_sign, solve


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
    The left-hand side is d_u^k d_z^l F at the origin, that is k! l! times the
    u^k z^l coefficient of F = s psi psi_u + u psi_u^2 + (1/2) psi_z^2.

    With p = k-i and r = i+1, C(l,j) psi_{p,l-j} psi_{r,j} is l! p! r! times
    a[p,l-j] a[r,j], so each sum over j is l! times the z^l coefficient of the
    product of the u-rows p! A_p and r! A_r, or of their z-derivatives in the
    second sum.
    Each k is then one weighted sum of row products, one per unordered pair
    p <= r: p + r = k+1 weighs (p+s) C(k, r-1), p + r = k on the derivative
    rows weighs C(k-1, r-1), and for 0 < p < r the swapped order adds its own.
    """
    if psi.mode != MODE_EXACT:
        raise ModeMismatch("coefficient identity checks require exact mode")
    s, trunc, d2 = exponent_sign(q), psi.trunc, psi._den ** 2
    # Row p as the parts of p! D A_p, from the stored numerators over the least
    # common denominator D, so each row product is D^2 times the stated one;
    # a row past the stored ones is empty.  Likewise the z-derivative rows.
    fact = [factorial(m) for m in range(trunc + 1)]
    rows = [tuple([fact[p] * v for v in part] for part in row)
            for p, row in enumerate(zip(*psi._parts))]
    rows += [([], [])] * (trunc + 1 - len(rows))
    drows = [tuple([l * v for l, v in enumerate(part) if l] for part in row) for row in rows]

    def failures():
        for k in range(1, min(kmax, trunc - 1) + 1):
            n = min(lmax, trunc - k - 1)
            acc = ([0] * (n + 1), [0] * (n + 1))
            for m, src, weight in ((k + 1, rows, lambda p, r: (p + s) * comb(k, r - 1)),
                                   (k, drows, lambda p, r: comb(k - 1, r - 1))):
                for p in range(m // 2 + 1):
                    r = m - p
                    w = weight(p, r) + weight(r, p) if 0 < p < r else weight(p, r)
                    mul_add(acc, src[p], src[r], n, w)
            for l, (x, y) in enumerate(zip(*acc)):
                if x or y:
                    lhs = CScalar.exact(Fraction(fact[l] * x, d2), Fraction(fact[l] * y, d2))
                    yield (k, l), lhs, CScalar.zero(MODE_EXACT)

    return _report(
        "series_coefficient_identity",
        f"1<=k<={kmax}, 0<=l<={lmax}, k+l+1<={psi.trunc}, q={q}",
        failures(),
    )


# -- recurrences for the one-parameter u-profiles -------------------------------


def _numerators(table: list) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm D of their denominators."""
    den = lcm(*(x.denominator for x in table))
    return [x.numerator * (den // x.denominator) for x in table], den


def check_profile_recurrence(q: int, kmax: int) -> IdentityReport:
    """The u-profile factors satisfy their defining quadratic recurrence, with
    s = 1 - 2q:

        (k+1) f(k+1) = s sum_{m=0}^k [(m+1+s)(k-m) f(m+1)f(k-m)
                                      + (2m-1)(2k-2m-1)/2 f(m)f(k-m)]

    so the weight of f(m+1)f(k-m) is m+2 for q=0 and m for q=1.  With
    f(0) = -1, checked exactly for 1 <= k <= kmax, on the table f(0..kmax+1)
    built once per call.
    """
    s = exponent_sign(q)
    factor = u_factor_q0 if s > 0 else u_factor_q1
    # f(m) = F[m] / D, so both sides below are 2 D^2 times the recurrence's.
    F, d = _numerators([factor(k) for k in range(kmax + 2)])

    def failures():
        for k in range(1, kmax + 1):
            lhs, rhs = 2 * d * (k + 1) * F[k + 1], 0
            for m in range(k + 1):
                quad = (2 * m - 1) * (2 * k - 2 * m - 1) * F[m] * F[k - m]
                rhs += s * (2 * (m + 1 + s) * (k - m) * F[m + 1] * F[k - m] + quad)
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

    with g(j) = (2j-1)! / (j-1)!^2 the ``odd_weights`` of the two-parameter
    u-row polynomial Q_k, checked exactly for 2 <= k <= kmax, with both sides
    times 2^5.
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
