"""The explicit solution families: their closed forms, and the family classes
that the ``radius`` and ``compare`` commands run.

The closed evaluators (``closed_q0``, ``closed_q1``, ``product_form_psi``) are
what ``compare`` measures the solved series against.  The one-parameter table
(``coeff_q0``, ``one_param_series``) and the Hopf polynomial (``hopf_series``)
come from closed expressions, independent of the order-by-order solver, so
the two can be tested against each other.  All k,l-indexed formulas use exact
integer factorials and binomials, then coerce to the requested scalar mode;
floating factorials are never used.

The family classes at the end are each an exponent q and boundary data, whose
series is the solver's; their exact ``u_row`` terms come from recurrences on
Gaussian integers.  The paper's other closed formulas, the q=1 table and the
two-parameter rows, have no caller here: the tests keep them, in their
``paper`` module, as the oracles of those recurrences.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, e, factorial
from typing import ClassVar

from .scalars import (MODE_EXACT, MODE_FLOAT, CScalar, DomainError, ModeMismatch, Record,
                      common_denominator, to_gaussian)
from .series import BiSeries
from .solver import BoundaryData, exponent_sign, solve


class BranchCut(ArithmeticError, DomainError):
    """A closed form was asked for a point where the branch of the series is
    ambiguous: its ratio radicand/(1+cz)^2 is a negative real number, or 1+cz = 0."""


# -- u-direction profile factors of the one-parameter families -----------------


def u_factor_q0(k: int) -> Fraction:
    """Profile factor f(k) of the q=0 family: 3^(k-1)(2k-2)! / (2^(k-1)(k+1)!(k-1)!).

    f(0) = -1 by convention, so that psi(u,0) = -sum f(k) c^(2k) u^k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Fraction(-1)
    return Fraction(
        3 ** (k - 1) * factorial(2 * k - 2),
        2 ** (k - 1) * factorial(k + 1) * factorial(k - 1),
    )


def u_factor_q1(k: int) -> Fraction:
    """Profile factor of the q=1 family: (-1)^k (2k-2)! / (2^k k!(k-1)!), f(0) = -1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Fraction(-1)
    return Fraction(
        (-1) ** k * factorial(2 * k - 2), 2**k * factorial(k) * factorial(k - 1)
    )


def _mode_factor(r: Fraction, mode: str):
    return r if mode == MODE_EXACT else float(r)


def _one_param_coeff(profile, power, c: CScalar, k: int, l: int) -> CScalar:
    """a[k,l] from the profile factor ``profile(k)`` and ``power(n)`` = c^n."""
    if k < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    if k == 0:
        if l == 0:
            return CScalar.one(c.mode)
        if l == 1:
            return c
        return CScalar.zero(c.mode)
    r = Fraction((-1) ** (l + 1) * comb(l + 2 * k - 2, l)) * profile(k)
    return power(l + 2 * k) * _mode_factor(r, c.mode)


def coeff_q0(c: CScalar, k: int, l: int) -> CScalar:
    """Series coefficient a[k,l] of the q=0 solution with data (1, c, 0, 0, ...)."""
    return _one_param_coeff(u_factor_q0, c.__pow__, c, k, l)


def one_param_series(q: int, c: CScalar, trunc: int) -> BiSeries:
    """The one-parameter family's coefficient triangle, from one c^n per n and one profile
    factor per k.  In float mode the first non-finite coefficient raises ``OverflowError``."""
    profile, table = u_factor_q0 if exponent_sign(q) > 0 else u_factor_q1, {}
    factors = [profile(k) for k in range(trunc + 1)]
    powers = [c**n for n in range(2 * trunc + 1)]
    for k in range(trunc + 1):
        for l in range(trunc + 1 - k):
            v = table[(k, l)] = _one_param_coeff(factors.__getitem__, powers.__getitem__, c, k, l)
            if c.mode == MODE_FLOAT and not cmath.isfinite(v.to_complex()):
                raise OverflowError(f"coefficient {(k, l)} overflows double precision: {v.to_complex()}")
    return BiSeries(trunc, c.mode, table)


# -- closed-form evaluators (double-precision complex) ---------------------------


def _as_complex(x) -> complex:
    if isinstance(x, CScalar):
        if x.mode != MODE_FLOAT:
            raise ModeMismatch(
                "closed-form evaluators are numeric; convert exact scalars first"
            )
        return x.to_complex()
    return complex(x)


def _series_root(a: complex, w: complex = 1) -> tuple[complex, complex]:
    """x = a / w^2 and r = sqrt(1 - x), the root on the branch of the series.

    The ratio 1 - x (radicand / w^2) is affine in u and 1 at u = 0, so the
    principal root follows the series from u = 0 unless the ratio is a
    negative real number: the path from u = 0 then runs through the branch
    point, and the branch there is ambiguous.  That case raises BranchCut, and
    so does w = 1 + cz = 0, where the u-radius is 0.  At the branch point
    itself, a ratio of exactly 0, the root is 0.
    """
    if w == 0:
        raise BranchCut("1 + cz = 0: the series has u-radius 0 at this height")
    x = a / (w * w)
    ratio = 1 - x
    if ratio.imag == 0.0 and ratio.real < 0.0:
        raise BranchCut(f"the ratio {ratio} = radicand/(1+cz)^2 lies on the negative real axis")
    return x, cmath.sqrt(ratio)


def closed_q0(c, u, z) -> complex:
    """Closed form of the q=0 family, with w = 1+cz,

        (2/3)w - (w^2 - 6c^2 u)^(3/2) / (27 c^2 u) + w^3 / (27 c^2 u),

    evaluated as w (1 - x (1+2r) / (9 (1+r)^2)) with x = 6c^2 u / w^2 and
    r = sqrt(1 - x), since w^3 - w^3 r^3 = w^3 x (1+r+r^2) / (1+r): nothing
    cancels near the removable singularity u = 0, where the value is w.
    """
    c, u, z = _as_complex(c), _as_complex(u), _as_complex(z)
    w = 1 + c * z
    x, r = _series_root(6 * c * c * u, w)
    return w * (1 - x * (1 + 2 * r) / (9 * (1 + r) ** 2))


def closed_q1(c, u, z) -> complex:
    """Closed form of the q=1 family, normalized to twice the unit-value series:

        w (1 + sqrt(1 + 2 c^2 u / w^2))  =  2 * sum a[k,l] u^k z^l,  w = 1+cz.
    """
    c, u, z = _as_complex(c), _as_complex(u), _as_complex(z)
    w = 1 + c * z
    _, r = _series_root(-2 * c * c * u, w)
    return w * (1 + r)


def product_form_psi(b, c, u, z) -> complex:
    """Product-form solution b * e^(cz) * e^s / (1 + s) with s = sqrt(1 - 2 c^2 u),
    which satisfies the q=0 governing equation (verified numerically in the tests)."""
    b, c, u, z = _as_complex(b), _as_complex(c), _as_complex(u), _as_complex(z)
    _, s = _series_root(2 * c * c * u)
    return b * cmath.exp(c * z) * cmath.exp(s) / (1 + s)


# -- the Hopf solution -----------------------------------------------------------


def hopf_series(trunc: int = 6, mode: str = MODE_EXACT) -> BiSeries:
    if trunc < 2:
        raise ValueError("the Hopf polynomial has total degree 2")
    return BiSeries(
        trunc,
        mode,
        {
            (0, 0): CScalar.one(mode),
            (0, 1): CScalar(0, -2, mode),
            (0, 2): CScalar(-1, 0, mode),
            (1, 0): CScalar(-2, 0, mode),
        },
    )


HOPF_BOUNDARY = (CScalar.exact(1), CScalar.exact(0, -2), CScalar.exact(-2))


# -- two-parameter family (data 1, alpha+beta, 2*alpha*beta): its odd weights ------


def odd_weights(n: int) -> list[int]:
    """[g(1), ..., g(n)] with g(j) = (2j-1)! / (j-1)!^2 = (2j-1) C(2j-2, j-1),
    from g(1) = 1 and g(j+1) = 2(2j+1) g(j) / j."""
    g = [1]
    for j in range(1, n):
        g.append(2 * (2 * j + 1) * g[-1] // j)
    return g[:n]


# -- solution families ----------------------------------------------------------


def _dyadic(*ws: complex) -> tuple[int, list[tuple[int, int]]]:
    """The floats ws read exactly, as Gaussian integers (p, q) over one power
    of two d, w = (p + iq)/d: returns d and the pairs."""
    values = [CScalar(Fraction(w.real), Fraction(w.imag), MODE_EXACT) for w in ws]
    d = common_denominator(values)
    return d, list(zip(*to_gaussian(values, d)))


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _over(x: tuple[int, int], num: int, den: int) -> CScalar:
    """The exact scalar x * num / den for a Gaussian integer x."""
    return CScalar(Fraction(num * x[0], den), Fraction(num * x[1], den), MODE_EXACT)


class Family(Record):
    """A solution family, registered in FAMILIES under its ``name``.

    Subclasses are records whose ``_fields`` are the family's complex
    parameters: the keys of its JSON descriptor and the CLI options that set
    them.  A family is its exponent ``q`` and ``data(n)``: psi_z^(l)(0,0), l <= n,
    of its closed form (two_param: of its profile) as complex numbers, zeros
    after a shorter list; ``series`` solves through them.  Other methods, if defined:

    - ``u_row(n)``, ``radius_bound(z)``: the exact u-row a[0..n-1, 0] at the
      parameters read as the dyadic rationals they are, and its analytic radius
      of convergence at height z (None: a polynomial u-row);
    - ``closed(u, z)``: the closed form, which ``series`` matches.
    """

    __slots__ = ()
    _defaults: ClassVar[dict] = {}  # the optional parameters and their defaults
    name: ClassVar[str]
    q: ClassVar[int]

    def series(self, order: int) -> BiSeries:
        """The float solution through ``data``, psi and psi_z even at order 0."""
        data = []
        try:
            for v in self.data(max(order, 1)):
                if not cmath.isfinite(v):
                    raise OverflowError(v)
                data.append(CScalar.from_complex(v))
        except OverflowError as exc:
            raise OverflowError(f"the {self.name} family's boundary data entry {len(data)} "
                                f"leaves double range: {exc}") from None
        return solve(BoundaryData(self.q, data), order)


class OneParamFamily(Family):
    """The profile 1 + cz, up to its closed form's scale.  A subclass fixes q."""

    __slots__ = _fields = ("c",)

    def __init__(self, c: complex):
        if c == 0:
            raise ValueError("one-parameter family needs c != 0")
        self._set("c", c)

    def u_row(self, n: int) -> list[CScalar]:
        """a[k,0] = -f(k) c^(2k) (see ``coeff_q0``), with one Gaussian-integer
        product per term for the power of c^2 = (p + iq)/d^2, and
        f(k+1) = f(k) m (2k-1)/(k+2-q), f(1) = m/|2m| (m = 1 + 2s: 3 for q=0, -1 for q=1)."""
        d, [c] = _dyadic(self.c)
        c2, d2, m = _gmul(c, c), d * d, 1 + 2 * exponent_sign(self.q)
        row, f, power, den = [CScalar.one(MODE_EXACT)], Fraction(m, abs(2 * m)), c2, d2
        for k in range(1, n):
            row.append(_over(power, -f.numerator, f.denominator * den))
            f *= Fraction(m * (2 * k - 1), k + 2 - self.q)
            power, den = _gmul(power, c2), den * d2
        return row[:n]

    def radius_bound(self, z: complex = 0j) -> float:
        """|u| where the closed form's radicand (1+cz)^2 - (4s+2) c^2 u vanishes."""
        # r before its square: a bound past double range reads 0.0 or inf
        r = abs(1 + self.c * complex(z)) / abs(self.c)
        return r * r / abs(4 * exponent_sign(self.q) + 2)


class Q0Family(OneParamFamily):
    __slots__, name, q = (), "q0", 0

    def data(self, n: int) -> tuple[complex, ...]:
        return 1, self.c

    def closed(self, u, z) -> complex:
        return closed_q0(self.c, u, z)


class Q1Family(OneParamFamily):
    __slots__, name, q = (), "q1", 1

    def data(self, n: int) -> tuple[complex, ...]:
        return 2, 2 * self.c  # closed_q1 is twice the series through (1, c)

    def closed(self, u, z) -> complex:
        return closed_q1(self.c, u, z)


class TwoParamFamily(Family):
    __slots__ = _fields = ("alpha", "beta")
    name, q = "two_param", 1

    def __init__(self, alpha: complex, beta: complex):
        if alpha + beta == 0:
            raise ValueError("two-parameter family needs alpha + beta != 0")
        self._set("alpha", alpha)
        self._set("beta", beta)

    def data(self, n: int) -> tuple[complex, ...]:
        return 1, self.alpha + self.beta, 2 * self.alpha * self.beta

    def u_row(self, n: int) -> list[CScalar]:
        """a[k,0] = -(alpha^2-beta^2)^2 s_{k-2} / (2k(k-1)) for k >= 2, with s_m
        the t^m coefficient of ((1+2 alpha^2 t)(1+2 beta^2 t))^(-3/2); the paper's
        a[k,0] through Q_k is the tests' oracle.  That series is D-finite
        (Stanley 1980): with alpha = A/d, beta = B/d, the Gaussian integers G_m = 2^m m! d^(2m) s_m
        obey G_{m+1} = (2m+3) S G_m - 16m(m+2) P G_{m-1}, S = -2(A^2+B^2),
        P = A^2 B^2, and a[k,0] = -(A^2-B^2)^2 G_{k-2} / (2^(k-1) k! d^(2k))."""
        d, (a, b) = _dyadic(self.alpha, self.beta)
        a2, b2, d2 = _gmul(a, a), _gmul(b, b), d * d
        s, p = (-2 * (a2[0] + b2[0]), -2 * (a2[1] + b2[1])), _gmul(a2, b2)
        diff, total = (a2[0] - b2[0], a2[1] - b2[1]), (a[0] + b[0], a[1] + b[1])
        w = _gmul(diff, diff)
        row = [CScalar.one(MODE_EXACT), _over(_gmul(total, total), 1, 2 * d2)]
        g_prev, g, den = (0, 0), (1, 0), d2
        for m in range(n - 2):
            den *= 2 * (m + 2) * d2
            row.append(_over(_gmul(w, g), -1, den))
            c1, c2 = 2 * m + 3, 16 * m * (m + 2)
            g_prev, g = g, tuple(c1 * x - c2 * y for x, y in zip(_gmul(s, g), _gmul(p, g_prev)))
        return row[:n]

    def radius_bound(self, z: complex = 0j) -> float | None:
        """1/(2 mu^2), mu = max(|alpha|, |beta|): a z=0 statement, sufficient,
        not sharp.  None for alpha = beta, whose u-row is a polynomial."""
        if self.alpha == self.beta:
            return None
        r = 1.0 / max(abs(self.alpha), abs(self.beta))
        return r * r / 2.0


class HopfFamily(Family):
    __slots__ = _fields = ()
    name, q = "hopf", 1

    def data(self, n: int) -> list[complex]:
        return [v.to_complex() for v in HOPF_BOUNDARY]

    def u_row(self, n: int) -> list[CScalar]:
        return [CScalar.exact(1), CScalar.exact(-2)][:n] + [CScalar.zero(MODE_EXACT)] * (n - 2)

    def radius_bound(self, z: complex = 0j) -> None:
        return None

    def closed(self, u, z) -> complex:
        return 1 - 2 * u - z * z - 2j * z


class ProductFamily(Family):
    __slots__ = _fields = ("c", "b")
    _defaults = {"b": 1 + 0j}
    name, q = "product", 0

    def __init__(self, c: complex, b: complex = _defaults["b"]):
        if b == 0 or c == 0:
            raise ValueError("product family needs b != 0 and c != 0")
        self._set("c", c)
        self._set("b", b)

    def radius_bound(self, z: complex = 0j) -> float:
        # branch point of sqrt(1 - 2c^2 u)
        r = 1.0 / abs(self.c)
        return r * r / 2.0

    def data(self, n: int):  # lazy, so that series names an entry that overflows
        return (self.b * (e / 2) * self.c**l for l in range(n + 1))

    def closed(self, u, z) -> complex:
        return product_form_psi(self.b, self.c, u, z)


FAMILIES = {
    cls.name: cls
    for cls in (Q0Family, Q1Family, TwoParamFamily, HopfFamily, ProductFamily)
}


def _pair_to_complex(key: str, v) -> complex:
    """A descriptor value as a complex number: a JSON array of two numbers,
    each an int or a float (no bool, no string), whose value is finite."""
    if type(v) is list and len(v) == 2 and all(type(x) in (int, float) for x in v):
        try:
            value = complex(float(v[0]), float(v[1]))
            if cmath.isfinite(value):
                return value
        except OverflowError:  # an int beyond double range
            pass
    raise ValueError(f"parameter {key!r} must be a finite pair [re, im], got {v!r}")


def parse_family(d: dict, parse=_pair_to_complex) -> Family:
    """Build a family from its descriptor ``{"family": name, parameter: value,
    ...}``, a JSON document or the CLI's options; ``parse(key, value)`` turns
    each value into a complex number once all keys check out."""
    try:
        name = d["family"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family descriptor: {exc}") from exc
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}: choose from {', '.join(FAMILIES)}")
    cls = FAMILIES[name]
    values = {k: v for k, v in d.items() if k != "family"}
    for key in values:
        if key not in cls._fields:
            raise ValueError(f"the {name} family takes no parameter {key!r}")
    for field in cls._fields:
        if field not in values and field not in cls._defaults:
            raise ValueError(f"the {name} family needs parameter {field!r}")
    return cls(**{key: parse(key, value) for key, value in values.items()})
