"""Construction of semi-conformal maps phi = (x+iy) * u^(-q) * psi(u, z).

With u = (x^2+y^2)/2, such a map is semi-conformal iff psi solves the
first-order equation

    s * psi * psi_u + u * psi_u^2 + (1/2) * psi_z^2 = 0,

where s = 1 - 2q (``exponent_sign``): +1 for q = 0 and -1 for q = 1 (no
other exponent admits a solution with psi(0,0) != 0).  Write
psi = sum_k A_k(z) u^k; the z-derivative values psi(0,0), psi_z(0,0),
psi_zz(0,0), ... at the origin give row A_0 (entry l divided by l!).  The u^k
coefficient of the equation is s*(k+1)*A_0*A_{k+1} + R_k, with R_k a sum of
truncated products of the rows A_1..A_k and the z-derivatives A_0'..A_k', so
each new row follows from R_k by one forward substitution against A_0.

The equation is homogeneous of degree 2 in psi, so the sweep solves for
psi/psi(0,0), whose A_0 is monic: row k+1's pivot is s*(k+1), not a datum,
and ``solve`` scales the result back by psi(0,0) (``BiSeries.scaled``).  One
sweep (``_rows``) serves both rings: one enumeration of the weighted row pairs
(``_products``) feeds the parts kernel ``series.mul_add``.  A float row is one
``complex`` part, and a float product is one ``mul_trunc`` call, which fills
from ``0j``.  An exact row is Gaussian-integer numerators over its own
denominator D_k, and an exact product is one pass with the weight folded into
the left row's entries and four ``int`` products per term.  R_k is summed over
the lcm of the pair denominators, the forward substitution runs in integers,
and each row is reduced by one gcd.
The rows become the series' storage as they are, exact ones brought to the
lcm of the D_k, so ``solve`` builds no ``Fraction`` or ``CScalar`` per
coefficient.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import dropwhile, zip_longest
from operator import not_

from .scalars import (
    MODE_EXACT,
    MODE_FLOAT,
    CScalar,
    DomainError,
    ModeMismatch,
    Record,
    common_denominator,
    json_int,
    scalar_from_pair,
    to_gaussian,
)
from .series import BiSeries, eval_rows, mul_add


class DegenerateData(ValueError, DomainError):
    """Boundary data with psi(0,0) = 0 or psi_z(0,0) = 0 is refused."""


class OnAxis(ValueError, DomainError):
    """The map with q = 1 has a genuine singularity along the z-axis."""


def exponent_sign(q) -> int:
    """The sign s = 1 - 2q through which the exponent q enters the governing
    equation; any q but the int 0 or 1 (a bool or a float included) is refused."""
    if type(q) is not int or not 0 <= q <= 1:
        raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
    return 1 - 2 * q


class Point3(Record):
    """A point of 3-space with finite float coordinates."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        # Any non-finite float makes the sum non-finite, so three floats with
        # a finite sum pass at once; anything else (an int, a sum that
        # overflows) takes the loop, which names the first bad coordinate.
        if not (type(x) is type(y) is type(z) is float and math.isfinite(x + y + z)):
            for name, v in zip("xyz", (x, y, z)):
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValueError(f"non-finite coordinate {name}={v!r}")
        self._set("x", x)
        self._set("y", y)
        self._set("z", z)


class BoundaryData(Record):
    """Free Taylor data of a solution: q plus psi(0,0), psi_z(0,0), psi_zz(0,0), ...

    The entries are derivative values (not series coefficients); entry l is
    the l-th z-derivative of psi at the origin.  The first two entries must be
    nonzero and every entry finite; the construction refuses data outside
    that regime rather than guessing an extension.
    """

    __slots__ = _fields = ("q", "data")

    def __init__(self, q: int, data: tuple[CScalar, ...]):
        exponent_sign(q)
        data = tuple(data)
        if len(data) < 2:
            raise DegenerateData("need at least the value and first z-derivative")
        for l, v in enumerate(data):
            if not isinstance(v, CScalar):
                raise TypeError("boundary data entries must be CScalar")
            if v.mode != data[0].mode:
                raise ModeMismatch("boundary data mixes scalar modes")
            if v.mode == MODE_FLOAT and not cmath.isfinite(v.to_complex()):
                raise ValueError(f"non-finite boundary data entry {l}: {v.to_complex()}")
        if data[0].is_zero():
            raise DegenerateData("psi(0,0) must be nonzero")
        if data[1].is_zero():
            raise DegenerateData("psi_z(0,0) must be nonzero")
        self._set("q", q)
        self._set("data", data)

    @property
    def mode(self) -> str:
        return self.data[0].mode


class AnsatzMap(Record):
    """phi = (x+iy) * u^(-q) * psi.

    The series certifies the map only where it converges, which the map does
    not check: it evaluates at every point off the q = 1 axis.
    A psi with a low truncation bound still evaluates phi; only a residual
    that needs a missing derivative refuses it.  When the map is built, psi's
    u-rows A_k and z-columns B_l are stored once as floats split into
    (re, im) pairs (``_split``; an exact psi is converted once), and points
    evaluate them at real arguments (``_real_values``): the values equal
    complex Horner's, up to the sign of an exact zero.
    """

    __slots__ = ("q", "psi", "_rows", "_cols")
    _fields = __slots__[:2]

    def __init__(self, q: int, psi: BiSeries):
        exponent_sign(q)
        self._set("q", q)
        self._set("psi", psi)
        rows = psi.to_floating()._parts[0]
        self._set("_rows", _split(rows))
        self._set("_cols", _split(zip_longest(*rows, fillvalue=0j)))


def _split(rows) -> list:
    """Each row of ``complex`` entries as (re, im, rest): the parts of its
    highest nonzero entry, where Horner starts, and the (re, im) pairs of
    the entries below it, highest degree first.  A column of the u-rows
    loses its zeros above that entry, as ``BiSeries.transposed`` cuts it; a
    row of zeros is (0.0, 0.0, [])."""
    out = []
    for row in rows:
        pairs = [(v.real, v.imag) for v in dropwhile(not_, reversed(row))] or [(0.0, 0.0)]
        out.append((*pairs[0], pairs[1:]))
    return out


def _real_values(rows: list, t: float) -> list[complex]:
    """The value at a real t of each ``_split`` row, by Horner on its real
    and imaginary parts.  Horner at ``complex(t)`` adds the products with
    t's zero imaginary part, which are zeros when finite, so the two agree
    under ``==``, up to the sign of an exact zero; both are non-finite alike."""
    values = []
    for re, im, rest in rows:
        for a, b in rest:
            re = re * t + a
            im = im * t + b
        values.append(complex(re, im))
    return values


def solve(bd: BoundaryData, order: int) -> BiSeries:
    """Compute the unique series solution through the given boundary data.

    Returns psi with every coefficient of total degree <= order, such that the
    governing residual vanishes through total degree order-1 and row k=0
    equals the supplied data (entry l divided by l!).  Data shorter than
    order+1 is padded with zeros; extra entries are ignored.  In floating mode
    a row-0 entry data[l]/(psi(0,0)*l!) or a coefficient outside double range
    raises ``OverflowError``.
    """
    if type(order) is not int or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    s = exponent_sign(bd.q)
    a00 = bd.data[0]
    row0 = [_monic_entry(v, a00, l, order) for l, v in enumerate(bd.data[: order + 1])]
    row0 += [CScalar.zero(bd.mode)] * (order + 1 - len(row0))
    parts, den = _rows(row0, s, order)
    return BiSeries._from_parts(order, bd.mode, parts, den).scaled(a00)


def _monic_entry(v: CScalar, a00: CScalar, l: int, order: int) -> CScalar:
    """Row-0 entry l of psi/psi(0,0): v / a00 / l!, as a00 * l! may leave double
    range.  A float quotient that leaves it on the way (v / a00 overflows, or
    l! >= 171! has no float) is instead the correctly rounded quotient of the
    float parts read as dyadic rationals; an entry that is itself outside
    double range raises ``OverflowError``."""
    try:
        w = v / a00 / math.factorial(l)
        if v.mode == MODE_EXACT or cmath.isfinite(w.to_complex()):
            return w
    except OverflowError:
        pass
    vr, vi, ar, ai = (Fraction(x) for x in (v.re, v.im, a00.re, a00.im))
    den = (ar * ar + ai * ai) * math.factorial(l)
    try:  # Fraction to float is one correctly rounded int true division
        return CScalar(float((vr * ar + vi * ai) / den), float((vi * ar - vr * ai) / den), MODE_FLOAT)
    except OverflowError:
        raise OverflowError(f"u-row 0 overflows double precision at order {order}") from None


def _products(s: int, k: int):
    """The truncated products whose weighted sum is 2*R_k: (w, i, j, d) for
    weight w times the product of rows i and j, of the z-derivative rows when
    d is true.  Rows i and k+1-i pair with weight s(k+1) + 2ij (from
    s*psi*psi_u + u*psi_u^2), the z-derivative rows i and k-i with weight 1
    (from psi_z^2 / 2); off-diagonal pairs count twice."""
    c = s * (k + 1)
    for i in range(1, (k + 1) // 2 + 1):
        j = k + 1 - i
        yield (2 * (c + 2 * i * j) if i < j else c + 2 * i * j), i, j, False
    for i in range(k // 2 + 1):
        j = k - i
        yield (2 if i < j else 1), i, j, True


def _rows(row0: list[CScalar], s: int, order: int) -> tuple[list, int]:
    """The rows A_0..A_order for a monic A_0, as ``BiSeries`` parts over a
    denominator: ``[rows]`` of ``complex`` over 1, or ``[re, im]`` of ``int``s
    over the lcm of the row denominators D_k (all 1 in float).  The float
    sweep stops after the first row outside double range, which the series
    built from the rows so far then refuses.

    With A_0 = alpha / D_0, alpha_0 = D_0 and the pivot is 1.  If
    2*R_k = acc / E, the exact forward substitution
    A_{k+1}[l] = -acc[l] / (2cE) - sum_m (alpha_m / D_0) A_{k+1}[l-m]
    holds for A_{k+1}[l] = y_l / (2cE D_0^l) with
    y_l = -acc[l] D_0^l - sum_m alpha_m D_0^(m-1) y_{l-m}, in integers.
    """
    exact = row0[0].mode == MODE_EXACT
    den0 = common_denominator(row0) if exact else 1
    first = tuple(to_gaussian(row0, den0)) if exact else ([v.to_complex() for v in row0],)
    # Entry m of the tail as alpha_m D_0^(m-1).  A float entry is never
    # multiplied by the int 1, which would turn a -0.0 into 0.0.
    tail = [(m, vs if den0 == 1 else [v * den0 ** (m - 1) for v in vs])
            for m, vs in enumerate(zip(*first)) if m and any(vs)]
    dens, rows, drows = [den0], [first], []
    for k in range(order):
        drows.append(tuple([l * v for l, v in enumerate(part) if l] for part in rows[k]))
        n = order - k - 1
        pivot = 2 * s * (k + 1)
        products = list(_products(s, k))
        # 2*R_k over the lcm E of the pair denominators, which float skips.
        e = math.lcm(*(dens[i] * dens[j] for _, i, j, _ in products)) if exact else 1
        acc = [[0 if exact else 0j] * (n + 1) for _ in first]
        for w, i, j, d in products:
            src = drows if d else rows
            mul_add(acc, src[i], src[j], n, w if e == 1 else w * (e // (dens[i] * dens[j])))

        # pivot * A_0 * A_{k+1} = -acc: forward substitution against A_0.
        if exact:
            (acc_re, acc_im), y_re, y_im, dpow = acc, [], [], 1
            for l in range(n + 1):
                t_re, t_im = -acc_re[l] * dpow, -acc_im[l] * dpow
                for m, (a_re, a_im) in tail:
                    if m > l:
                        break
                    x, y = y_re[l - m], y_im[l - m]
                    t_re -= a_re * x - a_im * y
                    t_im -= a_re * y + a_im * x
                y_re.append(t_re)
                y_im.append(t_im)
                dpow *= den0
            # Over the common denominator pivot*E*D_0^n, reduced by one gcd
            # that takes the sign of the pivot, s.
            den = pivot * e * den0 ** n
            re, im = ([v * den0 ** (n - l) for l, v in enumerate(y)] for y in (y_re, y_im))
            g = s * math.gcd(den, *re, *im)
            dens.append(den // g)
            rows.append(([v // g for v in re], [v // g for v in im]))
        else:
            scaled = [(m, pivot * v) for m, (v,) in tail if m <= n]
            row = []
            for l in range(n + 1):
                t = acc[0][l]
                for m, v in scaled:
                    if m > l:
                        break
                    t = t + v * row[l - m]
                row.append(-t / pivot)
            dens.append(1)
            rows.append((row,))
            if not all(map(cmath.isfinite, row)):
                break
    # Every row over the lcm of the D_k; a row already over it is kept as it
    # is (a float row meets no multiplication).
    den = math.lcm(*dens)
    return [[part if dk == den else [v * (den // dk) for v in part] for dk, part in zip(dens, col)]
            for col in zip(*rows)], den


def governing_residual(psi: BiSeries, q: int) -> BiSeries:
    """s*psi*psi_u + u*psi_u^2 + (1/2)*psi_z^2, truncated to total degree trunc-1.
    A float result outside double range raises ``OverflowError``.

    Twice the residual is s*d/du(psi^2) + 2u*psi_u^2 + psi_z^2, which is one
    pass over the unordered pairs i <= j of psi's rows A_k: the pair
    contributes (s(i+j) + 2ij)*A_i*A_j to row i+j-1 (z-degree <= trunc-i-j)
    and A_i'*A_j' to row i+j, each twice when i < j.  The weights come from
    the three terms here, not from the solver's ``_products``, so the check
    shares only the product kernel with the sweep it checks.  An exact psi
    over D gives the numerators of the result over 2*D^2; a float one is halved.
    """
    s = exponent_sign(q)
    if psi.trunc < 2:
        raise ValueError("residual needs truncation bound >= 2")
    n, exact = psi.trunc, psi.mode == MODE_EXACT
    # Row k as its parts, (A_k,) or (re, im), and likewise A_k'.
    rows = list(zip(*psi._parts))
    drows = [tuple([l * v for l, v in enumerate(part) if l] for part in row) for row in rows]
    out = [[[0 if exact else 0j] * (n - m) for m in range(n)] for _ in psi._parts]
    acc = list(zip(*out))  # row m of every part, within its bound n-1-m
    for i, a in enumerate(rows):
        for j in range(i, min(n - i, len(rows) - 1) + 1):
            # (0, 0), and (1, 1) when q = 1, weigh 0, and the kernel returns
            # at once on a zero weight: (0, 0)'s row index -1 is never written.
            w = s * (i + j) + 2 * i * j
            mul_add(acc[i + j - 1], a, rows[j], n - i - j, w if i == j else 2 * w)
        for j in range(i, min(n - 1 - i, len(rows) - 1) + 1):
            mul_add(acc[i + j], drows[i], drows[j], n - 1 - i - j, 1 if i == j else 2)
    if exact:
        return BiSeries._from_parts(n - 1, MODE_EXACT, out, 2 * psi._den ** 2)
    return BiSeries._from_parts(n - 1, MODE_FLOAT, [[[0.5 * v for v in row] for row in out[0]]])


# -- pointwise evaluation ----------------------------------------------------


def _u_off_axis(q: int, x: float, y: float) -> float:
    """u = (x^2 + y^2)/2, refusing the z-axis when q = 1."""
    u = 0.5 * (x * x + y * y)
    if q == 1 and u == 0.0:
        raise OnAxis("phi is singular on the z-axis for q = 1")
    return u


def _phi(q: int, x: float, y: float, values: list[complex]) -> complex:
    """phi at (x, y, z) from psi's row values A_k(z)."""
    u = _u_off_axis(q, x, y)
    psi_val = eval_rows(values, complex(u))
    w = complex(x, y)
    return w * psi_val if q == 0 else w * psi_val / u


def eval_phi(amap: AnsatzMap, p: Point3) -> CScalar:
    """Evaluate phi at a point off the q = 1 axis; floating result.

    One pass over psi's ``_split`` rows, from the last u-row down to row 0:
    each row's Horner in z runs on its (re, im) parts, as in
    ``_real_values``, and the finished parts go straight into Horner in u on
    two float accumulators that start at 0.0.  No row value and no
    ``complex`` is formed before psi itself.  The result equals
    ``_phi(q, x, y, _real_values(rows, z))`` under ``==``: Horner at
    ``complex(u)`` adds products with u's zero imaginary part, which are
    zeros when finite, so the two differ at most in the sign of an exact zero,
    and both are non-finite alike."""
    q, x, y, z = amap.q, p.x, p.y, p.z
    u = _u_off_axis(q, x, y)
    pr = pi = 0.0
    for re, im, rest in reversed(amap._rows):
        for a, b in rest:
            re = re * z + a
            im = im * z + b
        pr = pr * u + re
        pi = pi * u + im
    w = complex(x, y)
    psi_val = complex(pr, pi)
    return CScalar.from_complex(w * psi_val if q == 0 else w * psi_val / u)


class SemiConformalityResidual(Record):
    """|phi_x^2 + phi_y^2 + phi_z^2| from the separated identity (analytic)
    and from central finite differences of phi; the two must agree to O(h^2)."""

    __slots__ = _fields = ("analytic", "finite_difference")

    def __init__(self, analytic: float, finite_difference: float):
        self._set("analytic", analytic)
        self._set("finite_difference", finite_difference)

    @property
    def gap(self) -> float:
        return abs(self.analytic - self.finite_difference)


def _derivatives(coeffs: list[complex], t: complex) -> tuple[complex, complex, complex]:
    """(f, f', f'') at t of f = sum_i coeffs[i] t^i, from one Horner pass with
    derivatives (Knuth, TAOCP 2, 4.6.4); f is ``eval_rows``'s on the same
    values, so psi from ``_real_values``'s rows equals complex Horner in z
    then u, up to the sign of an exact zero."""
    v0 = v1 = v2 = 0j
    for a in reversed(coeffs):
        v2, v1, v0 = v2 * t + v1, v1 * t + v0, v0 * t + a
    return v0, v1, 2 * v2


def _jet(amap: AnsatzMap, p: Point3, order: int):
    """(u, A_k(z), B_l(u), (psi, psi_u, psi_uu, psi_z, psi_zz)) at a point off
    the q = 1 axis, from two order-N passes at real arguments: the row values
    A_k(z) of psi and the column values B_l(u) = sum_k a[k,l] u^k.
    One O(N) pass in u over the A_k gives psi, psi_u and psi_uu, one in z over
    the B_l gives psi_z and psi_zz.  Derivatives up to ``order`` must exist."""
    u, z = _u_off_axis(amap.q, p.x, p.y), p.z
    if amap.psi.trunc < order:
        raise ValueError(f"residual needs order-{order} derivatives: "
                         "cannot differentiate below truncation bound 1")
    rows, cols = _real_values(amap._rows, z), _real_values(amap._cols, u)
    pv, puv, puuv = _derivatives(rows, complex(u))
    _, pzv, pzzv = _derivatives(cols, complex(z))
    return u, rows, cols, (pv, puv, puuv, pzv, pzzv)


def _semiconformality(amap: AnsatzMap, p: Point3, h: float, jet) -> SemiConformalityResidual:
    u, rows, cols, (pv, puv, _, pzv, _) = jet
    governing = exponent_sign(amap.q) * pv * puv + u * puv * puv + 0.5 * pzv * pzv
    w = complex(p.x, p.y)
    scale = w * w if amap.q == 0 else w * w / (u * u)
    analytic = abs(2.0 * scale * governing)

    # The x and y samples keep z, so they sum the row values A_k(z) in u; the
    # z samples keep u, so they sum the column values B_l(u) in z.  Each is an
    # O(N) pass of plain values, which the derivative recurrences never see.
    q, x, y = amap.q, p.x, p.y
    try:
        dx = (_phi(q, x + h, y, rows) - _phi(q, x - h, y, rows)) / (2 * h)
        dy = (_phi(q, x, y + h, rows) - _phi(q, x, y - h, rows)) / (2 * h)
    except OnAxis:
        # The point itself is off the axis (``_jet`` checked it); a sample is not.
        raise OnAxis(f"the finite-difference step h = {h} from (x, y, z) = ({x}, {y}, {p.z}) "
                     "reaches the z-axis, where phi is singular for q = 1") from None
    up, down = (w * eval_rows(cols, complex(p.z + t)) for t in (h, -h))
    dz = (up - down) / (2 * h) if q == 0 else (up / u - down / u) / (2 * h)
    fd = abs(dx * dx + dy * dy + dz * dz)
    return SemiConformalityResidual(analytic=analytic, finite_difference=fd)


def _harmonicity(q: int, jet) -> float:
    u, _, _, (pv, puv, puuv, _, pzzv) = jet
    return abs(q * (q - 1) * pv - 2 * (q - 1) * u * puv + u * u * puuv + 0.5 * u * pzzv)


def semiconformality_residual(
    amap: AnsatzMap, p: Point3, h: float = 1e-5
) -> SemiConformalityResidual:
    """Semi-conformality defect of the (truncated) map at a point.

    Analytically, phi_x^2 + phi_y^2 + phi_z^2 equals
    2*(x+iy)^2 * u^(-2q-1) * {q(q-1)psi^2 + u(1-2q)psi*psi_u + u^2 psi_u^2
    + (1/2) u psi_z^2}; for q in {0,1} the bracket is u times the governing
    expression, which cancels one power of u and keeps q = 0 regular on the
    axis.  The finite-difference value differentiates phi directly.
    """
    return _semiconformality(amap, p, h, _jet(amap, p, 1))


def harmonicity_residual(amap: AnsatzMap, p: Point3) -> float:
    """|q(q-1)psi - 2(q-1)u psi_u + u^2 psi_uu + (1/2) u psi_zz| at the point.

    phi is harmonic exactly where this vanishes; semi-conformality alone does
    not imply it.
    """
    return _harmonicity(amap.q, _jet(amap, p, 2))


def point_residuals(
    amap: AnsatzMap, p: Point3, h: float = 1e-5
) -> tuple[SemiConformalityResidual, float]:
    """``semiconformality_residual`` and ``harmonicity_residual`` at a point
    from one jet: one pass over psi's rows and one over its columns."""
    jet = _jet(amap, p, 2)
    return _semiconformality(amap, p, h, jet), _harmonicity(amap.q, jet)


# -- file formats --------------------------------------------------------------


def boundary_data_from_dict(d: dict, mode: str) -> tuple[BoundaryData, int]:
    try:
        q = json_int(d["q"], "'q'")
        order = json_int(d["order"], "'order'")
        raw = d["data"]
        data = tuple(scalar_from_pair(re_s, im_s, mode) for re_s, im_s in raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed boundary data document: {exc}") from exc
    # BoundaryData construction is outside the net above so that
    # DegenerateData keeps its identity (domain error, not a parse error).
    return BoundaryData(q=q, data=data), order
