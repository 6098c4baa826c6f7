"""Construction of semi-conformal maps phi = (x+iy) * u^(-q) * psi(u, z).

With u = (x^2+y^2)/2, such a map is semi-conformal iff psi solves the
first-order equation

    s * psi * psi_u + u * psi_u^2 + (1/2) * psi_z^2 = 0,

where s = +1 for q = 0 and s = -1 for q = 1 (no other exponent admits a
solution with psi(0,0) != 0).  Write psi = sum_k A_k(z) u^k; the z-derivative
values psi(0,0), psi_z(0,0), psi_zz(0,0), ... at the origin give row A_0
(entry l divided by l!).  The u^k coefficient of the equation is
s*(k+1)*A_0*A_{k+1} + R_k, with R_k a sum of truncated products of the rows
A_1..A_k and the z-derivatives A_0'..A_k', so each new row follows from R_k
by one forward substitution against A_0.

The equation is homogeneous of degree 2 in psi, so both sweeps solve for
psi/psi(0,0), whose A_0 is monic: row k+1's pivot is s*(k+1), not a datum,
and ``solve`` scales the result back by psi(0,0) (``BiSeries.scaled``).  One
enumeration of the weighted row pairs (``_products``) drives both sweeps.
The floating sweep runs on ``complex`` rows.  The exact sweep keeps each row
as Gaussian-integer numerators over its own denominator D_k: R_k is summed
over the lcm of the pair denominators, the forward substitution runs in
integers, and each row is reduced by one gcd.  The rows become the series'
storage as they are, exact ones brought to the lcm of the D_k, so ``solve``
builds no ``Fraction`` or ``CScalar`` per coefficient.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import add

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
    scalar_to_pair,
    to_gaussian,
)
from .series import BiSeries, eval_rows, mul_trunc, mul_trunc_gaussian


class DegenerateData(ValueError, DomainError):
    """Boundary data with psi(0,0) = 0 or psi_z(0,0) = 0 is refused."""


class OnAxis(ValueError, DomainError):
    """The map with q = 1 has a genuine singularity along the z-axis."""


class OutOfDomain(ValueError, DomainError):
    """Evaluation point left the configured convergence region."""


class Point3(Record):
    """A point of 3-space with finite float coordinates."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
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
        if q not in (0, 1):
            raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
        data = tuple(data)
        if len(data) < 2:
            raise DegenerateData("need at least the value and first z-derivative")
        mode = data[0].mode
        for l, v in enumerate(data):
            if not isinstance(v, CScalar):
                raise TypeError("boundary data entries must be CScalar")
            if v.mode != mode:
                raise ModeMismatch("boundary data mixes scalar modes")
            if mode == MODE_FLOAT and not cmath.isfinite(v.to_complex()):
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
    """phi = (x+iy) * u^(-q) * psi packaged with an optional evaluation region.

    The region (u_max, z_max) is a user input: the series only certifies the
    map where it converges, and no sharp joint (u, z) domain is available.
    A psi with a low truncation bound still evaluates phi; only a residual
    that needs a missing derivative refuses it.  An exact psi is converted to
    floats once, when the map is built, and transposed once for the residuals'
    column values; points evaluate on those copies.
    """

    __slots__ = ("q", "psi", "u_max", "z_max", "_float_psi", "_float_psi_t")
    _fields = __slots__[:4]

    def __init__(self, q: int, psi: BiSeries,
                 u_max: float | None = None, z_max: float | None = None):
        self._set("q", q)
        self._set("psi", psi)
        self._set("u_max", u_max)
        self._set("z_max", z_max)
        self._set("_float_psi", psi.to_floating())
        self._set("_float_psi_t", self._float_psi.transposed())


def solve(bd: BoundaryData, order: int) -> BiSeries:
    """Compute the unique series solution through the given boundary data.

    Returns psi with every coefficient of total degree <= order, such that the
    governing residual vanishes through total degree order-1 and row k=0
    equals the supplied data (entry l divided by l!).  Data shorter than
    order+1 is padded with zeros; extra entries are ignored.  In floating mode
    a row-0 entry data[l]/(psi(0,0)*l!) or a coefficient outside double range
    raises ``OverflowError``.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    s = 1 if bd.q == 0 else -1
    a00 = bd.data[0]
    row0 = [_monic_entry(v, a00, l, order) for l, v in enumerate(bd.data[: order + 1])]
    row0 += [CScalar.zero(bd.mode)] * (order + 1 - len(row0))
    if bd.mode == MODE_FLOAT:
        parts, den = [_float_rows([v.to_complex() for v in row0], s, order)], 1
    else:
        parts, den = _exact_rows(row0, s, order)
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


def _float_rows(row0: list[complex], s: int, order: int) -> list[list[complex]]:
    """The rows A_0..A_order in ``complex`` arithmetic, for a monic A_0.  The
    sweep stops after the first row outside double range, which the series
    built from the rows so far then refuses."""
    tail = [(m, v) for m, v in enumerate(row0) if m and v]
    rows, drows = [row0], []
    for k in range(order):
        drows.append([l * v for l, v in enumerate(rows[k]) if l])
        n = order - k - 1
        pivot = 2 * s * (k + 1)
        acc = [0j] * (n + 1)
        for w, i, j, d in _products(s, k):
            src = drows if d else rows
            for l, v in enumerate(mul_trunc(src[i], src[j], n, 0j)):
                acc[l] = acc[l] + w * v

        # pivot * A_0 * A_{k+1} = -acc: forward substitution against A_0.
        scaled = [(m, pivot * v) for m, v in tail if m <= n]
        row = []
        for l in range(n + 1):
            t = acc[l]
            for m, v in scaled:
                if m > l:
                    break
                t = t + v * row[l - m]
            row.append(-t / pivot)
        rows.append(row)
        if not all(map(cmath.isfinite, row)):
            break
    return rows


def _exact_rows(row0: list[CScalar], s: int, order: int) -> tuple[list, int]:
    """The rows A_0..A_order, for a monic A_0, as BiSeries parts (re, im) over
    the lcm D of the D_k, where A_k[l] = (re[l] + i*im[l]) / D_k with
    Gaussian-integer numerators and D_k the row's least common denominator.

    With A_0 = alpha / D_0, alpha_0 = D_0 and the pivot is 1.  If
    2*R_k = acc / E, the forward substitution
    A_{k+1}[l] = -acc[l] / (2cE) - sum_m (alpha_m / D_0) A_{k+1}[l-m]
    holds for A_{k+1}[l] = y_l / (2cE D_0^l) with
    y_l = -acc[l] D_0^l - sum_m alpha_m D_0^(m-1) y_{l-m}, in integers.
    """
    den0 = common_denominator(row0)
    re0, im0 = to_gaussian(row0, den0)
    tail = [
        (m, x * den0 ** (m - 1), y * den0 ** (m - 1))
        for m, (x, y) in enumerate(zip(re0, im0))
        if m and (x or y)
    ]
    dens, rows, drows = [den0], [(re0, im0)], []
    for k in range(order):
        re, im = rows[k]
        drows.append(([l * v for l, v in enumerate(re) if l], [l * v for l, v in enumerate(im) if l]))
        n = order - k - 1
        c = s * (k + 1)
        products = list(_products(s, k))
        e = math.lcm(*(dens[i] * dens[j] for _, i, j, _ in products))
        acc_re, acc_im = [0] * (n + 1), [0] * (n + 1)
        for w, i, j, d in products:
            src = drows if d else rows
            f = w * (e // (dens[i] * dens[j]))
            p_re, p_im = mul_trunc_gaussian(src[i], src[j], n)
            for l in range(n + 1):
                acc_re[l] += f * p_re[l]
                acc_im[l] += f * p_im[l]

        y_re, y_im, dpow = [], [], 1
        for l in range(n + 1):
            t_re, t_im = -acc_re[l] * dpow, -acc_im[l] * dpow
            for m, a_re, a_im in tail:
                if m > l:
                    break
                x, y = y_re[l - m], y_im[l - m]
                t_re -= a_re * x - a_im * y
                t_im -= a_re * y + a_im * x
            y_re.append(t_re)
            y_im.append(t_im)
            dpow *= den0
        # Over the common denominator 2cE D_0^n, reduced by one gcd.
        den = 2 * c * e * den0 ** n
        re = [v * den0 ** (n - l) for l, v in enumerate(y_re)]
        im = [v * den0 ** (n - l) for l, v in enumerate(y_im)]
        g = math.gcd(den, *re, *im)
        if den < 0:
            g = -g
        dens.append(den // g)
        rows.append(([v // g for v in re], [v // g for v in im]))
    den = math.lcm(*dens)
    return [[[v * (den // dk) for v in row[i]] for dk, row in zip(dens, rows)] for i in (0, 1)], den


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
    if q not in (0, 1):
        raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
    if psi.trunc < 2:
        raise ValueError("residual needs truncation bound >= 2")
    s, n, exact = 1 if q == 0 else -1, psi.trunc, psi.mode == MODE_EXACT
    # Row k as its parts, (A_k,) or (re, im), and likewise A_k'.
    rows = list(zip(*psi._parts))
    drows = [tuple([l * v for l, v in enumerate(part) if l] for part in row) for row in rows]
    out = [[[0 if exact else 0j] * (n - m) for m in range(n)] for _ in psi._parts]

    def accumulate(w: int, a: tuple, b: tuple, m: int) -> None:
        """Add w*a*b into row m of every part of ``out``, within its bound."""
        if a[0] and b[0]:
            d = n - 1 - m
            a = tuple([w * v for v in part[: d + 1]] for part in a)
            products = mul_trunc_gaussian(a, b, d) if exact else [mul_trunc(a[0], b[0], d, 0j)]
            for part, p in zip(out, products):
                part[m] = list(map(add, part[m], p))

    for i, a in enumerate(rows):
        for j in range(i, min(n - i, len(rows) - 1) + 1):
            w = s * (i + j) + 2 * i * j
            if w:  # (0, 0), and (1, 1) when q = 1, add nothing
                accumulate(w if i == j else 2 * w, a, rows[j], i + j - 1)
        for j in range(i, min(n - 1 - i, len(rows) - 1) + 1):
            accumulate(1 if i == j else 2, drows[i], drows[j], i + j)
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


def _check_domain(amap: AnsatzMap, p: Point3) -> tuple[float, float]:
    """(u, z) of a point off the q = 1 axis and inside the map's region."""
    u, z = _u_off_axis(amap.q, p.x, p.y), p.z
    if amap.u_max is not None and u > amap.u_max:
        raise OutOfDomain(f"u = {u} beyond configured bound {amap.u_max}")
    if amap.z_max is not None and abs(z) > amap.z_max:
        raise OutOfDomain(f"|z| = {abs(z)} beyond configured bound {amap.z_max}")
    return u, z


def _phi(q: int, x: float, y: float, values: list[complex]) -> complex:
    """phi at (x, y, z) from psi's row values A_k(z), without the region check
    (finite-difference samples step just past a point on its boundary)."""
    u = _u_off_axis(q, x, y)
    psi_val = eval_rows(values, complex(u))
    w = complex(x, y)
    return w * psi_val if q == 0 else w * psi_val / u


def eval_phi(amap: AnsatzMap, p: Point3) -> CScalar:
    """Evaluate phi at a point of the map's region; floating result."""
    _check_domain(amap, p)
    values = amap._float_psi.z_values(p.z)
    return CScalar.from_complex(_phi(amap.q, p.x, p.y, values))


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
    derivatives (Knuth, TAOCP 2, 4.6.4); f is bit for bit ``eval_rows``'s."""
    v0 = v1 = v2 = 0j
    for a in reversed(coeffs):
        v2, v1, v0 = v2 * t + v1, v1 * t + v0, v0 * t + a
    return v0, v1, 2 * v2


def _jet(amap: AnsatzMap, p: Point3, order: int):
    """(u, A_k(z), B_l(u), (psi, psi_u, psi_uu, psi_z, psi_zz)) at a point of
    the region, from two order-N passes: the row values A_k(z) of psi and the
    column values B_l(u) = sum_k a[k,l] u^k, the row values of its transpose.
    One O(N) pass in u over the A_k gives psi, psi_u and psi_uu, one in z over
    the B_l gives psi_z and psi_zz.  Derivatives up to ``order`` must exist."""
    u, z = _check_domain(amap, p)
    if amap.psi.trunc < order:
        raise ValueError(f"residual needs order-{order} derivatives: "
                         "cannot differentiate below truncation bound 1")
    rows, cols = amap._float_psi.z_values(z), amap._float_psi_t.z_values(u)
    pv, puv, puuv = _derivatives(rows, complex(u))
    _, pzv, pzzv = _derivatives(cols, complex(z))
    return u, rows, cols, (pv, puv, puuv, pzv, pzzv)


def _semiconformality(amap: AnsatzMap, p: Point3, h: float, jet) -> SemiConformalityResidual:
    u, rows, cols, (pv, puv, _, pzv, _) = jet
    sign = 1.0 if amap.q == 0 else -1.0
    governing = sign * pv * puv + u * puv * puv + 0.5 * pzv * pzv
    w = complex(p.x, p.y)
    scale = w * w if amap.q == 0 else w * w / (u * u)
    analytic = abs(2.0 * scale * governing)

    # The x and y samples keep z, so they sum the row values A_k(z) in u; the
    # z samples keep u, so they sum the column values B_l(u) in z.  Each is an
    # O(N) pass of plain values, which the derivative recurrences never see.
    q, x, y = amap.q, p.x, p.y
    dx = (_phi(q, x + h, y, rows) - _phi(q, x - h, y, rows)) / (2 * h)
    dy = (_phi(q, x, y + h, rows) - _phi(q, x, y - h, rows)) / (2 * h)
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
    axis.  The finite-difference value differentiates phi directly; its
    samples at p - h and p + h skip the region check, so a point on the
    region's boundary still gets its residual.
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


def boundary_data_to_dict(bd: BoundaryData, order: int) -> dict:
    return {
        "q": bd.q,
        "order": order,
        "data": [scalar_to_pair(v) for v in bd.data],
    }


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
