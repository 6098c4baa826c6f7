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
by one forward substitution against A_0; psi(0,0) is the only pivot.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .scalars import MODE_EXACT, MODE_FLOAT, CScalar, ModeMismatch, scalar_from_pair, scalar_to_pair
from .series import BiSeries, mul_trunc


class DegenerateData(ValueError):
    """Boundary data with psi(0,0) = 0 or psi_z(0,0) = 0 is refused."""


class PivotVanished(ArithmeticError):
    """The floating-mode pivot psi(0,0) fell below the safety threshold."""


class OnAxis(ValueError):
    """The map with q = 1 has a genuine singularity along the z-axis."""


class OutOfDomain(ValueError):
    """Evaluation point left the configured convergence region."""


PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class Point3:
    """A point of 3-space with finite float coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")


@dataclass(frozen=True)
class BoundaryData:
    """Free Taylor data of a solution: q plus psi(0,0), psi_z(0,0), psi_zz(0,0), ...

    The entries are derivative values (not series coefficients); entry l is
    the l-th z-derivative of psi at the origin.  The first two entries must be
    nonzero and every entry finite; the construction refuses data outside
    that regime rather than guessing an extension.
    """

    q: int
    data: tuple[CScalar, ...]

    def __post_init__(self):
        if self.q not in (0, 1):
            raise ValueError(f"exponent q must be 0 or 1, got {self.q!r}")
        data = tuple(self.data)
        object.__setattr__(self, "data", data)
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

    @property
    def mode(self) -> str:
        return self.data[0].mode


@dataclass(frozen=True)
class AnsatzMap:
    """phi = (x+iy) * u^(-q) * psi packaged with an optional evaluation region.

    The region (u_max, z_max) is a user input: the series only certifies the
    map where it converges, and no sharp joint (u, z) domain is available.
    The derivative series the residuals need are derived once per map, on
    first use, so a psi with a low truncation bound still evaluates phi.
    """

    q: int
    psi: BiSeries
    u_max: float | None = None
    z_max: float | None = None

    @cached_property
    def _psi_u(self) -> BiSeries:
        return self.psi.diff("u")

    @cached_property
    def _psi_z(self) -> BiSeries:
        return self.psi.diff("z")

    @cached_property
    def _psi_uu(self) -> BiSeries:
        return self._psi_u.diff("u")

    @cached_property
    def _psi_zz(self) -> BiSeries:
        return self._psi_z.diff("z")


def solve(bd: BoundaryData, order: int) -> BiSeries:
    """Compute the unique series solution through the given boundary data.

    Returns psi with every coefficient of total degree <= order, such that the
    governing residual vanishes through total degree order-1 and row k=0
    equals the supplied data (entry l divided by l!).  Data shorter than
    order+1 is padded with zeros; extra entries are ignored.  In floating mode
    a row that overflows raises ``OverflowError``.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    mode = bd.mode
    if mode == MODE_FLOAT:
        zero = 0j
        data = [v.to_complex() for v in bd.data[: order + 1]]
    else:
        zero = CScalar.zero(mode)
        data = list(bd.data[: order + 1])
    row0 = [v / math.factorial(l) for l, v in enumerate(data)]
    row0 += [zero] * (order + 1 - len(row0))

    a00 = row0[0]
    if mode == MODE_FLOAT and abs(a00) < PIVOT_FLOOR:
        raise PivotVanished(f"|psi(0,0)| = {abs(a00):.3e} below {PIVOT_FLOOR:.0e}")
    tail = [(m, v) for m, v in enumerate(row0) if m and v]

    s = 1 if bd.q == 0 else -1
    rows, drows = [row0], []
    for k in range(order):
        drows.append([l * v for l, v in enumerate(rows[k]) if l])
        n = order - k - 1
        c = s * (k + 1)
        # acc = 2*R_k.  Rows i and k+1-i pair with weight s(k+1) + 2ij (from
        # s*psi*psi_u + u*psi_u^2), the z-derivative rows i and k-i with
        # weight 1 (from psi_z^2 / 2); off-diagonal pairs count twice.
        acc = [zero] * (n + 1)
        for i in range(1, (k + 1) // 2 + 1):
            j = k + 1 - i
            w = 2 * (c + 2 * i * j) if i < j else c + 2 * i * j
            for l, v in enumerate(mul_trunc(rows[i], rows[j], n, zero)):
                acc[l] = acc[l] + w * v
        for i in range(k // 2 + 1):
            j = k - i
            w = 2 if i < j else 1
            for l, v in enumerate(mul_trunc(drows[i], drows[j], n, zero)):
                acc[l] = acc[l] + w * v

        # 2c * A_0 * A_{k+1} = -acc: forward substitution against A_0.
        pivot = 2 * c * a00
        scaled = [(m, 2 * c * v) for m, v in tail if m <= n]
        row = []
        for l in range(n + 1):
            t = acc[l]
            for m, v in scaled:
                if m > l:
                    break
                t = t + v * row[l - m]
            row.append(-t / pivot)
        if mode == MODE_FLOAT and not all(map(cmath.isfinite, row)):
            raise OverflowError(
                f"u-row {k + 1} overflows double precision at order {order}"
            )
        rows.append(row)

    if mode == MODE_FLOAT:
        rows = [[CScalar(v.real, v.imag, MODE_FLOAT) for v in row] for row in rows]
    return BiSeries(
        order, mode, {(k, l): v for k, row in enumerate(rows) for l, v in enumerate(row)}
    )


def governing_residual(psi: BiSeries, q: int) -> BiSeries:
    """s*psi*psi_u + u*psi_u^2 + (1/2)*psi_z^2, truncated to total degree trunc-1."""
    if q not in (0, 1):
        raise ValueError(f"exponent q must be 0 or 1, got {q!r}")
    if psi.trunc < 2:
        raise ValueError("residual needs truncation bound >= 2")
    half = Fraction(1, 2) if psi.mode == MODE_EXACT else 0.5
    pu = psi.diff("u")
    pz = psi.diff("z")
    first = psi * pu
    if q == 1:
        first = -first
    return first + (pu * pu).shift(1, 0, psi.trunc - 1) + (pz * pz).scaled(half)


# -- pointwise evaluation ----------------------------------------------------


def _cylinder_coords(p: Point3) -> tuple[float, float]:
    return 0.5 * (p.x * p.x + p.y * p.y), p.z


def _check_on_axis(amap: AnsatzMap, u: float):
    if amap.q == 1 and u == 0.0:
        raise OnAxis("phi is singular on the z-axis for q = 1")


def _check_domain(amap: AnsatzMap, p: Point3) -> tuple[float, float]:
    """(u, z) of a point off the q = 1 axis and inside the map's region."""
    u, z = _cylinder_coords(p)
    _check_on_axis(amap, u)
    if amap.u_max is not None and u > amap.u_max:
        raise OutOfDomain(f"u = {u} beyond configured bound {amap.u_max}")
    if amap.z_max is not None and abs(z) > amap.z_max:
        raise OutOfDomain(f"|z| = {abs(z)} beyond configured bound {amap.z_max}")
    return u, z


def _phi(amap: AnsatzMap, p: Point3) -> complex:
    """phi at a point without the region check, for finite-difference samples
    that step just past a point on the region's boundary."""
    u, z = _cylinder_coords(p)
    _check_on_axis(amap, u)
    w = complex(p.x, p.y)
    psi_val = amap.psi.eval_complex(u, z)
    return w * psi_val if amap.q == 0 else w * psi_val / u


def eval_phi(amap: AnsatzMap, p: Point3) -> CScalar:
    """Evaluate phi at a point of the map's region; floating result."""
    _check_domain(amap, p)
    return CScalar.from_complex(_phi(amap, p))


@dataclass(frozen=True)
class SemiConformalityResidual:
    """|phi_x^2 + phi_y^2 + phi_z^2| from the separated identity (analytic)
    and from central finite differences of phi; the two must agree to O(h^2)."""

    analytic: float
    finite_difference: float

    @property
    def gap(self) -> float:
        return abs(self.analytic - self.finite_difference)


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
    u, z = _check_domain(amap, p)
    pv = amap.psi.eval_complex(u, z)
    puv = amap._psi_u.eval_complex(u, z)
    pzv = amap._psi_z.eval_complex(u, z)
    sign = 1.0 if amap.q == 0 else -1.0
    governing = sign * pv * puv + u * puv * puv + 0.5 * pzv * pzv
    w = complex(p.x, p.y)
    scale = w * w if amap.q == 0 else w * w / (u * u)
    analytic = abs(2.0 * scale * governing)

    def phi_at(x: float, y: float, zz: float) -> complex:
        return _phi(amap, Point3(x, y, zz))

    dx = (phi_at(p.x + h, p.y, p.z) - phi_at(p.x - h, p.y, p.z)) / (2 * h)
    dy = (phi_at(p.x, p.y + h, p.z) - phi_at(p.x, p.y - h, p.z)) / (2 * h)
    dz = (phi_at(p.x, p.y, p.z + h) - phi_at(p.x, p.y, p.z - h)) / (2 * h)
    fd = abs(dx * dx + dy * dy + dz * dz)
    return SemiConformalityResidual(analytic=analytic, finite_difference=fd)


def harmonicity_residual(amap: AnsatzMap, p: Point3) -> float:
    """|q(q-1)psi - 2(q-1)u psi_u + u^2 psi_uu + (1/2) u psi_zz| at the point.

    phi is harmonic exactly where this vanishes; semi-conformality alone does
    not imply it.
    """
    u, z = _check_domain(amap, p)
    q = amap.q
    pv = amap.psi.eval_complex(u, z)
    puv = amap._psi_u.eval_complex(u, z)
    puuv = amap._psi_uu.eval_complex(u, z)
    pzzv = amap._psi_zz.eval_complex(u, z)
    value = (
        q * (q - 1) * pv
        - 2 * (q - 1) * u * puv
        + u * u * puuv
        + 0.5 * u * pzzv
    )
    return abs(value)


# -- file formats --------------------------------------------------------------


def boundary_data_to_dict(bd: BoundaryData, order: int) -> dict:
    return {
        "q": bd.q,
        "order": order,
        "data": [scalar_to_pair(v) for v in bd.data],
    }


def boundary_data_from_dict(d: dict, mode: str) -> tuple[BoundaryData, int]:
    try:
        q = int(d["q"])
        order = int(d["order"])
        raw = d["data"]
        data = tuple(scalar_from_pair(re_s, im_s, mode) for re_s, im_s in raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed boundary data document: {exc}") from exc
    # BoundaryData construction is outside the net above so that
    # DegenerateData keeps its identity (domain error, not a parse error).
    return BoundaryData(q=q, data=data), order
