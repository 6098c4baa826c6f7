"""Fibre geometry of the equal-parameter family.

For alpha = beta the map phi = (alpha^2 (x^2+y^2) + (1+alpha z)^2)/(x-iy) has
level sets cut out by the complex quadric

    alpha^2 (x^2+y^2+z^2) + 2 alpha z - 2 eta (x - iy) + 1 = 0,

one fibre per eta.  Writing xi = (-eta, i*eta, alpha)/alpha^2, the real and
imaginary parts of the quadric say the fibre is the circle centred at -Re(xi)
in the plane with normal Im(xi), of radius |Im(xi)|.  Since xi.xi = 1/alpha^2,
the quadric is alpha^2 (p+xi).(p+xi) = 0, and a real point p lies on it exactly
when |p + Re(xi)| = |Im(xi)| and (p + Re(xi)).Im(xi) = 0.

``fibre_circle`` and ``sample_circle`` are what the ``fibres`` command writes.
The quadric itself, the closed phi and the check that phi is constant on a
sampled circle are the tests' oracles, in their ``paper`` module.
"""

from __future__ import annotations

import math

from .scalars import CScalar, DomainError, Record
from .solver import Point3

Vec3 = tuple[float, float, float]


class Degenerate(ValueError, DomainError):
    """Im(xi) vanished (real alpha with eta = 0): the fibre is not a circle."""


class RadiusUnderflow(ArithmeticError, DomainError):
    """Im(xi) is not zero, but every component rounds to 0 in double precision."""


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _axpy(p: Vec3, s: float, d: Vec3) -> Vec3:
    return (p[0] + s * d[0], p[1] + s * d[1], p[2] + s * d[2])


def _plane_frame(normal: Vec3) -> tuple[Vec3, Vec3]:
    """A deterministic orthonormal pair spanning the plane orthogonal to normal."""
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    seed = min(axes, key=lambda a: abs(_dot(a, normal)))
    e1 = _axpy(seed, -_dot(seed, normal), normal)
    n1 = math.hypot(*e1)
    e1 = (e1[0] / n1, e1[1] / n1, e1[2] / n1)
    return e1, _cross(normal, e1)


class FibreCircle(Record):
    """One fibre of the equal-parameter family: a circle in 3-space."""

    __slots__ = _fields = ("center", "normal", "radius", "alpha", "eta")

    def __init__(self, center: Vec3, normal: Vec3, radius: float, alpha: complex, eta: complex):
        self._set("center", center)
        self._set("normal", normal)
        self._set("radius", radius)
        self._set("alpha", alpha)
        self._set("eta", eta)


def _to_complex(v) -> complex:
    if isinstance(v, CScalar):
        return v.to_complex()
    return complex(v)


def fibre_circle(alpha, eta) -> FibreCircle:
    """The fibre circle for (alpha, eta): centre -Re(xi), normal along Im(xi),
    radius |Im(xi)|.  ``Degenerate`` exactly when Im(xi) = 0: real alpha, eta = 0;
    ``RadiusUnderflow`` when Im(xi) rounds to 0; ``OverflowError`` when the
    circle leaves double range.  The normal is Im(xi) over its largest
    component, normalised, so a radius near the bottom of double range still
    gives a unit normal."""
    alpha, eta = _to_complex(alpha), _to_complex(eta)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.imag == 0 and eta == 0:
        raise Degenerate("Im(xi) vanishes; the fibre degenerates (real alpha, eta = 0)")
    e = eta / alpha / alpha  # alpha^2 may leave double range where this does not
    xi = (-e, 1j * e, 1.0 / alpha)
    im = (xi[0].imag, xi[1].imag, xi[2].imag)
    radius = math.hypot(*im)
    center = (-xi[0].real, -xi[1].real, -xi[2].real)
    if not math.isfinite(2 * radius + max(map(abs, center))):  # bounds every sample
        raise OverflowError(f"the fibre circle leaves double range at alpha = {alpha}, eta = {eta}")
    top = max(map(abs, im))
    if top == 0.0:
        raise RadiusUnderflow("the fibre radius underflows: Im(xi) rounds to 0 in double "
                              f"precision at alpha = {alpha}, eta = {eta}")
    unit = (im[0] / top, im[1] / top, im[2] / top)
    length = math.hypot(*unit)
    normal = (unit[0] / length, unit[1] / length, unit[2] / length)
    return FibreCircle(center=center, normal=normal, radius=radius, alpha=alpha, eta=eta)


def sample_circle(fc: FibreCircle, n: int) -> list[Point3]:
    """n equally spaced points on the circle."""
    if n < 3:
        raise ValueError("need at least 3 samples")
    e1, e2 = _plane_frame(fc.normal)
    pts = []
    for idx in range(n):
        theta = 2.0 * math.pi * idx / n
        ca, sa = fc.radius * math.cos(theta), fc.radius * math.sin(theta)
        p = _axpy(_axpy(fc.center, ca, e1), sa, e2)
        pts.append(Point3(p[0], p[1], p[2]))
    return pts
