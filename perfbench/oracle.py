"""Independent oracles for the benchmark's output checks.

Nothing here imports the package under test.  The exact coefficient table of
the q=0 one-parameter family (boundary data psi(0,0)=1, psi_z(0,0)=c) is
built from its closed formula

    a[k,l] = (-1)^(l+1) C(l+2k-2, l) f(k) c^(l+2k),   k >= 1,
    f(k)   = 3^(k-1) (2k-2)! / (2^(k-1) (k+1)! (k-1)!),

with a[0,0] = 1, a[0,1] = c and a[0,l] = 0 for l >= 2, in Gaussian-rational
arithmetic on (Fraction, Fraction) pairs.  The float oracles evaluate that
table by direct summation of monomials, not by the package's Horner scheme.
"""

from __future__ import annotations

import math
from fractions import Fraction

Gauss = tuple[Fraction, Fraction]


def _gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _profile_q0(k: int) -> Fraction:
    return Fraction(
        3 ** (k - 1) * math.factorial(2 * k - 2),
        2 ** (k - 1) * math.factorial(k + 1) * math.factorial(k - 1),
    )


def q0_table(c: Gauss, order: int) -> dict[tuple[int, int], Gauss]:
    """Nonzero exact coefficients a[k,l], k + l <= order, of the q=0 family."""
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(2 * order):
        powers.append(_gmul(powers[-1], c))
    table = {(0, 0): powers[0], (0, 1): c}
    for k in range(1, order + 1):
        f = _profile_q0(k)
        for l in range(order + 1 - k):
            r = (-1) ** (l + 1) * math.comb(l + 2 * k - 2, l) * f
            p = powers[l + 2 * k]
            table[(k, l)] = (r * p[0], r * p[1])
    return {kl: v for kl, v in table.items() if v[0] or v[1]}


def to_complex(table: dict[tuple[int, int], Gauss]) -> dict[tuple[int, int], complex]:
    return {kl: complex(float(v[0]), float(v[1])) for kl, v in table.items()}


def shell_errors(got: dict[tuple[int, int], tuple[float, float]],
                 exact: dict[tuple[int, int], Gauss], order: int) -> list[float]:
    """Normwise relative error of each total-degree shell 0..order.

    Differences are taken exactly (float -> Fraction), so the figure measures
    the solver, not the rounding of the oracle.
    """
    num = [0.0] * (order + 1)
    den = [0.0] * (order + 1)
    zero = (Fraction(0), Fraction(0))
    for kl in set(got) | set(exact):
        d = kl[0] + kl[1]
        e = exact.get(kl, zero)
        g = got.get(kl, (0.0, 0.0))
        dr = float(Fraction(g[0]) - e[0])
        di = float(Fraction(g[1]) - e[1])
        num[d] += dr * dr + di * di
        den[d] += float(e[0]) ** 2 + float(e[1]) ** 2
    return [math.sqrt(n / m) if m else math.inf for n, m in zip(num, den)]


class SeriesOracle:
    """psi and its first derivatives by direct monomial summation."""

    def __init__(self, coeffs: dict[tuple[int, int], complex]):
        self.terms = sorted(coeffs.items())
        self.kmax = max(k for (k, _), _ in self.terms)
        self.lmax = max(l for (_, l), _ in self.terms)

    def partials(self, u: float, z: float):
        """(psi, psi_u, psi_z, psi_uu, psi_zz) at (u, z)."""
        up = [u**k for k in range(self.kmax + 1)]
        zp = [z**l for l in range(self.lmax + 1)]
        p = pu = pz = puu = pzz = 0j
        for (k, l), a in self.terms:
            p += a * up[k] * zp[l]
            if k >= 1:
                pu += k * a * up[k - 1] * zp[l]
            if k >= 2:
                puu += k * (k - 1) * a * up[k - 2] * zp[l]
            if l >= 1:
                pz += l * a * up[k] * zp[l - 1]
            if l >= 2:
                pzz += l * (l - 1) * a * up[k] * zp[l - 2]
        return p, pu, pz, puu, pzz

    def value(self, u: float, z: float) -> complex:
        up = [u**k for k in range(self.kmax + 1)]
        zp = [z**l for l in range(self.lmax + 1)]
        return sum(a * up[k] * zp[l] for (k, l), a in self.terms)

    def residuals(self, x: float, y: float, z: float) -> tuple[float, float]:
        """(semi-conformality, harmonicity) residuals of the q=0 map
        phi = (x+iy) psi at a point, as the package's verify defines them."""
        u = 0.5 * (x * x + y * y)
        p, pu, pz, puu, pzz = self.partials(u, z)
        w = complex(x, y)
        sc = abs(2.0 * w * w * (p * pu + u * pu * pu + 0.5 * pz * pz))
        harm = abs(2.0 * u * pu + u * u * puu + 0.5 * u * pzz)
        return sc, harm

    def phi(self, x: float, y: float, z: float) -> complex:
        return complex(x, y) * self.value(0.5 * (x * x + y * y), z)
