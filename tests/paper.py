"""The paper's closed formulas and the checks built on them, as test oracles.

The package solves every family from its boundary data, so no command calls
these functions.  They are the paper's statements written out independently
of the solver, and the tests hold the solver, the identity suite and the
fibre geometry to them.

The one-parameter q=1 family (used by ``test_acceptance``,
``test_closed_forms`` and ``test_convergence``):

- ``coeff_q1``: the coefficient a[k,l] of the q=1 solution through
  (1, c, 0, ...), from the profile factor ``closed_forms.u_factor_q1``.

The two-parameter family that contains the Hopf map, with data
(1, alpha+beta, 2 alpha beta) (used by ``test_acceptance``,
``test_closed_forms``, ``test_convergence``, ``test_records`` and
``test_solver``):

- ``two_param_boundary``: its boundary data;
- ``two_param_psi1``, ``two_param_psi2``: the derivative values of rows 1
  and 2;
- ``two_param_Q``, ``two_param_a_k0``: the u-row a[k,0] through the symmetric
  polynomial Q_k, the oracle for ``TwoParamFamily.u_row``;
- ``equal_param_phi``: the alpha = beta member in closed form, half the Hopf
  map at alpha = -i (also used by ``test_geometry``).

The fibres of the alpha = beta member (used by ``test_acceptance`` and
``test_geometry``):

- ``fibre_equation``: the complex quadric whose real points are one fibre;
- ``verify_fibre``: the spread of ``equal_param_phi`` over a sampled
  ``geometry.fibre_circle``, which certifies the circle as a level set;
- ``hausdorff_distance``: the distance between two sampled circles.

The product rule behind the coefficient identity (used by
``test_exact_paths``, ``test_identities`` and ``test_records``):

- ``check_mixed_leibniz``: the mixed partial of a product at the origin
  against the double-binomial sum, as an ``identities.IdentityReport``.

The documented file formats, written the way the package reads them (used by
``test_cli``, ``test_scalars``, ``test_series`` and ``test_solver``):

- ``component_to_str``, ``scalar_to_pair``: one scalar as its ``[re, im]``
  string pair, 'p/q' in exact mode and a decimal in float mode;
- ``boundary_data_to_dict``: a boundary-data document, the inverse of
  ``solver.boundary_data_from_dict``.
"""

import math
from fractions import Fraction
from math import comb, factorial

from semiconformal.closed_forms import (_as_complex, _mode_factor, _one_param_coeff, odd_weights,
                                        u_factor_q1)
from semiconformal.geometry import FibreCircle, _to_complex, sample_circle
from semiconformal.identities import IdentityReport, _report
from semiconformal.scalars import MODE_EXACT, CScalar, ModeMismatch, json_int
from semiconformal.series import BiSeries
from semiconformal.solver import BoundaryData, OnAxis, Point3


# -- the one- and two-parameter families (closed_forms) ------------------------


def coeff_q1(c: CScalar, k: int, l: int) -> CScalar:
    """Series coefficient a[k,l] of the q=1 solution with data (1, c, 0, 0, ...)."""
    return _one_param_coeff(u_factor_q1, c.__pow__, c, k, l)


def two_param_psi1(alpha: CScalar, beta: CScalar, l: int) -> CScalar:
    """Derivative value psi_{1,l} = ((-1)^l / 2) l! (a-b)(a^(l+1) - b^(l+1)), l >= 1."""
    if l < 1:
        raise ValueError("row-1 formula requires l >= 1")
    r = Fraction((-1) ** l * factorial(l), 2)
    return (alpha - beta) * (alpha ** (l + 1) - beta ** (l + 1)) * _mode_factor(
        r, alpha.mode
    )


def two_param_psi2(alpha: CScalar, beta: CScalar, l: int) -> CScalar:
    """Derivative value psi_{2,l} for l >= 0:

        ((-1)^(l+1)/2) l! (a-b) [ (l+1)(l+2)/2 a^(l+3)
            + sum_{r=0}^{l+1} (l+1-2r) a^(l+2-r) b^(r+1)
            - (l+1)(l+2)/2 b^(l+3) ].

    The interior coefficients fall in the arithmetic progression l+1-2r; the
    pattern reproduces every explicitly expanded case and is cross-checked
    against the generic solver in the tests.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    mode = alpha.mode
    end = Fraction((l + 1) * (l + 2), 2)
    bracket = (alpha ** (l + 3) - beta ** (l + 3)) * _mode_factor(end, mode)
    for r in range(l + 2):
        bracket = bracket + (l + 1 - 2 * r) * (alpha ** (l + 2 - r)) * (
            beta ** (r + 1)
        )
    pref = Fraction((-1) ** (l + 1) * factorial(l), 2)
    return (alpha - beta) * bracket * _mode_factor(pref, mode)


def two_param_Q(alpha: CScalar, beta: CScalar, k: int) -> CScalar:
    """The symmetric polynomial in the u-row of the two-parameter family:

        Q_k = (k-2)!/2^(k-2) * sum_{j=1}^{k-1} g(j) g(k-j) a^(2k-2j-2) b^(2j-2),

    with g = ``odd_weights``; homogeneous of degree 2k-4 with coefficient sum
    2^(k-3) k!.  Summed by Horner in a^2, with the powers of b^2 carried
    along, so no power is formed twice.
    """
    if k < 2:
        raise ValueError("Q is defined for k >= 2")
    mode = alpha.mode
    g = odd_weights(k - 1)
    a2, b2 = alpha * alpha, beta * beta
    total, bpow = CScalar.zero(mode), CScalar.one(mode)
    for j in range(1, k):
        total = total * a2 + bpow * (g[j - 1] * g[k - j - 1])
        bpow = bpow * b2
    return total * _mode_factor(Fraction(factorial(k - 2), 2 ** (k - 2)), mode)


def two_param_a_k0(alpha: CScalar, beta: CScalar, k: int) -> CScalar:
    """u-row series coefficient a[k,0] of the two-parameter family.

    a[0,0] = 1, a[1,0] = (alpha+beta)^2 / 2, and for k >= 2
    a[k,0] = ((-1)^(k+1) / (2 k!)) (a-b)^2 (a+b)^2 Q_k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    mode = alpha.mode
    if k == 0:
        return CScalar.one(mode)
    if k == 1:
        return (alpha + beta) ** 2 * _mode_factor(Fraction(1, 2), mode)
    pref = Fraction((-1) ** (k + 1), 2 * factorial(k))
    return (
        (alpha - beta) ** 2
        * (alpha + beta) ** 2
        * two_param_Q(alpha, beta, k)
        * _mode_factor(pref, mode)
    )


def two_param_boundary(alpha: CScalar, beta: CScalar) -> tuple[CScalar, ...]:
    """Boundary data (1, alpha+beta, 2*alpha*beta) of the two-parameter family."""
    if (alpha + beta).is_zero():
        raise ValueError("two-parameter family needs alpha + beta != 0")
    one = CScalar.one(alpha.mode)
    return (one, alpha + beta, 2 * (alpha * beta))


def equal_param_phi(alpha, p) -> complex:
    """The alpha = beta family in closed form:

        phi(x,y,z) = (alpha^2 (x^2+y^2) + (1 + alpha z)^2) / (x - iy),

    equal to half of eval_phi on the corresponding solved map (the closed q=1
    forms carry a factor-2 normalization).  A continuous deformation of the
    Hopf map; for real alpha the fibres form a bouquet of circles through
    (0, 0, -1/alpha).
    """
    alpha = _as_complex(alpha)
    if isinstance(p, Point3):
        x, y, z = p.x, p.y, p.z
    else:
        x, y, z = p
    if x * x + y * y == 0.0:
        raise OnAxis("phi is singular on the z-axis")
    return (alpha * alpha * (x * x + y * y) + (1 + alpha * z) ** 2) / complex(x, -y)


# -- the product rule (identities) ---------------------------------------------


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


# -- the fibres of the alpha = beta member (geometry) --------------------------


def fibre_equation(alpha, eta, x, y, z):
    """The fibre quadric alpha^2(x^2+y^2+z^2) + 2 alpha z - 2 eta (x-iy) + 1.

    Works over CScalar (exact where the inputs are exact) or plain numbers.
    """
    i = CScalar.i(alpha.mode) if isinstance(alpha, CScalar) else 1j
    return (alpha * alpha * (x * x + y * y + z * z) + 2 * (alpha * z)
            - 2 * (eta * (x - i * y)) + 1)


def verify_fibre(alpha, fc: FibreCircle, n: int) -> float:
    """Maximum deviation of phi from its value at the first sample: a small
    value certifies that the circle really is a level set of phi."""
    alpha = _to_complex(alpha)
    samples = sample_circle(fc, n)
    axis_floor = (1e-9 * (fc.radius + math.hypot(*fc.center))) ** 2
    for p in samples:
        if p.x * p.x + p.y * p.y <= axis_floor:
            raise OnAxis("fibre sample lies on the z-axis")
    base = equal_param_phi(alpha, samples[0])
    return max(abs(equal_param_phi(alpha, p) - base) for p in samples)


def hausdorff_distance(a: list[Point3], b: list[Point3]) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""

    def one_sided(src, dst):
        return max(
            min(
                math.dist((p.x, p.y, p.z), (q.x, q.y, q.z))
                for q in dst
            )
            for p in src
        )

    return max(one_sided(a, b), one_sided(b, a))


# -- file formats (scalars, solver) --------------------------------------------


def component_to_str(x, mode: str) -> str:
    """Serialize one real component: 'p/q' in exact mode, decimal in float."""
    if mode == MODE_EXACT:
        return str(x)
    return repr(float(x))


def scalar_to_pair(v: CScalar) -> list[str]:
    return [component_to_str(v.re, v.mode), component_to_str(v.im, v.mode)]



def boundary_data_to_dict(bd: BoundaryData, order: int) -> dict:
    return {
        "q": bd.q,
        "order": json_int(order, "'order'"),
        "data": [scalar_to_pair(v) for v in bd.data],
    }
