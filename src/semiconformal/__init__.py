"""Analytic semi-conformal maps on domains of 3-space.

A complex-valued map phi = f + i*g on R^3 is semi-conformal exactly when
(grad phi)^2 = 0, i.e. the gradients of f and g are orthogonal and of equal
length.  This package builds such maps from the separated form

    phi(x, y, z) = (x + i*y) * u**(-q) * psi(u, z),    u = (x^2 + y^2)/2,

by computing psi as a truncated bivariate power series from its z-derivative
values at the origin, and cross-checks every coefficient formula, recurrence
and convergence bound that the construction rests on.
"""

from .scalars import CScalar, ModeMismatch, MODE_EXACT, MODE_FLOAT
from .series import BiSeries
from .solver import (
    AnsatzMap,
    BoundaryData,
    DegenerateData,
    OnAxis,
    Point3,
    eval_phi,
    governing_residual,
    harmonicity_residual,
    semiconformality_residual,
    solve,
)

__all__ = [
    "AnsatzMap",
    "BiSeries",
    "BoundaryData",
    "CScalar",
    "DegenerateData",
    "MODE_EXACT",
    "MODE_FLOAT",
    "ModeMismatch",
    "OnAxis",
    "Point3",
    "eval_phi",
    "governing_residual",
    "harmonicity_residual",
    "semiconformality_residual",
    "solve",
]

__version__ = "0.1.0"
