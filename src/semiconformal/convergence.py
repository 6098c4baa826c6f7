"""Empirical radius-of-convergence estimation for the u-direction coefficient
rows, compared against the analytic bound a solution family reports.

Estimation reads log|a_k| from the exact components of a_k, Python ints for
exact and float coefficients alike, so a row whose terms leave double range
still gives an estimate; only an estimate outside double range is refused.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .scalars import MODE_FLOAT, CScalar, DomainError, Record


class InsufficientTerms(ValueError, DomainError):
    """Too few nonzero coefficients to say anything about the tail."""


MIN_NONZERO_TERMS = 8


class RadiusEstimate(Record):
    __slots__ = _fields = ("empirical", "theoretical", "relative_gap", "method", "terms_used")

    def __init__(self, empirical: float, theoretical: float | None,  # None: unbounded in u
                 relative_gap: float | None, method: str, terms_used: int):
        self._set("empirical", empirical)
        self._set("theoretical", theoretical)
        self._set("relative_gap", relative_gap)
        self._set("method", method)
        self._set("terms_used", terms_used)

    def to_json_dict(self) -> dict:
        theoretical = "unbounded" if self.theoretical is None else self.theoretical
        return {**dict(zip(self._fields, self._values())), "theoretical": theoretical}


def _log_abs(v) -> float | None:
    """log|v| from the exact components n/d of v, or None for v = 0.  Each is
    divided by 2^e, e the largest one's binary order, in one rounded int
    division, so none over- or underflows.  A non-finite float raises ValueError."""
    if not isinstance(v, CScalar):
        v = CScalar.from_complex(v)
    if v.mode == MODE_FLOAT and not cmath.isfinite(v.to_complex()):
        raise ValueError(f"coefficient {v.to_complex()} is not finite")
    if not v:
        return None
    ratios = [x.as_integer_ratio() for x in (v.re, v.im)]
    e = max(n.bit_length() - d.bit_length() for n, d in ratios if n)
    scaled = ((n << max(-e, 0)) / (d << max(e, 0)) for n, d in ratios)
    return math.log(math.hypot(*scaled)) + e * math.log(2)


def estimate_radius_u(coeffs: Sequence, method: str = "ratio") -> float:
    """Estimate the radius of convergence of sum a_k u^k from its coefficients.

    ratio: reciprocal of the consecutive-ratio limit, averaged over the last
    quartile of the ratio sequence (the ratios approach their limit like
    1 + O(1/k), so early terms bias the estimate and are discarded).

    root: reciprocal of lim sup |a_k|^(1/k), estimated from the last quartile
    of nonzero terms as (|a_last| / |a_first|)^(1/(k_last - k_first)); taking
    the root across the whole window cancels the polynomial prefactor that
    makes raw k-th roots converge too slowly.

    An estimate outside double range raises ``OverflowError``.
    """
    logs = [(k, m) for k, m in enumerate(map(_log_abs, coeffs)) if m is not None]
    if len(logs) < MIN_NONZERO_TERMS:
        raise InsufficientTerms(
            f"need at least {MIN_NONZERO_TERMS} nonzero terms, got {len(logs)}"
        )
    if method == "ratio":
        pairs = list(zip(logs, logs[1:]))
        pairs = pairs[-max(MIN_NONZERO_TERMS, len(pairs) // 4):]
    elif method == "root":
        pairs = [(logs[-max(MIN_NONZERO_TERMS, len(logs) // 4)], logs[-1])]
    else:
        raise ValueError(f"unknown method {method!r}")
    try:
        growth = [math.exp((m2 - m1) / (k2 - k1)) for (k1, m1), (k2, m2) in pairs]
        radius = 1.0 / (sum(growth) / len(growth))
    except (OverflowError, ZeroDivisionError):
        radius = 0.0
    if not 0.0 < radius < math.inf:
        raise OverflowError(f"the {method} estimate of the radius lies outside double range")
    return radius


def estimate_report(family, coeffs: Sequence, method: str = "ratio") -> RadiusEstimate:
    """Compare the empirical radius of ``coeffs`` with ``family.radius_bound()``."""
    empirical, theoretical = estimate_radius_u(coeffs, method), family.radius_bound()
    gap = (empirical - theoretical) / theoretical if theoretical else None
    return RadiusEstimate(empirical, theoretical, gap, method, sum(1 for v in coeffs if v))
