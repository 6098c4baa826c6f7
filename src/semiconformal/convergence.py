"""Empirical radius-of-convergence estimation for the u-direction coefficient
rows, compared against the analytic bound a solution family reports.

Estimation always runs on float magnitudes, even when the coefficients were
computed exactly: the rationals grow past any useful size long before the
tail behaviour stabilizes, so the conversion is explicit and up front.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import CScalar, Record


class InsufficientTerms(ValueError):
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


def _magnitude(v) -> float:
    if isinstance(v, CScalar):
        return abs(v)
    return abs(complex(v))


def estimate_radius_u(coeffs: Sequence, method: str = "ratio") -> float:
    """Estimate the radius of convergence of sum a_k u^k from its coefficients.

    ratio: reciprocal of the consecutive-ratio limit, averaged over the last
    quartile of the ratio sequence (the ratios approach their limit like
    1 + O(1/k), so early terms bias the estimate and are discarded).

    root: reciprocal of lim sup |a_k|^(1/k), estimated from the last quartile
    of nonzero terms as (|a_last| / |a_first|)^(1/(k_last - k_first)); taking
    the root across the whole window cancels the polynomial prefactor that
    makes raw k-th roots converge too slowly.
    """
    mags = [(k, _magnitude(v)) for k, v in enumerate(coeffs)]
    nonzero = [(k, m) for k, m in mags if m != 0.0]
    if len(nonzero) < MIN_NONZERO_TERMS:
        raise InsufficientTerms(
            f"need at least {MIN_NONZERO_TERMS} nonzero terms, got {len(nonzero)}"
        )
    if method == "ratio":
        ratios = []
        for (k1, m1), (k2, m2) in zip(nonzero, nonzero[1:]):
            ratios.append((m2 / m1) ** (1.0 / (k2 - k1)))
        window = min(len(ratios), max(MIN_NONZERO_TERMS, len(ratios) // 4))
        tail = ratios[-window:]
        mean = sum(tail) / len(tail)
        if mean == 0.0:
            return float("inf")
        return 1.0 / mean
    if method == "root":
        window = min(len(nonzero), max(MIN_NONZERO_TERMS, len(nonzero) // 4))
        (k1, m1) = nonzero[-window]
        (k2, m2) = nonzero[-1]
        growth = (m2 / m1) ** (1.0 / (k2 - k1))
        if growth == 0.0:
            return float("inf")
        return 1.0 / growth
    raise ValueError(f"unknown method {method!r}")


def estimate_report(family, coeffs: Sequence, method: str = "ratio") -> RadiusEstimate:
    """Compare the empirical radius of ``coeffs`` with ``family.radius_bound()``."""
    empirical = estimate_radius_u(coeffs, method)
    theoretical = family.radius_bound()
    gap = None
    if theoretical is not None and theoretical != 0.0:
        gap = (empirical - theoretical) / theoretical
    nonzero = sum(1 for v in coeffs if _magnitude(v) != 0.0)
    return RadiusEstimate(empirical, theoretical, gap, method, nonzero)
