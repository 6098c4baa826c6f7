"""Truncated bivariate power series over CScalar coefficients.

A ``BiSeries`` stores the coefficients a[k,l] of sum a[k,l] * u^k * z^l for
k + l <= trunc (truncation by total degree, so u-row k is a polynomial in z of
degree at most trunc - k).  Storage is sparse; absent indices are zero, and all
coefficients share one scalar mode.

``mul_trunc`` is the one truncated-product kernel, shared by the solver's row
sweep and ``BiSeries.__mul__``.  A series is immutable, so ``eval_complex``
converts its coefficients to dense ``complex`` rows once, on the first call,
and evaluates every later point against those rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .scalars import (
    MODE_EXACT,
    MODE_FLOAT,
    CScalar,
    ModeMismatch,
    scalar_from_pair,
    scalar_to_pair,
)


def mul_trunc(a: list, b: list, n: int, zero) -> list:
    """Coefficients 0..n of the product of two univariate coefficient lists.

    Entry l of a list is the coefficient of degree l.  The entries may be
    ``complex`` or ``CScalar``; ``zero`` is the additive zero of that type
    and fills the degrees the product does not reach.
    """
    out = [zero] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] = out[i + j] + x * y
    return out


def _horner(rows: list[list], u, z, zero):
    total = zero
    for row in reversed(rows):
        inner = zero
        for v in reversed(row):
            inner = inner * z + v
        total = total * u + inner
    return total


class BiSeries:
    """Immutable sparse bivariate polynomial truncated by total degree."""

    __slots__ = ("_trunc", "_mode", "_coeffs", "_crows")

    def __init__(self, trunc: int, mode: str, coeffs: Mapping | None = None):
        if not isinstance(trunc, int) or trunc < 0:
            raise ValueError("truncation bound must be a non-negative integer")
        if mode not in (MODE_EXACT, MODE_FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        table: dict[tuple[int, int], CScalar] = {}
        if coeffs:
            for (k, l), v in coeffs.items():
                if k < 0 or l < 0:
                    raise ValueError(f"negative index ({k},{l})")
                if k + l > trunc:
                    raise ValueError(
                        f"index ({k},{l}) exceeds truncation bound {trunc}"
                    )
                if not isinstance(v, CScalar):
                    raise TypeError("coefficients must be CScalar")
                if v.mode != mode:
                    raise ModeMismatch(
                        f"{v.mode} coefficient in a {mode} series"
                    )
                if not v.is_zero():
                    table[(k, l)] = v
        self._trunc = trunc
        self._mode = mode
        self._coeffs = table
        self._crows = None  # complex rows, filled by the first eval_complex

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, trunc: int, mode: str) -> "BiSeries":
        return cls(trunc, mode)

    @classmethod
    def constant(cls, value: CScalar, trunc: int) -> "BiSeries":
        return cls(trunc, value.mode, {(0, 0): value})

    # -- accessors -------------------------------------------------------

    @property
    def trunc(self) -> int:
        return self._trunc

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def n_nonzero(self) -> int:
        return len(self._coeffs)

    def coeff(self, k: int, l: int) -> CScalar:
        v = self._coeffs.get((k, l))
        return v if v is not None else CScalar.zero(self._mode)

    def derivative_value(self, k: int, l: int) -> CScalar:
        """Mixed partial derivative at the origin: k! * l! * a[k,l]."""
        return (math.factorial(k) * math.factorial(l)) * self.coeff(k, l)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs)

    def items(self) -> Iterator[tuple[tuple[int, int], CScalar]]:
        return iter(self._coeffs.items())

    def _rows(self, zero, convert=None) -> list[list]:
        """Dense u-rows of the support: rows[k][l] = a[k,l], gaps filled with
        ``zero``, each row ending at its highest nonzero z-degree."""
        length: dict[int, int] = {}
        for k, l in self._coeffs:
            if l >= length.get(k, 0):
                length[k] = l + 1
        rows = [[zero] * length.get(k, 0) for k in range(max(length, default=-1) + 1)]
        for (k, l), v in self._coeffs.items():
            rows[k][l] = v if convert is None else convert(v)
        return rows

    # -- ring operations --------------------------------------------------

    def _require_same_mode(self, other: "BiSeries"):
        if self._mode != other._mode:
            raise ModeMismatch(
                f"cannot combine {self._mode} and {other._mode} series"
            )

    def __add__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._require_same_mode(other)
        trunc = min(self._trunc, other._trunc)
        out: dict[tuple[int, int], CScalar] = {}
        for (k, l), v in self._coeffs.items():
            if k + l <= trunc:
                out[(k, l)] = v
        for (k, l), v in other._coeffs.items():
            if k + l > trunc:
                continue
            cur = out.get((k, l))
            out[(k, l)] = v if cur is None else cur + v
        return BiSeries(trunc, self._mode, out)

    def __sub__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BiSeries(
            self._trunc, self._mode, {kl: -v for kl, v in self._coeffs.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._require_same_mode(other)
        trunc = min(self._trunc, other._trunc)
        zero = CScalar.zero(self._mode)
        right = other._rows(zero)
        out = [[zero] * (trunc - m + 1) for m in range(trunc + 1)]
        for i, a in enumerate(self._rows(zero)[: trunc + 1]):
            for j, b in enumerate(right[: trunc - i + 1]):
                if a and b:
                    row = out[i + j]
                    for l, v in enumerate(mul_trunc(a, b, trunc - i - j, zero)):
                        row[l] = row[l] + v
        return BiSeries(
            trunc,
            self._mode,
            {(k, l): v for k, row in enumerate(out) for l, v in enumerate(row)},
        )

    def scaled(self, factor) -> "BiSeries":
        """Multiply every coefficient by a scalar (CScalar, int, Fraction, float)."""
        if not isinstance(factor, CScalar):
            if isinstance(factor, int):
                factor = CScalar(factor, 0, self._mode)
            elif isinstance(factor, Fraction) and self._mode == MODE_EXACT:
                factor = CScalar(factor, 0, MODE_EXACT)
            elif isinstance(factor, float) and self._mode == MODE_FLOAT:
                factor = CScalar(factor, 0.0, MODE_FLOAT)
            else:
                raise ModeMismatch(
                    f"cannot scale a {self._mode} series by {type(factor).__name__}"
                )
        elif factor.mode != self._mode:
            raise ModeMismatch(
                f"cannot scale a {self._mode} series by a {factor.mode} scalar"
            )
        return BiSeries(
            self._trunc,
            self._mode,
            {kl: v * factor for kl, v in self._coeffs.items()},
        )

    # -- calculus ---------------------------------------------------------

    def diff(self, var: str) -> "BiSeries":
        """Formal partial derivative; the truncation bound drops by one."""
        if self._trunc < 1:
            raise ValueError("cannot differentiate below truncation bound 1")
        out: dict[tuple[int, int], CScalar] = {}
        if var == "u":
            for (k, l), v in self._coeffs.items():
                if k >= 1:
                    out[(k - 1, l)] = k * v
        elif var == "z":
            for (k, l), v in self._coeffs.items():
                if l >= 1:
                    out[(k, l - 1)] = l * v
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BiSeries(self._trunc - 1, self._mode, out)

    def shift(self, dk: int, dl: int, trunc: int) -> "BiSeries":
        """Multiply by the monomial u^dk * z^dl, keeping total degree <= trunc."""
        out = {
            (k + dk, l + dl): v
            for (k, l), v in self._coeffs.items()
            if k + dk + l + dl <= trunc
        }
        return BiSeries(trunc, self._mode, out)

    def truncate(self, trunc: int) -> "BiSeries":
        if trunc > self._trunc:
            raise ValueError("cannot raise a truncation bound")
        out = {kl: v for kl, v in self._coeffs.items() if kl[0] + kl[1] <= trunc}
        return BiSeries(trunc, self._mode, out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, u: CScalar, z: CScalar) -> CScalar:
        """Horner evaluation; exact in exact mode."""
        if u.mode != self._mode or z.mode != self._mode:
            raise ModeMismatch("evaluation point mode differs from series mode")
        zero = CScalar.zero(self._mode)
        return _horner(self._rows(zero), u, z, zero)

    def eval_complex(self, u: complex, z: complex) -> complex:
        """Horner evaluation in double-precision complex arithmetic."""
        if self._crows is None:
            self._crows = self._rows(0j, CScalar.to_complex)
        return _horner(self._crows, complex(u), complex(z), 0j)

    def to_floating(self) -> "BiSeries":
        if self._mode == MODE_FLOAT:
            return self
        return BiSeries(
            self._trunc,
            MODE_FLOAT,
            {kl: v.to_floating() for kl, v in self._coeffs.items()},
        )

    # -- comparison / io ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            self._trunc == other._trunc
            and self._mode == other._mode
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"BiSeries(trunc={self._trunc}, mode={self._mode!r}, "
            f"nnz={len(self._coeffs)})"
        )

    def to_json_dict(self) -> dict:
        coeffs = [
            [k, l, *scalar_to_pair(self._coeffs[(k, l)])]
            for (k, l) in sorted(self._coeffs)
        ]
        return {"trunc": self._trunc, "mode": self._mode, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BiSeries":
        try:
            trunc = d["trunc"]
            mode = d["mode"]
            entries = d["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series document: {exc}") from exc
        table = {}
        for entry in entries:
            k, l, re_s, im_s = entry
            table[(int(k), int(l))] = scalar_from_pair(re_s, im_s, mode)
        return cls(int(trunc), mode, table)
