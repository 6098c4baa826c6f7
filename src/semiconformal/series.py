"""Truncated bivariate power series over CScalar coefficients.

A ``BiSeries`` stores the coefficients a[k,l] of sum a[k,l] * u^k * z^l for
k + l <= trunc (truncation by total degree, so u-row k is a polynomial in z of
degree at most trunc - k).  Storage is sparse; absent indices are zero, and all
coefficients share one scalar mode.

``mul_trunc`` is the one truncated-product kernel, shared by the solver's row
sweep and ``BiSeries.__mul__``.  Neither runs it on ``CScalar``s: a floating
series multiplies as dense ``complex`` rows, and an exact series as
Gaussian-integer numerator rows over its least common denominator D, so a
product of two exact rows is three kernel calls on plain ``int``s
(``mul_trunc_gaussian``) and each output coefficient is normalised once, over
the product of the two denominators.  A series is immutable, so its
``complex`` rows are built once, on first use, and every later evaluation or
floating product reads those rows.
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
    common_denominator,
    from_gaussian,
    scalar_from_pair,
    scalar_to_pair,
    to_gaussian,
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


def mul_trunc_gaussian(a: tuple, b: tuple, n: int) -> tuple[list, list]:
    """``mul_trunc`` on Gaussian-integer rows: each of ``a`` and ``b`` is a
    pair (re, im) of equally long ``int`` lists, and so is the result.

    Three kernel calls instead of four: re = ar*br - ai*bi and
    im = (ar+ai)*(br+bi) - ar*br - ai*bi.
    """
    (ar, ai), (br, bi) = a, b
    rr = mul_trunc(ar, br, n, 0)
    ii = mul_trunc(ai, bi, n, 0)
    ss = mul_trunc([x + y for x, y in zip(ar, ai)], [x + y for x, y in zip(br, bi)], n, 0)
    return [x - y for x, y in zip(rr, ii)], [t - x - y for t, x, y in zip(ss, rr, ii)]


def _row_pairs(left: list[list], right: list[list], trunc: int):
    """(i, j, n) for every pair of nonempty rows, left row i and right row j,
    with i + j <= trunc; n = trunc - i - j is the z-degree their product is
    truncated at."""
    for i, a in enumerate(left[: trunc + 1]):
        if a:
            for j, b in enumerate(right[: trunc - i + 1]):
                if b:
                    yield i, j, trunc - i - j


def _z_values(rows: list[list], z, zero) -> list:
    """A_k(z) for every u-row A_k, by Horner in z."""
    values = []
    for row in rows:
        inner = zero
        for v in reversed(row):
            inner = inner * z + v
        values.append(inner)
    return values


def eval_rows(values: list, u, zero=0j):
    """sum_k values[k] * u^k by Horner in u: psi(u, z) from its row values
    A_k(z).  Many points that share z share one ``BiSeries.z_values`` pass."""
    total = zero
    for a in reversed(values):
        total = total * u + a
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
        self._crows = None  # complex rows, filled on first use

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

    def _complex_rows(self) -> list[list[complex]]:
        if self._crows is None:
            self._crows = self._rows(0j, CScalar.to_complex)
        return self._crows

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
        if self._mode == MODE_FLOAT:
            left, right = self._complex_rows(), other._complex_rows()
            out = [[0j] * (trunc - m + 1) for m in range(trunc + 1)]
            for i, j, n in _row_pairs(left, right, trunc):
                row = out[i + j]
                for l, v in enumerate(mul_trunc(left[i], right[j], n, 0j)):
                    row[l] = row[l] + v
            table = {
                (k, l): CScalar(v.real, v.imag, MODE_FLOAT)
                for k, row in enumerate(out)
                for l, v in enumerate(row)
                if v
            }
            return BiSeries(trunc, MODE_FLOAT, table)
        den_a, left = self._gaussian_rows()
        den_b, right = other._gaussian_rows()
        out = [([0] * (trunc - m + 1), [0] * (trunc - m + 1)) for m in range(trunc + 1)]
        for i, j, n in _row_pairs(left, right, trunc):
            out_re, out_im = out[i + j]
            p_re, p_im = mul_trunc_gaussian(left[i], right[j], n)
            for l in range(n + 1):
                out_re[l] += p_re[l]
                out_im[l] += p_im[l]
        den = den_a * den_b
        table = {
            (k, l): from_gaussian(x, y, den)
            for k, (out_re, out_im) in enumerate(out)
            for l, (x, y) in enumerate(zip(out_re, out_im))
            if x or y
        }
        return BiSeries(trunc, MODE_EXACT, table)

    def _gaussian_rows(self) -> tuple[int, list[tuple[list[int], list[int]]]]:
        """(D, rows) of an exact series: rows[k] = (re, im) with
        a[k,l] = (re[l] + i*im[l]) / D, D the least common denominator; an
        empty row is ``()``, so it tests false like an empty ``complex`` row."""
        den = common_denominator(self._coeffs.values())
        rows = self._rows(CScalar.zero(MODE_EXACT))
        return den, [to_gaussian(row, den) if row else () for row in rows]

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
        return eval_rows(_z_values(self._rows(zero), z, zero), u, zero)

    def eval_complex(self, u: complex, z: complex) -> complex:
        """Horner evaluation in double-precision complex arithmetic."""
        return eval_rows(self.z_values(z), complex(u))

    def z_values(self, z: complex) -> list[complex]:
        """The row values A_k(z) of psi = sum_k A_k(z) u^k, in ``complex``."""
        return _z_values(self._complex_rows(), complex(z), 0j)

    def z_jet(self, z: complex) -> list[tuple[complex, complex, complex]]:
        """(A_k(z), A_k'(z), A_k''(z)) for every u-row from one Horner pass in
        z with derivatives; each A_k(z) is bit for bit that of ``z_values``."""
        z = complex(z)
        jet = []
        for row in self._complex_rows():
            inner = d1 = d2 = 0j
            for v in reversed(row):
                d2, d1, inner = d2 * z + d1, d1 * z + inner, inner * z + v
            jet.append((inner, d1, 2 * d2))
        return jet

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
