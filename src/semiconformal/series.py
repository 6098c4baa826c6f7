"""Truncated bivariate power series stored as u-rows.

A ``BiSeries`` holds the coefficients a[k,l] of sum a[k,l] * u^k * z^l for
k + l <= trunc (truncation by total degree, so u-row k is a polynomial in z of
degree at most trunc - k).  A float series stores a list of ``complex`` u-rows.
An exact series stores a denominator D > 0 and two lists of ``int`` u-rows,
the real and imaginary numerators: a[k,l] = (re[k][l] + i*im[k][l]) / D.  The
storage is canonical (rows end at their last nonzero entry, lists at their
last nonempty row, zeros are ``0j`` or ``0``, D is the least common
denominator), so equal series have equal storage.  Each operation runs the
same list code over each part; a ``CScalar`` is built only by the public
constructor, ``coeff``, ``items`` and ``evaluate``.

A float series holds no inf or nan.  Input holding one (a coefficient table,
a ``CScalar`` map) is refused with ``ValueError``; an operation whose result
leaves double range raises ``OverflowError`` naming the first such u-row,
from ``_init``, which every series passes through.

``mul_add`` is the one truncated-product kernel, shared by the solver's row
sweep, ``governing_residual``, the series coefficient identity and
``BiSeries.__mul__``: it adds a weighted product of two u-rows given as
parts, a float one by one ``mul_trunc`` call, an exact one of (A + iB)/D and
(C + iE)/D' in one pass over the ``int`` rows that folds the weight into each
entry of the left row and adds four products per term, re += AC - BE and
im += AE + BC, over DD'.  A zero weight returns at once.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from itertools import zip_longest
from operator import neg
from typing import Iterator, Mapping

from .scalars import (
    MODE_EXACT,
    MODE_FLOAT,
    CScalar,
    ModeMismatch,
    common_denominator,
    component_from_str,
    json_int,
    to_gaussian,
)


def mul_trunc(a: list, b: list, n: int, zero) -> list:
    """Coefficients 0..n of the product of two univariate coefficient lists
    (entry l: degree l) of ``complex``, ``int`` or ``CScalar``; ``zero`` fills
    the degrees the product does not reach."""
    out = [zero] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                out[j] = out[j] + x * y
    return out


def mul_add(acc: list | tuple, a: tuple, b: tuple, n: int, w: int = 1) -> None:
    """Add w*a*b through degree n into ``acc`` in place.  Rows come as parts,
    ``(row,)`` of ``complex`` or ``(re, im)`` of equally long ``int`` lists,
    and ``acc`` holds the matching parts, each at least n + 1 long.  An empty
    row or a zero weight adds nothing.  A float product is one ``mul_trunc``
    call, weighted as it is added.  An exact product is one pass: each nonzero
    entry x of a, with w folded in, adds x*y into ``acc`` for each entry y of
    b, re += xr*yr - xi*yi and im += xr*yi + xi*yr."""
    if not (w and a[0] and b[0]):
        return
    if len(a) == 1:
        part = acc[0]
        for l, v in enumerate(mul_trunc(a[0], b[0], n, 0j)):
            part[l] += w * v
        return
    (ar, ai), (br, bi), (acc_re, acc_im) = a, b, acc
    for i, xr, xi in zip(range(n + 1), ar, ai):
        if xr or xi:
            if w != 1:
                xr, xi = w * xr, w * xi
            for j, yr, yi in zip(range(i, n + 1), br, bi):
                acc_re[j] += xr * yr - xi * yi
                acc_im[j] += xr * yi + xi * yr


def _mul_rows(left: list, right: list, trunc: int) -> list:
    """The product of two series' parts truncated at total degree ``trunc``,
    as dense parts: one kernel call per row pair (i, j) with i + j <= trunc."""
    zero = 0j if len(left) == 1 else 0
    out = [[[zero] * (trunc - m + 1) for m in range(trunc + 1)] for _ in left]
    acc, rows = list(zip(*out)), list(zip(*right))
    for i, a in enumerate(list(zip(*left))[: trunc + 1]):
        for j, b in enumerate(rows[: trunc - i + 1]):
            mul_add(acc[i + j], a, b, trunc - i - j)
    return out


def _entrywise(f, *parts) -> list[list]:
    """``f`` over the entries of equally shaped row lists."""
    return [[f(*xs) for xs in zip(*rows)] for rows in zip(*parts)]


def _cut(part: list[list], trunc: int) -> list[list]:
    """The entries of a row list within total degree ``trunc``."""
    return [row[: trunc - k + 1] for k, row in enumerate(part[: trunc + 1])]


def _trimmed(parts: list) -> list:
    """Equally shaped row lists cut jointly after each row's last entry that
    is nonzero in some part, and after the last nonempty row."""
    shape = []
    for rows in zip(*parts):
        n = len(rows[0])
        while n and not any(row[n - 1] for row in rows):
            n -= 1
        shape.append(n)
    while shape and not shape[-1]:
        shape.pop()
    return [[row[:n] for row, n in zip(part, shape)] for part in parts]


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


# The writer's exact forms, "-12" and "-12/35", which load without a Fraction.
_EXACT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _exact_ratio(text: str) -> tuple[int, int]:
    """(n, d) with n/d the exact component ``text`` and d > 0, not
    necessarily in lowest terms.  Text in another form goes through
    ``Fraction``, which accepts it or refuses it as ``component_from_str`` does."""
    m = _EXACT_TEXT.fullmatch(text)
    if m:
        d = int(m[2] or 1)
        if d:
            return int(m[1]), d
    return component_from_str(text, MODE_EXACT).as_integer_ratio()


def _check_header(trunc, mode) -> None:
    """Refuse a bound that JSON would not read back as a non-negative integer
    (a bool or a float included), and an unknown mode."""
    if type(trunc) is not int or trunc < 0:
        raise ValueError("truncation bound must be a non-negative integer")
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")


def _check_index(k: int, l: int, trunc: int) -> None:
    if k < 0 or l < 0:
        raise ValueError(f"negative index ({k},{l})")
    if k + l > trunc:
        raise ValueError(f"index ({k},{l}) exceeds truncation bound {trunc}")


class BiSeries:
    """Immutable bivariate polynomial truncated by total degree."""

    __slots__ = ("_trunc", "_mode", "_den", "_parts")

    def __init__(self, trunc: int, mode: str, coeffs: Mapping | None = None):
        _check_header(trunc, mode)
        table = {}
        for (k, l), v in (coeffs or {}).items():
            _check_index(k, l, trunc)
            if not isinstance(v, CScalar):
                raise TypeError("coefficients must be CScalar")
            if v.mode != mode:
                raise ModeMismatch(f"{v.mode} coefficient in a {mode} series")
            if not v.is_zero():
                table[(k, l)] = (complex(v.re, v.im) if mode == MODE_FLOAT
                                 else (v.re.as_integer_ratio(), v.im.as_integer_ratio()))
        self._init_cells(trunc, mode, table)

    def _init_cells(self, trunc: int, mode: str, table: dict) -> None:
        """Store the entries of ``table``, keyed (k, l) within the bound:
        ``complex`` values of a float series, or ((n, d), (n', d')) with
        d, d' > 0 for the entry n/d + i*n'/d' of an exact one.  Zero entries
        may be present; they leave no trace in the canonical storage."""
        shape = [0] * (max((k for k, _ in table), default=-1) + 1)
        for k, l in table:
            shape[k] = max(shape[k], l + 1)
        if mode == MODE_FLOAT:
            for key, v in table.items():
                if not cmath.isfinite(v):
                    raise ValueError(f"non-finite coefficient {key}: {v}")
            den, cells = 1, [table]
        else:
            den = math.lcm(*(d for pair in table.values() for _, d in pair))
            cells = [{key: n * (den // d) for key, ((n, d), _) in table.items()},
                     {key: n * (den // d) for key, (_, (n, d)) in table.items()}]
        parts = [[[c.get((k, l), 0) for l in range(n)] for k, n in enumerate(shape)] for c in cells]
        self._init(trunc, mode, parts, den)

    def _init(self, trunc: int, mode: str, parts: list, den: int) -> None:
        """Store the parts in canonical form (see the module docstring)."""
        if mode == MODE_FLOAT:
            parts = [[[v if v else 0j for v in row] for row in parts[0]]]
            for k, row in enumerate(parts[0]):
                if not all(map(cmath.isfinite, row)):
                    raise OverflowError(f"u-row {k} overflows double precision at order {trunc}")
        else:
            g = math.gcd(den, *(v for part in parts for row in part for v in row))
            if g > 1:
                den //= g
                parts = [[[v // g for v in row] for row in part] for part in parts]
        self._trunc, self._mode, self._den = trunc, mode, den
        self._parts = _trimmed(parts)

    @classmethod
    def _from_parts(cls, trunc: int, mode: str, parts: list, den: int = 1) -> "BiSeries":
        """A series from equally shaped, possibly dense and unreduced parts:
        ``[rows]`` of ``complex``, or ``[re, im]`` of ``int``s over ``den``."""
        _check_header(trunc, mode)
        series = object.__new__(cls)
        series._init(trunc, mode, parts, den)
        return series

    # -- constructors ---------------------------------------------------

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
        return len(self.support())

    def _components(self, k: int, l: int) -> tuple:
        """(re, im) of a stored entry: floats, or Fractions in lowest terms."""
        if self._mode == MODE_FLOAT:
            v = self._parts[0][k][l]
            return v.real, v.imag
        re, im = self._parts
        return Fraction(re[k][l], self._den), Fraction(im[k][l], self._den)

    def coeff(self, k: int, l: int) -> CScalar:
        rows = self._parts[0]
        if 0 <= k < len(rows) and 0 <= l < len(rows[k]):
            return CScalar(*self._components(k, l), self._mode)
        return CScalar.zero(self._mode)

    def derivative_value(self, k: int, l: int) -> CScalar:
        """Mixed partial derivative at the origin: k! * l! * a[k,l]."""
        return (math.factorial(k) * math.factorial(l)) * self.coeff(k, l)

    def support(self) -> list[tuple[int, int]]:
        """The indices of the nonzero coefficients, sorted."""
        return [(k, l) for k, rows in enumerate(zip(*self._parts))
                for l, entry in enumerate(zip(*rows)) if any(entry)]

    def items(self) -> Iterator[tuple[tuple[int, int], CScalar]]:
        mode = self._mode
        return ((kl, CScalar(*self._components(*kl), mode)) for kl in self.support())

    # -- ring operations --------------------------------------------------

    def _require_same_mode(self, other: "BiSeries"):
        if self._mode != other._mode:
            raise ModeMismatch(f"cannot combine {self._mode} and {other._mode} series")

    def _over(self, den: int) -> list:
        """The parts with the numerators rescaled to the denominator ``den``."""
        f = den // self._den
        return self._parts if f == 1 else [_entrywise(f.__mul__, part) for part in self._parts]

    def __add__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._require_same_mode(other)
        trunc = min(self._trunc, other._trunc)
        den = math.lcm(self._den, other._den)
        zero = 0j if self._mode == MODE_FLOAT else 0
        # An entry meets no addition where the other side has none, so a
        # float -0.0 stays as it is.
        parts = [
            [[x + y if x and y else x or y for x, y in zip_longest(r, s, fillvalue=zero)]
             for r, s in zip_longest(_cut(a, trunc), _cut(b, trunc), fillvalue=[])]
            for a, b in zip(self._over(den), other._over(den))
        ]
        return BiSeries._from_parts(trunc, self._mode, parts, den)

    def __sub__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        parts = [_entrywise(neg, part) for part in self._parts]
        return BiSeries._from_parts(self._trunc, self._mode, parts, self._den)

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._require_same_mode(other)
        trunc = min(self._trunc, other._trunc)
        parts = _mul_rows(self._parts, other._parts, trunc)
        return BiSeries._from_parts(trunc, self._mode, parts, self._den * other._den)

    def scaled(self, factor) -> "BiSeries":
        """Multiply every coefficient by a scalar (CScalar, int, Fraction, float).
        A series is immutable, so scaling by exactly 1 returns it."""
        exact = self._mode == MODE_EXACT
        if not isinstance(factor, CScalar):
            if not isinstance(factor, (int, Fraction if exact else float)):
                raise ModeMismatch(f"cannot scale a {self._mode} series by "
                                   f"{type(factor).__name__}")
            factor = CScalar(factor, 0, self._mode)
        elif factor.mode != self._mode:
            raise ModeMismatch(f"cannot scale a {self._mode} series by a {factor.mode} scalar")
        if factor == 1:
            return self
        if not exact:
            f = factor.to_complex()
            parts = [_entrywise(lambda v: v * f if v else v, self._parts[0])]
            return BiSeries._from_parts(self._trunc, MODE_FLOAT, parts)
        # The factor as a Gaussian numerator p + iq over d.
        d = common_denominator([factor])
        (p,), (q,) = to_gaussian([factor], d)
        parts = [_entrywise(lambda x, y: x * p - y * q, *self._parts),
                 _entrywise(lambda x, y: x * q + y * p, *self._parts)]
        return BiSeries._from_parts(self._trunc, MODE_EXACT, parts, self._den * d)

    # -- calculus ---------------------------------------------------------

    def diff(self, var: str) -> "BiSeries":
        """Formal partial derivative; the truncation bound drops by one."""
        if self._trunc < 1:
            raise ValueError("cannot differentiate below truncation bound 1")
        if var == "u":
            parts = [[[k * v for v in row] for k, row in enumerate(part) if k]
                     for part in self._parts]
        elif var == "z":
            parts = [[[l * v for l, v in enumerate(row) if l] for row in part]
                     for part in self._parts]
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BiSeries._from_parts(self._trunc - 1, self._mode, parts, self._den)

    def shift(self, dk: int, dl: int, trunc: int) -> "BiSeries":
        """Multiply by the monomial u^dk * z^dl, keeping total degree <= trunc,
        which may not exceed the product's own bound self.trunc + dk + dl.
        The shift must be by ints, not bools or floats (the readers' rule)."""
        if type(dk) is not int or type(dl) is not int:
            raise ValueError(f"shift ({dk!r},{dl!r}) must be by integers")
        if dk < 0 or dl < 0:
            raise ValueError(f"negative shift ({dk},{dl})")
        _check_header(trunc, self._mode)
        if trunc > self._trunc + dk + dl:
            raise ValueError("cannot raise a truncation bound")
        zero = 0j if self._mode == MODE_FLOAT else 0
        parts = [_cut([[]] * dk + [[zero] * dl + row for row in part], trunc)
                 for part in self._parts]
        return BiSeries._from_parts(trunc, self._mode, parts, self._den)

    def truncate(self, trunc: int) -> "BiSeries":
        return self.shift(0, 0, trunc)

    def transposed(self) -> "BiSeries":
        """The series with a[k,l] moved to a[l,k]: its u-rows are this series'
        z-columns.  Total degree is symmetric in u and z, so ``trunc`` stays."""
        zero = 0j if self._mode == MODE_FLOAT else 0
        parts = [[list(col) for col in zip_longest(*part, fillvalue=zero)] for part in self._parts]
        return BiSeries._from_parts(self._trunc, self._mode, parts, self._den)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, u: CScalar, z: CScalar) -> CScalar:
        """Horner evaluation; exact in exact mode."""
        if u.mode != self._mode or z.mode != self._mode:
            raise ModeMismatch("evaluation point mode differs from series mode")
        zero = CScalar.zero(self._mode)
        rows = [[self.coeff(k, l) for l in range(len(row))]
                for k, row in enumerate(self._parts[0])]
        return eval_rows(_z_values(rows, z, zero), u, zero)

    def eval_complex(self, u: complex, z: complex) -> complex:
        """Horner evaluation in double-precision complex arithmetic."""
        return eval_rows(self.z_values(z), complex(u))

    def z_values(self, z: complex) -> list[complex]:
        """The row values A_k(z) of psi = sum_k A_k(z) u^k, in ``complex``; an
        exact series converts itself first (``to_floating`` converts once)."""
        return _z_values(self.to_floating()._parts[0], complex(z), 0j)

    def to_floating(self) -> "BiSeries":
        """The float series nearest this one, entry by entry: ``int`` division
        rounds correctly, as ``float(Fraction)`` does."""
        if self._mode == MODE_FLOAT:
            return self
        den = self._den
        rows = _entrywise(lambda x, y: complex(x / den, y / den), *self._parts)
        return BiSeries._from_parts(self._trunc, MODE_FLOAT, [rows])

    # -- comparison / io ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self._trunc, self._mode, self._den, self._parts) == (
            other._trunc, other._mode, other._den, other._parts)

    __hash__ = None

    def __repr__(self):
        return f"BiSeries(trunc={self._trunc}, mode={self._mode!r}, nnz={self.n_nonzero})"

    def to_json_dict(self) -> dict:
        """The document ``to_json_text`` writes, parsed."""
        import json  # here, so that importing the package loads no codec

        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """The coefficient file {"trunc", "mode", "coeffs"}, with one
        [k, l, re, im] per nonzero entry in (k, l) order, laid out as
        ``json.dumps(..., indent=2)`` writes it, plus a final newline.  It is
        formatted straight from the stored rows: a float component as its
        repr, an exact one from its numerator and D reduced by one gcd, as
        ``str(Fraction)`` prints it."""
        if self._mode == MODE_FLOAT:
            cells = [f'{k},\n      {l},\n      "{v.real!r}",\n      "{v.imag!r}"'
                     for k, row in enumerate(self._parts[0]) for l, v in enumerate(row) if v]
        else:
            den, gcd = self._den, math.gcd

            def text(n: int) -> str:
                g = gcd(n, den)
                return str(n // g) if g == den else f"{n // g}/{den // g}"

            cells = [f'{k},\n      {l},\n      "{text(a)}",\n      "{text(b)}"'
                     for k, rows in enumerate(zip(*self._parts))
                     for l, (a, b) in enumerate(zip(*rows)) if a or b]
        coeffs = ("[\n    [\n      " + "\n    ],\n    [\n      ".join(cells) + "\n    ]\n  ]"
                  if cells else "[]")
        return f'{{\n  "trunc": {self._trunc},\n  "mode": "{self._mode}",\n  "coeffs": {coeffs}\n}}\n'

    @classmethod
    def from_json_dict(cls, d: dict, floating: bool = False) -> "BiSeries":
        """The series a ``to_json_dict`` document holds, its rows sized from
        its entries.  With ``floating``, an exact document is read straight
        into the float series that ``to_floating`` would give: after the
        same checks, each component is stored as its correctly rounded
        ``int / int`` quotient, so no common denominator is formed."""
        try:
            trunc = d["trunc"]
            mode = d["mode"]
            entries = d["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series document: {exc}") from exc
        table = {}
        for entry in entries:
            k, l, re_s, im_s = entry
            key = (json_int(k, "coefficient index k"), json_int(l, "coefficient index l"))
            if key in table:
                raise ValueError(f"coefficient {key} appears twice")
            try:
                if mode == MODE_FLOAT:
                    table[key] = complex(float(str(re_s)), float(str(im_s)))
                elif mode == MODE_EXACT:
                    table[key] = (_exact_ratio(str(re_s)), _exact_ratio(str(im_s)))
                else:
                    raise ValueError(f"unknown scalar mode {mode!r}")
            except ValueError as exc:
                raise ValueError(f"coefficient {key}: {exc}") from None
        trunc = json_int(trunc, "'trunc'")
        _check_header(trunc, mode)
        for k, l in table:
            _check_index(k, l, trunc)
        if floating and mode == MODE_EXACT:
            # A component outside double range raises ``OverflowError`` with
            # the message that ``to_floating`` gives it.
            table = {key: complex(a / b, c / d) for key, ((a, b), (c, d)) in table.items()}
            mode = MODE_FLOAT
        series = object.__new__(cls)
        series._init_cells(trunc, mode, table)
        return series
