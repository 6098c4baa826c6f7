"""Complex scalars in one of two fixed arithmetic modes.

Exact mode keeps real and imaginary parts as arbitrary-precision rationals
(always in lowest terms, positive denominator), so arithmetic never rounds and
equality is structural.  Floating mode uses binary doubles.  The two modes are
never mixed silently: combining them raises ``ModeMismatch``.

Exact series store Gaussian-integer numerators over one denominator, so the
hot loops run on plain ``int``s: ``to_gaussian`` writes exact scalars over a
common denominator, and ``common_denominator`` gives the least one.
"""

from __future__ import annotations

import math
from fractions import Fraction

MODE_EXACT = "exact"
MODE_FLOAT = "float"
_MODES = (MODE_EXACT, MODE_FLOAT)


class ModeMismatch(TypeError):
    """Exact-mode and floating-mode values met in a single operation."""


class DomainError(Exception):
    """Base of the package's domain errors: the input is well formed, but the
    mathematics refuses it.  Each one also keeps its own ``ValueError`` or
    ``ArithmeticError`` base; the CLI exits 2 on it."""


def _exact_component(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        raise ModeMismatch("float component rejected in exact mode")
    raise TypeError(f"cannot build an exact component from {type(x).__name__}")


def _float_component(x) -> float:
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str)):
        return float(x)
    if isinstance(x, Fraction):
        raise ModeMismatch("Fraction component rejected in floating mode")
    raise TypeError(f"cannot build a float component from {type(x).__name__}")


class CScalar:
    """A complex number tagged with its arithmetic mode.

    Plain ints combine with either mode (they are exact in both
    representations); Fraction only with exact mode; float/complex only with
    floating mode.  Anything else raises ``ModeMismatch`` rather than coercing.
    """

    __slots__ = ("_re", "_im", "_mode")

    def __init__(self, re, im, mode: str):
        if mode == MODE_EXACT:
            self._re = _exact_component(re)
            self._im = _exact_component(im)
        elif mode == MODE_FLOAT:
            self._re = _float_component(re)
            self._im = _float_component(im)
        else:
            raise ValueError(f"unknown scalar mode {mode!r}")
        self._mode = mode

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, re, im=0) -> "CScalar":
        return cls(re, im, MODE_EXACT)

    @classmethod
    def floating(cls, re, im=0.0) -> "CScalar":
        return cls(re, im, MODE_FLOAT)

    @classmethod
    def from_complex(cls, w: complex) -> "CScalar":
        w = complex(w)
        return cls(w.real, w.imag, MODE_FLOAT)

    @classmethod
    def zero(cls, mode: str) -> "CScalar":
        return cls(0, 0, mode)

    @classmethod
    def one(cls, mode: str) -> "CScalar":
        return cls(1, 0, mode)

    @classmethod
    def i(cls, mode: str) -> "CScalar":
        return cls(0, 1, mode)

    # -- accessors ----------------------------------------------------

    @property
    def re(self):
        return self._re

    @property
    def im(self):
        return self._im

    @property
    def mode(self) -> str:
        return self._mode

    def is_zero(self) -> bool:
        return self._re == 0 and self._im == 0

    # -- coercion -----------------------------------------------------

    def _coerce(self, other):
        """Lift ``other`` into this scalar's mode, or raise/refuse."""
        if isinstance(other, CScalar):
            if other._mode != self._mode:
                raise ModeMismatch(
                    f"cannot combine {self._mode} and {other._mode} scalars"
                )
            return other
        if isinstance(other, int):
            return CScalar(other, 0, self._mode)
        if isinstance(other, Fraction):
            if self._mode != MODE_EXACT:
                raise ModeMismatch("Fraction operand requires exact mode")
            return CScalar(other, 0, MODE_EXACT)
        if isinstance(other, float):
            if self._mode != MODE_FLOAT:
                raise ModeMismatch("float operand requires floating mode")
            return CScalar(other, 0.0, MODE_FLOAT)
        if isinstance(other, complex):
            if self._mode != MODE_FLOAT:
                raise ModeMismatch("complex operand requires floating mode")
            return CScalar(other.real, other.imag, MODE_FLOAT)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(self._re + o._re, self._im + o._im, self._mode)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(self._re - o._re, self._im - o._im, self._mode)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(o._re - self._re, o._im - self._im, self._mode)

    def __neg__(self):
        return CScalar(-self._re, -self._im, self._mode)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CScalar(
            self._re * o._re - self._im * o._im,
            self._re * o._im + self._im * o._re,
            self._mode,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._mode == MODE_FLOAT:  # complex division never forms |o|^2
            w = complex(self._re, self._im) / complex(o._re, o._im)
            return CScalar(w.real, w.imag, MODE_FLOAT)
        den = o._re * o._re + o._im * o._im
        if den == 0:
            raise ZeroDivisionError("division by zero CScalar")
        return CScalar(
            (self._re * o._re + self._im * o._im) / den,
            (self._im * o._re - self._re * o._im) / den,
            self._mode,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (CScalar.one(self._mode) / self) ** (-n)
        result = CScalar.one(self._mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons / conversions -------------------------------------

    def __eq__(self, other):
        if isinstance(other, CScalar):
            return (
                self._mode == other._mode
                and self._re == other._re
                and self._im == other._im
            )
        if isinstance(other, int):
            return self._re == other and self._im == 0
        return NotImplemented

    def __hash__(self):
        return hash((self._mode, self._re, self._im))

    def __bool__(self):
        return not self.is_zero()

    def __abs__(self) -> float:
        return math.hypot(float(self._re), float(self._im))

    def to_floating(self) -> "CScalar":
        if self._mode == MODE_FLOAT:
            return self
        return CScalar(float(self._re), float(self._im), MODE_FLOAT)

    def to_complex(self) -> complex:
        return complex(float(self._re), float(self._im))

    def __repr__(self):
        return f"CScalar({self._re!r}, {self._im!r}, {self._mode!r})"

    def __str__(self):
        sign = "+" if (self._im >= 0) else "-"
        return f"({self._re} {sign} {abs(self._im)}i)[{self._mode}]"


def component_from_str(s: str, mode: str):
    if mode == MODE_EXACT:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"exact component {s!r} has a zero denominator") from None
    return float(s)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer: no float, and no bool (an int in Python)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def common_denominator(values) -> int:
    """The least common denominator of the components of exact scalars."""
    return math.lcm(*(x.denominator for v in values for x in (v.re, v.im)))


def to_gaussian(values, den: int) -> tuple[list[int], list[int]]:
    """Exact scalars as Gaussian-integer numerators (re, im) over a common
    denominator ``den``: values[i] == (re[i] + i*im[i]) / den."""
    return (
        [v.re.numerator * (den // v.re.denominator) for v in values],
        [v.im.numerator * (den // v.im.denominator) for v in values],
    )


def scalar_from_pair(re_s, im_s, mode: str) -> CScalar:
    if mode not in _MODES:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return CScalar(component_from_str(str(re_s), mode),
                   component_from_str(str(im_s), mode), mode)


class Record:
    """An immutable record: a subclass names its fields in ``_fields`` and ``__slots__`` and
    writes them with ``_set``; equality (same type only), hash, repr and pickling follow them."""

    __slots__ = ()
    _set = object.__setattr__  # the one way to write a field

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
