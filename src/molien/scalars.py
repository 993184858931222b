"""Scalar backends: exact Gaussian rationals and complex floats."""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from fractions import Fraction
from math import gcd

from molien.errors import BackendError, ConsistencyError, ScalarParseError, ValidationError

# Kept for run metadata: the exact scalar core is the pure-Python class below.
ACTIVE_IMPLEMENTATION = "python"

def _make(a, b, d) -> "GaussianRational":
    """Build (a + b*i)/d from ints, dividing out gcd(a, b, d).

    Every d passed in is positive: a product of positive denominators and,
    in division, a positive norm. So signs need no normalising, and d = 1
    needs no gcd.
    """
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


def _coerce(value) -> "GaussianRational | None":
    """An int or Fraction operand as a scalar; callers take scalars as they are."""
    if isinstance(value, int):
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


class GaussianRational:
    """Complex number with rational real and imaginary parts, a + bi.

    Kept as one reduced triple of Python ints (a, b, d) standing for
    (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1; Python ints give
    arbitrary precision. Values are immutable. Arithmetic accepts
    GaussianRational, int and Fraction operands; division by zero raises
    ZeroDivisionError. A real value hashes like the equal int or Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("imaginary part must be 0 when re is already complex")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational does not accept floats; use the float backend")
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is reduced
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        # values are immutable, so a real one is its own conjugate
        return _make(self._a, -self._b, self._d) if self._b else self

    def is_integer(self) -> bool:
        return self._b == 0 and self._d == 1

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _make(self._a + o._a, self._b + o._b, d)
        return _make(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _make(self._a - o._a, self._b - o._b, d)
        return _make(self._a * f - o._a * d, self._b * f - o._b * d, d * f)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o._a, o._b, o._d
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        # w / z = w * conj(z) / |z|^2, and 1 / ((c+ei)/f) = f(c-ei) / (c^2+e^2)
        a, b, d = self._a, self._b, self._d
        c, e, f = o._a, o._b, o._d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b:
            # the triple is always reduced, so it is a stable identity
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


# Values are immutable, so every exact zero and one can be the same object.
_EXACT_ZERO = _make(0, 0, 1)
_EXACT_ONE = _make(1, 0, 1)

DEFAULT_TOLERANCE = 1e-9
# the strings read with float(): ASCII decimal literals only, so no spaces,
# "_", "+", nan or inf; every other string goes through the exact grammar
_FLOAT_LITERAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


class ScalarBackend:
    """Field the computation runs over: EXACT, or float_backend(tolerance).

    Each subclass holds its field's scalar rules: coercion, zero and one,
    equality, pivot choice, counts and Gaussian-integer lifts. Matrices,
    polynomials and groups all carry a backend, and operations refuse to
    mix different ones.
    """

    __slots__ = ()
    # rows of values as Gaussian integer pairs over a common denominator,
    # where the field has them; None on floats, which stay complex
    lift = None

    def __init__(self):
        if type(self) is ScalarBackend:
            raise TypeError("use EXACT or float_backend(tolerance), not ScalarBackend()")

    def coerce(self, value):
        """Convert value to a scalar of this backend; reject cross-backend values."""
        if isinstance(value, self.scalar):
            return value
        if isinstance(value, bool):
            raise BackendError(f"cannot coerce bool to {self.noun}")
        return self._convert(value)

    def count(self, value, what: str) -> int:
        """The nonnegative integer value stands for; else ConsistencyError starting with `what`."""
        count = self._integer(value, what)
        if count < 0:
            raise ConsistencyError(f"{what} is negative: {count}")
        return count

    def __eq__(self, other):
        if not isinstance(other, ScalarBackend):
            return NotImplemented
        return self.is_exact == other.is_exact and self.tolerance == other.tolerance

    def __hash__(self):
        return hash((self.is_exact, self.tolerance))


class _ExactBackend(ScalarBackend):
    """Q(i) on GaussianRational, compared exactly."""

    __slots__ = ()
    is_exact = True
    tolerance = 0.0
    scalar = GaussianRational
    noun = "an exact scalar"
    zero = _EXACT_ZERO
    one = _EXACT_ONE
    eq = operator.eq
    is_zero = operator.not_
    # the largest key of a sparse vector (a row's columns or a column's rows),
    # None if it is empty: no key function, for speed; staticmethod, as
    # partial binds like a method from Python 3.14
    pivot = staticmethod(functools.partial(max, default=None))

    def _convert(self, value):
        if isinstance(value, str):
            return parse_scalar(value)
        out = _coerce(value)
        if out is None:
            raise BackendError(f"cannot coerce {type(value).__name__} to {self.noun}")
        return out

    def _integer(self, value, what: str) -> int:
        if not value.is_integer():
            raise ConsistencyError(f"{what} is not an integer: {value!r}")
        return value.re.numerator

    def lift(self, rows) -> tuple[int, list]:
        """(m, rows of pairs): m the lcm of the values' denominators, m*value as (a, b) for each."""
        m = math.lcm(*[x._d for row in rows for x in row])
        return m, [[(x._a * (m // x._d), x._b * (m // x._d)) for x in row] for row in rows]

    def __repr__(self):
        return "ScalarBackend('exact')"


class _FloatBackend(ScalarBackend):
    """Complex binary64, where values within the tolerance of each other are equal."""

    __slots__ = ("tolerance",)
    is_exact = False
    scalar = complex
    noun = "a float scalar"
    zero = 0j
    one = 1 + 0j
    # float error summed over |G| terms needs more headroom than the tolerance
    INTEGER_ROUNDING_TOLERANCE = 1e-6

    def __init__(self, tolerance: float):
        # a subnormal tolerance would make the closure's bin pitch underflow
        if not math.isfinite(tolerance) or (tolerance != 0 and tolerance < sys.float_info.min):
            raise ValidationError(
                f"tolerance must be 0 or finite and at least {sys.float_info.min!r}, got {tolerance!r}"
            )
        self.tolerance = float(tolerance)

    def _convert(self, value):
        try:
            if isinstance(value, (int, float, Fraction)):
                return complex(float(value))
            if isinstance(value, GaussianRational):
                return complex(float(value.re), float(value.im))
            if isinstance(value, str):
                if _FLOAT_LITERAL.fullmatch(value):
                    x = float(value)
                    if math.isinf(x):
                        raise OverflowError
                    return complex(x)
                exact = parse_scalar(value)
                return complex(float(exact.re), float(exact.im))
        except OverflowError:
            name = type(value).__name__
            raise BackendError(f"{name} value is too large for a float scalar") from None
        raise BackendError(f"cannot coerce {type(value).__name__} to {self.noun}")

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tolerance

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tolerance

    def pivot(self, entries: dict):
        """The first key of largest absolute value, if that exceeds the tolerance."""
        top = max(entries, key=lambda k: abs(entries[k]), default=None)
        return None if top is None or abs(entries[top]) <= self.tolerance else top

    def _integer(self, value, what: str) -> int:
        count = round(value.real)
        if abs(value - count) > self.INTEGER_ROUNDING_TOLERANCE:
            raise ConsistencyError(
                f"{what} is {value!r}, not within {self.INTEGER_ROUNDING_TOLERANCE} of an integer"
            )
        return count

    def __repr__(self):
        return f"ScalarBackend('float', tolerance={self.tolerance})"


EXACT = _ExactBackend()


def float_backend(tolerance: float = DEFAULT_TOLERANCE) -> ScalarBackend:
    return _FloatBackend(tolerance)


def check_same_backend(a: ScalarBackend, b: ScalarBackend) -> None:
    if a != b:
        raise BackendError(f"backend mismatch: {a!r} vs {b!r}")


# --- exact literal grammar ------------------------------------------------
#
# scalar   ::= real | imag | real ("+"|"-") imagpart
# real     ::= ["-"] uint ["/" posint]
# imag     ::= ["-"] [uint ["/" posint]] "i"
# imagpart ::= [uint ["/" posint]] "i"        (omitted coefficient means 1)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _scan_uint(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ScalarParseError("expected digit", _byte_offset(text, pos))
    return int(text[start:pos]), pos


def _scan_rational(text: str, pos: int) -> tuple[int, int, int]:
    """uint ["/" posint], returned as (numerator, denominator, pos)."""
    num, pos = _scan_uint(text, pos)
    if pos < len(text) and text[pos] == "/":
        den_at = pos + 1
        den, pos = _scan_uint(text, den_at)
        if den == 0:
            raise ScalarParseError("zero denominator", _byte_offset(text, den_at))
        return num, den, pos
    return num, 1, pos


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact scalar literal such as '1/2', '-i' or '3/4-2/5i'."""
    if not isinstance(text, str):
        raise ScalarParseError("expected a string", 0)
    pos = 0
    sign = 1
    if pos < len(text) and text[pos] == "-":
        sign = -1
        pos += 1
    if pos < len(text) and text[pos] == "i":
        # pure imaginary with omitted coefficient
        pos += 1
        if pos != len(text):
            raise ScalarParseError("trailing characters", _byte_offset(text, pos))
        return _make(0, sign, 1)
    a, b, pos = _scan_rational(text, pos)
    if pos == len(text):
        return _make(sign * a, 0, b)
    ch = text[pos]
    if ch == "i":
        pos += 1
        if pos != len(text):
            raise ScalarParseError("trailing characters", _byte_offset(text, pos))
        return _make(0, sign * a, b)
    if ch not in "+-":
        raise ScalarParseError(f"unexpected character {ch!r}", _byte_offset(text, pos))
    im_sign = 1 if ch == "+" else -1
    pos += 1
    if pos < len(text) and text[pos] == "i":
        c, e = 1, 1
        pos += 1
    else:
        c, e, pos = _scan_rational(text, pos)
        if pos >= len(text) or text[pos] != "i":
            raise ScalarParseError("expected 'i'", _byte_offset(text, pos))
        pos += 1
    if pos != len(text):
        raise ScalarParseError("trailing characters", _byte_offset(text, pos))
    # sign*a/b + im_sign*c/e i over the common denominator b*e; _make reduces
    return _make(sign * a * e, im_sign * c * b, b * e)


def format_scalar(s) -> str:
    """Canonical printer for the exact literal grammar (and repr-style floats).

    Inverse of parse_scalar on exact scalars: real part first, reduced
    terms, no spaces, unit imaginary coefficients omitted.
    """
    if isinstance(s, complex):
        return format_float_scalar(s)
    re, im = s.re, s.im
    if not im:
        return str(re)
    unit = "" if abs(im) == 1 else str(abs(im))
    if not re:
        return f"{'-' if im < 0 else ''}{unit}i"
    return f"{re}{'-' if im < 0 else '+'}{unit}i"


def format_float_scalar(z: complex) -> str:
    re = f"{z.real:.12g}"
    if z.imag == 0:
        return re
    im = f"{abs(z.imag):.12g}"
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"
