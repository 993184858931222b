"""Scalar backends: exact Gaussian rationals and complex floats."""

from __future__ import annotations

import functools
import math
import operator
import sys
from fractions import Fraction
from math import gcd

from molien.errors import BackendError, ConsistencyError, ScalarParseError, ValidationError

# Kept for run metadata: the exact scalar core is the pure-Python class below.
ACTIVE_IMPLEMENTATION = "python"

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


@functools.lru_cache(maxsize=1024)
def _hash_inverse(den: int) -> int:
    """den^-1 modulo the hash modulus, as Fraction's hash uses it.

    Cached because pow() with a negative exponent is slow next to the rest
    of a hash, and real values such as Reynolds entries share a few
    denominators.
    """
    return pow(den, -1, _HASH_MODULUS)


def _ratio_text(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _make(rn, rd, im_n, im_d) -> "GaussianRational":
    """Build from raw integer parts, dividing each pair by its gcd.

    Every denominator passed in is positive: a reduced denominator, or a
    product of them and, in division, a positive norm. So signs need no
    normalising, and a denominator of 1 needs no gcd.
    """
    if rd != 1:
        g = gcd(rn, rd)
        if g != 1:
            rn //= g
            rd //= g
    if im_d != 1:
        g = gcd(im_n, im_d)
        if g != 1:
            im_n //= g
            im_d //= g
    out = object.__new__(GaussianRational)
    out._rn, out._rd, out._in, out._id = rn, rd, im_n, im_d
    return out


def _gaussian_integer(rn, im_n) -> "GaussianRational":
    """Build rn + im_n*i from integer parts, which are already reduced."""
    out = object.__new__(GaussianRational)
    out._rn, out._rd, out._in, out._id = rn, 1, im_n, 1
    return out


def _coerce(value) -> "GaussianRational | None":
    """An int or Fraction operand as a scalar; callers take scalars as they are."""
    if isinstance(value, int):
        return _make(value, 1, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, value.denominator, 0, 1)
    return None


class GaussianRational:
    """Complex number with rational real and imaginary parts, a + bi.

    Each part is kept as a reduced integer pair (numerator, positive
    denominator); Python ints give arbitrary precision. Values are
    immutable. Arithmetic accepts GaussianRational, int and Fraction
    operands; division by zero raises ZeroDivisionError. A real value
    hashes like the equal int or Fraction.
    """

    __slots__ = ("_rn", "_rd", "_in", "_id")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("imaginary part must be 0 when re is already complex")
            self._rn, self._rd, self._in, self._id = re._rn, re._rd, re._in, re._id
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational does not accept floats; use the float backend")
        re, im = Fraction(re), Fraction(im)
        self._rn, self._rd = re.numerator, re.denominator
        self._in, self._id = im.numerator, im.denominator

    @property
    def re(self) -> Fraction:
        return Fraction(self._rn, self._rd)

    @property
    def im(self) -> Fraction:
        return Fraction(self._in, self._id)

    @property
    def re_num(self) -> int:
        return self._rn

    @property
    def re_den(self) -> int:
        return self._rd

    @property
    def im_num(self) -> int:
        return self._in

    @property
    def im_den(self) -> int:
        return self._id

    def conjugate(self) -> "GaussianRational":
        return _make(self._rn, self._rd, -self._in, self._id)

    def is_real(self) -> bool:
        return self._in == 0

    def is_integer(self) -> bool:
        return self._in == 0 and self._rd == 1

    def __bool__(self) -> bool:
        return self._rn != 0 or self._in != 0

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self._rd, self._id, o._rd, o._id
        if p == q == r == s == 1:
            return _gaussian_integer(self._rn + o._rn, self._in + o._in)
        return _make(self._rn * r + o._rn * p, p * r, self._in * s + o._in * q, q * s)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        return _make(
            self._rn * o._rd - o._rn * self._rd, self._rd * o._rd,
            self._in * o._id - o._in * self._id, self._id * o._id,
        )

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self._rn, self._rd, -self._in, self._id)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        # (a + bi)(c + di): re = ac - bd, im = ad + bc, over the common
        # denominator of a, b, c and d.
        a, p, b, q = self._rn, self._rd, self._in, self._id
        c, r, d, s = o._rn, o._rd, o._in, o._id
        if p == q == r == s == 1:
            return _gaussian_integer(a * c - b * d, a * d + b * c)
        if not b and not d:
            return _make(a * c, p * r, 0, 1)
        den = p * q * r * s
        return _make(a * c * q * s - b * d * p * r, den, a * d * q * r + b * c * p * s, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        # w / z = w * conj(z) / |z|^2, with |z|^2 = nn / nd.
        a, p, b, q = self._rn, self._rd, self._in, self._id
        c, r, d, s = o._rn, o._rd, o._in, o._id
        nn = c * c * s * s + d * d * r * r
        if nn == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        nd = r * r * s * s
        den = p * q * r * s * nn
        return _make(
            (a * c * q * s + b * d * p * r) * nd, den,
            (b * c * p * s - a * d * q * r) * nd, den,
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        return self._rn == o._rn and self._rd == o._rd and self._in == o._in and self._id == o._id

    def __hash__(self):
        if self._in:
            # parts are always reduced, so the raw tuple is a stable identity
            return hash((self._rn, self._rd, self._in, self._id))
        if self._rd == 1:
            return hash(self._rn)
        # Fraction's hash of rn/rd, without building the Fraction
        try:
            inverse = _hash_inverse(self._rd)
        except ValueError:
            value = _HASH_INF
        else:
            value = hash(hash(abs(self._rn)) * inverse)
        value = value if self._rn >= 0 else -value
        return -2 if value == -1 else value

    def __repr__(self):
        return f"GaussianRational({_ratio_text(self._rn, self._rd)}, {_ratio_text(self._in, self._id)})"


# Values are immutable, so every exact zero and one can be the same object.
_EXACT_ZERO = _make(0, 1, 0, 1)
_EXACT_ONE = _make(1, 1, 0, 1)

DEFAULT_TOLERANCE = 1e-9


class ScalarBackend:
    """Field the computation runs over: EXACT, or float_backend(tolerance).

    Each subclass holds its field's scalar rules: coercion, zero and one,
    equality, pivot choice and counts. Matrices, polynomials and groups
    all carry a backend, and operations refuse to mix different ones.
    """

    __slots__ = ()

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
    magnitude = bool  # row_reduce pivots on the first nonzero entry
    # the largest column of a sparse row, None if it is empty: no key, for
    # speed; staticmethod, as partial binds like a method from Python 3.14
    pivot = staticmethod(functools.partial(max, default=None))

    def _convert(self, value):
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        if isinstance(value, str):
            return parse_scalar(value)
        raise BackendError(f"cannot coerce {type(value).__name__} to {self.noun}")

    def _integer(self, value, what: str) -> int:
        if not value.is_integer():
            raise ConsistencyError(f"{what} is not an integer: {value!r}")
        return value.re_num

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
    magnitude = abs  # row_reduce pivots on the largest entry above the tolerance
    # float error summed over |G| terms needs more headroom than the tolerance
    INTEGER_ROUNDING_TOLERANCE = 1e-6

    def __init__(self, tolerance: float):
        if not math.isfinite(tolerance) or tolerance < 0:
            raise ValidationError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
        self.tolerance = float(tolerance)

    def _convert(self, value):
        try:
            if isinstance(value, (int, float, Fraction)):
                return complex(float(value))
            if isinstance(value, GaussianRational):
                return complex(float(value.re), float(value.im))
            if isinstance(value, str):
                try:
                    return complex(float(value))
                except ValueError:
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

    def pivot(self, row: dict):
        """The first column of largest magnitude in a sparse row, if that exceeds the tolerance."""
        top = max(row, key=lambda k: abs(row[k]), default=None)
        return None if top is None or abs(row[top]) <= self.tolerance else top

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


def _scan_rational(text: str, pos: int) -> tuple[Fraction, int]:
    """uint ["/" posint], returned as a Fraction."""
    num, pos = _scan_uint(text, pos)
    if pos < len(text) and text[pos] == "/":
        den_at = pos + 1
        den, pos = _scan_uint(text, den_at)
        if den == 0:
            raise ScalarParseError("zero denominator", _byte_offset(text, den_at))
        return Fraction(num, den), pos
    return Fraction(num), pos


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
        return GaussianRational(0, sign)
    first, pos = _scan_rational(text, pos)
    if pos == len(text):
        return GaussianRational(sign * first)
    ch = text[pos]
    if ch == "i":
        pos += 1
        if pos != len(text):
            raise ScalarParseError("trailing characters", _byte_offset(text, pos))
        return GaussianRational(0, sign * first)
    if ch not in "+-":
        raise ScalarParseError(f"unexpected character {ch!r}", _byte_offset(text, pos))
    im_sign = 1 if ch == "+" else -1
    pos += 1
    if pos < len(text) and text[pos] == "i":
        im = Fraction(1)
        pos += 1
    else:
        im, pos = _scan_rational(text, pos)
        if pos >= len(text) or text[pos] != "i":
            raise ScalarParseError("expected 'i'", _byte_offset(text, pos))
        pos += 1
    if pos != len(text):
        raise ScalarParseError("trailing characters", _byte_offset(text, pos))
    return GaussianRational(sign * first, im_sign * im)


def format_scalar(s) -> str:
    """Canonical printer for the exact literal grammar (and repr-style floats).

    Inverse of parse_scalar on exact scalars: real part first, reduced
    terms, no spaces, unit imaginary coefficients omitted.
    """
    if isinstance(s, complex):
        return format_float_scalar(s)
    re = _ratio_text(s.re_num, s.re_den)
    im_num, im_den = s.im_num, s.im_den
    if im_num == 0:
        return re
    unit = "" if abs(im_num) == 1 and im_den == 1 else _ratio_text(abs(im_num), im_den)
    if s.re_num == 0:
        return f"{'-' if im_num < 0 else ''}{unit}i"
    return f"{re}{'-' if im_num < 0 else '+'}{unit}i"


def format_float_scalar(z: complex, digits: int = 12) -> str:
    re = f"{z.real:.{digits}g}"
    if z.imag == 0:
        return re
    im = f"{abs(z.imag):.{digits}g}"
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"
