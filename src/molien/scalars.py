"""Scalar backends: exact Gaussian rationals and complex floats.

The exact scalar type has two interchangeable implementations: a compiled
core (molien._gauss_cy, built with Cython) and a pure-Python fallback
(molien._gauss_py). The compiled one is used when importable; set
MOLIEN_PURE_PYTHON=1 to force the fallback.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from molien.errors import BackendError, ScalarParseError, ValidationError

if os.environ.get("MOLIEN_PURE_PYTHON", "") not in ("", "0"):
    from molien._gauss_py import GaussianRational

    ACTIVE_IMPLEMENTATION = "python"
else:
    try:
        from molien._gauss_cy import GaussianRational  # type: ignore[no-redef]

        ACTIVE_IMPLEMENTATION = "cython"
    except ImportError:
        from molien._gauss_py import GaussianRational  # type: ignore[no-redef]

        ACTIVE_IMPLEMENTATION = "python"

DEFAULT_TOLERANCE = 1e-9


class ScalarBackend:
    """Field the computation runs over: exact Q(i) or complex binary64.

    A backend bundles the tag with the comparison tolerance (float only)
    and provides coercion and equality for the scalars of that field.
    Matrices, polynomials and groups all carry one, and operations refuse
    to mix different backends.
    """

    __slots__ = ("tag", "tolerance")

    def __init__(self, tag: str, tolerance: float = 0.0):
        if tag not in ("exact", "float"):
            raise ValueError(f"unknown backend tag {tag!r}")
        if not math.isfinite(tolerance) or tolerance < 0:
            raise ValidationError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
        self.tag = tag
        self.tolerance = float(tolerance)

    @property
    def is_exact(self) -> bool:
        return self.tag == "exact"

    def coerce(self, value):
        """Convert value to a scalar of this backend; reject cross-backend values."""
        if self.is_exact:
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, bool):
                raise BackendError("cannot coerce bool to an exact scalar")
            if isinstance(value, (int, Fraction)):
                return GaussianRational(value)
            if isinstance(value, str):
                return parse_scalar(value)
            raise BackendError(f"cannot coerce {type(value).__name__} to an exact scalar")
        if isinstance(value, complex):
            return value
        if isinstance(value, bool):
            raise BackendError("cannot coerce bool to a float scalar")
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
        raise BackendError(f"cannot coerce {type(value).__name__} to a float scalar")

    @property
    def zero(self):
        return GaussianRational(0) if self.is_exact else 0j

    @property
    def one(self):
        return GaussianRational(1) if self.is_exact else complex(1)

    def eq(self, a, b) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.tolerance

    def is_zero(self, a) -> bool:
        if self.is_exact:
            return not a
        return abs(a) <= self.tolerance

    def conj(self, a):
        return a.conjugate()

    def __eq__(self, other):
        if not isinstance(other, ScalarBackend):
            return NotImplemented
        return self.tag == other.tag and self.tolerance == other.tolerance

    def __hash__(self):
        return hash((self.tag, self.tolerance))

    def __repr__(self):
        if self.is_exact:
            return "ScalarBackend('exact')"
        return f"ScalarBackend('float', tolerance={self.tolerance})"


EXACT = ScalarBackend("exact")


def float_backend(tolerance: float = DEFAULT_TOLERANCE) -> ScalarBackend:
    return ScalarBackend("float", tolerance)


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


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s) -> str:
    """Canonical printer for the exact literal grammar (and repr-style floats).

    Inverse of parse_scalar on exact scalars: real part first, reduced
    terms, no spaces, unit imaginary coefficients omitted.
    """
    if isinstance(s, complex):
        return format_float_scalar(s)
    re, im = s.re, s.im
    if im == 0:
        return _format_fraction(re)
    unit = "" if abs(im) == 1 else _format_fraction(abs(im))
    if re == 0:
        sign = "-" if im < 0 else ""
        return f"{sign}{unit}i"
    sign = "-" if im < 0 else "+"
    return f"{_format_fraction(re)}{sign}{unit}i"


def format_float_scalar(z: complex, digits: int = 12) -> str:
    re = f"{z.real:.{digits}g}"
    if z.imag == 0:
        return re
    im = f"{abs(z.imag):.{digits}g}"
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"
