"""Monomials, graded monomial bases and sparse multivariate polynomials.

Monomials are plain exponent tuples of length n. Polynomials map exponent
tuples to nonzero scalars of one backend. Bases list all degree-d
monomials in graded-lexicographic descending order, so x1^d comes first
and xn^d last. Linear substitution is not computed here: substitute_linear
reads the monomial images of molien.action.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

from molien.errors import ScalarParseError, ShapeError
from molien.matrices import SquareMatrix
from molien.scalars import ScalarBackend, check_same_backend, format_scalar

Monomial = tuple


def grlex_key(m: Monomial):
    """Sort key putting monomials in graded-lex descending order via reverse sort."""
    return (sum(m), m)


def _exponents(n: int, d: int) -> Iterator[Monomial]:
    """All length-n exponent tuples of total degree d, lex descending."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponents(n - 1, d - first):
            yield (first,) + rest


class MonomialBasis:
    """The degree-d monomials in n variables, C(n+d-1, d) of them.

    `index` gives each monomial's position in a coordinate vector.
    """

    __slots__ = ("n", "d", "monomials", "index")

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ShapeError("need at least one variable")
        if d < 0:
            raise ShapeError("degree must be nonnegative")
        self.n = n
        self.d = d
        self.monomials = tuple(_exponents(n, d))
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __repr__(self):
        return f"MonomialBasis(n={self.n}, d={self.d}, size={len(self)})"


class SparsePolynomial:
    """Polynomial in n variables as a map from exponent tuples to scalars.

    Zero coefficients are never stored; the zero polynomial has no terms.
    Instances are treated as immutable.
    """

    __slots__ = ("n", "terms", "backend")

    def __init__(self, n: int, terms: dict, backend: ScalarBackend):
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ShapeError(f"exponent tuple {mono!r} does not have length {n}")
            c = backend.coerce(coeff)
            if not backend.is_zero(c):
                clean[tuple(mono)] = c
        self.n = n
        self.terms = clean
        self.backend = backend

    @classmethod
    def zero(cls, n: int, backend: ScalarBackend) -> "SparsePolynomial":
        return cls(n, {}, backend)

    @classmethod
    def constant(cls, n: int, value, backend: ScalarBackend) -> "SparsePolynomial":
        return cls(n, {(0,) * n: value}, backend)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, with the zero polynomial at -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.backend.zero)

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.n != other.n:
            raise ShapeError(f"variable count mismatch: {self.n} vs {other.n}")
        check_same_backend(self.backend, other.backend)

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            if mono in merged:
                merged[mono] = merged[mono] + coeff
            else:
                merged[mono] = coeff
        return SparsePolynomial(self.n, merged, self.backend)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.n, {m: -c for m, c in self.terms.items()}, self.backend)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return SparsePolynomial(self.n, out, self.backend)

    def equals(self, other: "SparsePolynomial") -> bool:
        """Coefficient-wise equality: exact, or within the backend tolerance."""
        if self.n != other.n or self.backend != other.backend:
            return False
        is_zero = self.backend.is_zero
        for mono in self.terms.keys() | other.terms.keys():
            a = self.terms.get(mono, self.backend.zero)
            b = other.terms.get(mono, self.backend.zero)
            if not is_zero(a - b):
                return False
        return True

    def coefficient_vector(self, basis: MonomialBasis) -> list:
        """Coordinates in a degree basis; terms outside the basis are an error."""
        if basis.n != self.n:
            raise ShapeError(f"variable count mismatch: {self.n} vs {basis.n}")
        vec = [self.backend.zero] * len(basis)
        for mono, coeff in self.terms.items():
            pos = basis.index.get(mono)
            if pos is None:
                raise ShapeError(f"monomial {mono!r} is not in the degree-{basis.d} basis")
            vec[pos] = coeff
        return vec

    @classmethod
    def from_coefficient_vector(
        cls, vec: Sequence, basis: MonomialBasis, backend: ScalarBackend
    ) -> "SparsePolynomial":
        if len(vec) != len(basis):
            raise ShapeError("coefficient vector does not match basis size")
        return cls(basis.n, dict(zip(basis.monomials, vec)), backend)

    def sorted_terms(self) -> list:
        """Terms in graded-lex descending monomial order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.n == other.n and self.backend == other.backend and self.terms == other.terms

    def __repr__(self):
        return f"SparsePolynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


def substitute_linear(f: SparsePolynomial, matrix: SquareMatrix) -> SparsePolynomial:
    """Substitute x_i -> sum_k L[k][i] * x_k into f.

    This is precomposition with a linear map: column i of the matrix
    carries the image of the i-th variable. It is the action of the
    entrywise conjugate of L, read off action's monomial images, so no
    coefficient is dropped by the float tolerance before the result is
    built.
    """
    from molien.action import _image_terms  # action imports this module

    if matrix.n != f.n:
        raise ShapeError(f"matrix dimension {matrix.n} does not match {f.n} variables")
    check_same_backend(f.backend, matrix.backend)
    return SparsePolynomial(f.n, _image_terms(f, matrix.entrywise_conj()), f.backend)


# --- canonical text form ----------------------------------------------------


def _format_monomial(mono: Monomial) -> str:
    pieces = []
    for i, e in enumerate(mono):
        if e == 1:
            pieces.append(f"x{i + 1}")
        elif e > 1:
            pieces.append(f"x{i + 1}^{e}")
    return "*".join(pieces) if pieces else "1"


def format_polynomial(f: SparsePolynomial) -> str:
    """Canonical printer: grlex-descending terms, scalar-grammar coefficients.

    Example: '1/2*x1^2 + 1/2*x2^2'. Compound complex coefficients are
    parenthesised; unit coefficients are omitted.
    """
    if not f.terms:
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms():
        mono_str = _format_monomial(mono)
        coeff_str = format_scalar(coeff)
        if mono_str == "1":
            term = f"({coeff_str})" if _is_compound(coeff_str) else coeff_str
        elif coeff_str == "1":
            term = mono_str
        elif coeff_str == "-1":
            term = f"-{mono_str}"
        elif _is_compound(coeff_str):
            term = f"({coeff_str})*{mono_str}"
        else:
            term = f"{coeff_str}*{mono_str}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


def _is_compound(coeff_str: str) -> bool:
    body = coeff_str[1:] if coeff_str.startswith("-") else coeff_str
    return "+" in body or "-" in body


def parse_polynomial(text: str, n: int, backend: ScalarBackend) -> SparsePolynomial:
    """Parse the canonical polynomial form back into a polynomial."""
    stripped = text.strip()
    if stripped == "0":
        return SparsePolynomial.zero(n, backend)
    terms: dict = {}
    for signed, chunk in _split_terms(stripped):
        mono, coeff_str, negate = _parse_term(chunk, n)
        value = backend.coerce(coeff_str)
        if negate != (signed < 0):
            value = -value
        if mono in terms:
            terms[mono] = terms[mono] + value
        else:
            terms[mono] = value
    return SparsePolynomial(n, terms, backend)


def _split_terms(text: str):
    out = []
    sign = 1
    buf = []
    i = 0
    while i < len(text):
        if text[i] == " " and text[i + 1 : i + 2] in ("+", "-") and text[i + 2 : i + 3] == " ":
            out.append((sign, "".join(buf)))
            sign = 1 if text[i + 1] == "+" else -1
            buf = []
            i += 3
        else:
            buf.append(text[i])
            i += 1
    out.append((sign, "".join(buf)))
    return out


# x<index> or x<index>^<exponent>, both ASCII digit strings
_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def _parse_term(chunk: str, n: int):
    chunk = chunk.strip()
    if not chunk:
        raise ScalarParseError("empty term", 0)
    if chunk.endswith("*"):
        raise ScalarParseError(f"term {chunk!r} ends in '*'", 0)
    coeff = "1"
    negate = False
    if chunk.startswith("-x"):
        negate = True
        chunk = chunk[1:]
    if chunk.startswith("("):
        close = chunk.find(")")
        if close < 0:
            raise ScalarParseError("unbalanced parenthesis", 0)
        coeff = chunk[1:close]
        chunk = chunk[close + 1 :]
        if chunk.startswith("*"):
            chunk = chunk[1:]
    elif not chunk.startswith("x"):
        if "*" in chunk:
            coeff, chunk = chunk.split("*", 1)
        else:
            coeff, chunk = chunk, ""
    expo = [0] * n
    if chunk:
        for factor in chunk.split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if match is None:
                raise ScalarParseError(f"bad factor {factor!r}", 0)
            idx = int(match[1]) - 1
            if not 0 <= idx < n:
                raise ScalarParseError(f"variable index out of range in {factor!r}", 0)
            expo[idx] += int(match[2] or 1)
    return tuple(expo), coeff, negate
