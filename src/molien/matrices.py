"""Square matrices over a scalar backend, and univariate polynomials.

Everything here is a pure function over immutable values. Matrices are
small (dimension at most a few hundred) and stored dense, so the
algorithms favour exactness over asymptotics: det(id - lambda*A) comes off
the cycles of a monomial A (one nonzero entry per column, _monomial) and
otherwise from traces of powers via Newton's identities, rank from
Gauss-Jordan elimination. Products skip exact zeros, so a monomial matrix
costs n multiplications per product, not n^3.
"""

from __future__ import annotations

from typing import Sequence

from molien.errors import ShapeError
from molien.scalars import ScalarBackend, check_same_backend


class SquareMatrix:
    """Immutable n-by-n matrix; entry (k, i) is row k, column i."""

    __slots__ = ("n", "rows", "backend")

    def __init__(self, rows: Sequence[Sequence], backend: ScalarBackend):
        coerced = tuple(tuple(backend.coerce(x) for x in row) for row in rows)
        n = len(coerced)
        if n == 0:
            raise ShapeError("matrix must have at least one row")
        if any(len(row) != n for row in coerced):
            raise ShapeError("matrix must be square")
        self.n = n
        self.rows = coerced
        self.backend = backend

    @classmethod
    def identity(cls, n: int, backend: ScalarBackend) -> "SquareMatrix":
        one, zero = backend.one, backend.zero
        return _trusted(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), backend
        )

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        """Product that does work only on nonzero entries, one _row_product per row."""
        if self.n != other.n:
            raise ShapeError(f"dimension mismatch: {self.n} vs {other.n}")
        check_same_backend(self.backend, other.backend)
        terms = _nonzero_terms(other.rows)
        zero = self.backend.zero
        return _trusted(tuple([_row_product(row, terms, zero) for row in self.rows]), self.backend)

    def conj_transpose(self) -> "SquareMatrix":
        return _trusted(
            tuple(tuple(x.conjugate() for x in column) for column in zip(*self.rows)), self.backend
        )

    def entrywise_conj(self) -> "SquareMatrix":
        return _trusted(tuple(tuple(x.conjugate() for x in row) for row in self.rows), self.backend)

    def trace(self):
        t = self.backend.zero
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def is_unitary(self) -> bool:
        product = self.conj_transpose() @ self
        return product.equals(SquareMatrix.identity(self.n, self.backend))

    def equals(self, other: "SquareMatrix") -> bool:
        """Entrywise equality: exact, or within the backend tolerance."""
        if self.n != other.n or self.backend != other.backend:
            return False
        eq = self.backend.eq
        return all(
            eq(a, b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.n == other.n and self.backend == other.backend and self.rows == other.rows

    def __hash__(self):
        return hash((self.backend, self.rows))

    def __repr__(self):
        return f"SquareMatrix({[list(row) for row in self.rows]!r})"


def _monomial(a: SquareMatrix) -> bool:
    """True iff each column of a holds one nonzero entry, an exact test: A e_i = a_i e_pi(i)."""
    # a loop, not all() over a generator: a dense matrix fails at its first column, in half the time
    for column in zip(*a.rows):
        if sum(map(bool, column)) != 1:
            return False
    return True


def _trusted(rows: tuple, backend: ScalarBackend) -> SquareMatrix:
    """Matrix on a square tuple of row tuples that already hold scalars of backend.

    For results built inside the package; SquareMatrix(rows, backend)
    validates everything that comes from outside.
    """
    out = object.__new__(SquareMatrix)
    out.n = len(rows)
    out.rows = rows
    out.backend = backend
    return out


def _row_product(row: tuple, terms: tuple, zero) -> tuple:
    """Row vector times the matrix with nonzero (column, entry) pairs terms per row.

    Entry j adds a_k * b_kj over the nonzero a_k and b_kj in increasing k:
    the nonzero terms of a dense dot product, in its order. Only exact
    zeros are skipped, never values under the float tolerance.
    """
    acc = [None] * len(terms)
    for a, row_terms in zip(row, terms):
        if a:
            for j, b in row_terms:
                v = acc[j]
                acc[j] = a * b if v is None else v + a * b
    return tuple([zero if v is None else v for v in acc])


def _nonzero_terms(rows: tuple) -> tuple:
    """The nonzero (column, entry) pairs of each row, in column order."""
    return tuple(tuple((j, b) for j, b in enumerate(row) if b) for row in rows)


class UnivariatePoly:
    """Polynomial in one variable; coeffs[k] is the coefficient of lambda^k.

    A record, as det_one_minus_lambda and molien_rational return it:
    coefficients, degree, equality and hash. The algebra left on it serves
    no command: scale stays for poly_gcd, and __mul__ because the
    benchmark's tracer (perfbench/spans.py) wraps it.
    """

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Sequence, backend: ScalarBackend):
        cs = [backend.coerce(c) for c in coeffs]
        while cs and backend.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self.backend = backend

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        check_same_backend(self.backend, other.backend)
        if self.is_zero() or other.is_zero():
            return UnivariatePoly([], self.backend)
        out = [self.backend.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UnivariatePoly(out, self.backend)

    def scale(self, factor) -> "UnivariatePoly":
        c = self.backend.coerce(factor)
        return UnivariatePoly([c * x for x in self.coeffs], self.backend)

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    def __repr__(self):
        return f"UnivariatePoly({list(self.coeffs)!r})"


def poly_divmod(a: UnivariatePoly, b: UnivariatePoly) -> tuple[UnivariatePoly, UnivariatePoly]:
    """Euclidean division over the scalar field; b must be nonzero."""
    check_same_backend(a.backend, b.backend)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    backend = a.backend
    rem = list(a.coeffs)
    quot = [backend.zero] * max(len(rem) - len(b.coeffs) + 1, 0)
    lead = b.coeffs[-1]
    db = b.degree
    for k in range(len(rem) - 1, db - 1, -1):
        if backend.is_zero(rem[k]):
            continue
        factor = rem[k] / lead
        quot[k - db] = factor
        for j in range(db + 1):
            rem[k - db + j] = rem[k - db + j] - factor * b.coeffs[j]
    return UnivariatePoly(quot, backend), UnivariatePoly(rem, backend)


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    check_same_backend(a.backend, b.backend)
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(a.backend.one / a.coeffs[-1])


def det_one_minus_lambda(a: SquareMatrix) -> UnivariatePoly:
    """Characteristic-style polynomial det(id - lambda*A) of degree <= n, constant term 1.

    A monomial A, with A e_i = a_i e_pi(i), gives the product over the
    cycles C of pi of 1 - (prod_{i in C} a_i) lambda^|C| (Polya's cycle
    form of Molien's sum): no matrix product. Any other A takes the power
    traces p_k = Tr(A^k), k = 1..n, from n - 1 products, and Newton's
    identities e_k = (1/k) * sum_{j=1..k} (-1)^(j-1) e_{k-j} p_j; the
    coefficient of lambda^k is (-1)^k e_k.
    """
    backend = a.backend
    n = a.n
    if _monomial(a):
        # column i holds a_i at row pi(i)
        image = {i: next((k, x) for k, x in enumerate(c) if x) for i, c in enumerate(zip(*a.rows))}
        coeffs = [backend.one] + [backend.zero] * n
        while image:
            start, (i, phase) = image.popitem()
            length = 1
            while i != start:
                i, x = image.pop(i)
                phase, length = phase * x, length + 1
            # times 1 - phase lambda^length, from the top down
            for k in range(n, length - 1, -1):
                if coeffs[k - length]:
                    coeffs[k] = coeffs[k] - phase * coeffs[k - length]
        return UnivariatePoly(coeffs, backend)
    traces = [a.trace()]
    power = a
    for _ in range(n - 1):
        power = power @ a
        traces.append(power.trace())
    one = backend.one
    e = [one]
    for k in range(1, n + 1):
        acc = backend.zero
        sign = 1
        for j in range(1, k + 1):
            term = e[k - j] * traces[j - 1]
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        e.append(acc * (one / k))
    coeffs = [e[k] if k % 2 == 0 else -e[k] for k in range(n + 1)]
    return UnivariatePoly(coeffs, backend)


def row_reduce(rows: Sequence[Sequence], backend: ScalarBackend) -> tuple[int, list[list]]:
    """Gauss-Jordan elimination; returns (rank, echelon rows).

    Pivots are normalised to exactly 1 and every other entry of a pivot
    column is exactly 0: each nonzero entry is eliminated, on the float
    backend too, however small. The pivot row is backend.pivot of the
    column's nonzero entries at or below the pivot row: the last one on
    the exact backend (the reduced echelon form is unique, so the choice
    does not change it), the first of largest absolute value on the float
    backend; a column whose remaining entries are all within the
    tolerance has none.
    """
    work = [[backend.coerce(x) for x in row] for row in rows]
    if not work:
        return 0, []
    width = len(work[0])
    if any(len(row) != width for row in work):
        raise ShapeError("rows must all have the same length")
    n_rows = len(work)
    pivot_row = 0
    for col in range(width):
        if pivot_row >= n_rows:
            break
        pick = backend.pivot({r: work[r][col] for r in range(pivot_row, n_rows) if work[r][col]})
        if pick is None:
            continue
        work[pivot_row], work[pick] = work[pick], work[pivot_row]
        pivot = work[pivot_row][col]
        top = work[pivot_row] = [x / pivot for x in work[pivot_row]]
        top[col] = backend.one
        for r in range(n_rows):
            factor = work[r][col]
            if r == pivot_row or not factor:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], top)]
            work[r][col] = backend.zero
        pivot_row += 1
    rank = pivot_row
    return rank, work

