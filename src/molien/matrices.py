"""Square matrices over a scalar backend, and univariate polynomials.

Everything here is a pure function over immutable values. Matrices are
small (dimension at most a few hundred) and stored dense, so the
algorithms favour exactness over asymptotics: det(id - lambda*A) comes off
the cycles of a monomial A (one nonzero entry per column, _monomial) and
otherwise from traces of powers via Newton's identities, on the
Gaussian-integer pairs of m*A when exact (_pair_det), rank from
Gauss-Jordan elimination. Products skip exact zeros, so a monomial matrix
costs n multiplications per product, not n^3.
"""

from __future__ import annotations

from operator import mul, sub
from typing import Sequence

from molien.errors import ConsistencyError, ShapeError
from molien.scalars import ScalarBackend, _make, check_same_backend


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

    Where the backend lifts (exact), the coefficient of lambda^k is
    p_k/m^k from _pair_det, built once, on every A. On floats, a monomial
    A, with A e_i = a_i e_pi(i), gives the product over the cycles C of pi
    of 1 - (prod_{i in C} a_i) lambda^|C| (Polya's cycle form of Molien's
    sum): no matrix product. Any other A takes the power traces
    p_k = Tr(A^k), k = 1..n, from n - 1 products, and Newton's identities
    e_k = (1/k) * sum_{j=1..k} (-1)^(j-1) e_{k-j} p_j; the coefficient of
    lambda^k is (-1)^k e_k.
    """
    backend = a.backend
    n = a.n
    if backend.lift is not None:
        m, pairs = _pair_det(a)
        return UnivariatePoly([_make(x, y, m**k) for k, (x, y) in enumerate(pairs)], backend)
    if _monomial(a):
        return UnivariatePoly(_cycle_form(list(zip(*a.rows)), backend.one, backend.zero, mul, sub), backend)
    traces, power = [a.trace()], a
    for _ in range(n - 1):
        power = power @ a
        traces.append(power.trace())
    e = [backend.one]
    for k in range(1, n + 1):
        acc = backend.zero
        for j in range(1, k + 1):
            term = e[k - j] * traces[j - 1]
            acc = acc + (term if j % 2 else -term)
        e.append(acc * (backend.one / k))
    return UnivariatePoly([x if k % 2 == 0 else -x for k, x in enumerate(e)], backend)


def _cycle_form(columns: list, one, zero, times, minus) -> list:
    """The coefficients of det(id - lambda*B), B monomial, given by its columns: Polya's cycle form.

    B's entries are scalars or int pairs, with their one, zero, product
    and difference. Column i holds its nonzero entry b_i at row pi(i),
    and each cycle C of pi multiplies in 1 - (prod_{i in C} b_i)
    lambda^|C|, from the top down: no matrix product.
    """
    n = len(columns)
    image = {i: next((k, x) for k, x in enumerate(c) if x != zero) for i, c in enumerate(columns)}
    coeffs = [one] + [zero] * n
    while image:
        start, (i, phase) = image.popitem()
        length = 1
        while i != start:
            i, x = image.pop(i)
            phase, length = times(phase, x), length + 1
        for k in range(n, length - 1, -1):
            if coeffs[k - length] != zero:
                coeffs[k] = minus(coeffs[k], times(phase, coeffs[k - length]))
    return coeffs


def _pair_mul(p: tuple, q: tuple) -> tuple:
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _pair_sub(p: tuple, q: tuple) -> tuple:
    return (p[0] - q[0], p[1] - q[1])


def _pair_dot(u, v) -> tuple:
    """sum_k u_k v_k over int pairs (re, im), as far as the shorter of u and v goes."""
    return (sum(x * s - y * t for (x, y), (s, t) in zip(u, v)), sum(x * t + y * s for (x, y), (s, t) in zip(u, v)))


def _pair_det(a: SquareMatrix) -> tuple[int, list]:
    """(m, p): m the lcm of a's denominators, p_k the coefficient of mu^k in det(id - mu*B), B = m*a.

    All on int pairs, and det(id - lambda*a) has p_k/m^k at lambda^k. A
    monomial a (one nonzero entry per column, as _monomial tests) takes
    the cycle form: each cycle of B multiplies in 1 - (the product of its
    entries) mu^|C|. Any other takes the power traces P_j = Tr(B^j) and
    Newton's identities, k p_k = -sum_{j=1..k} p_{k-j} P_j. p_k is
    (-1)^k times a sum of principal minors of B, a Gaussian integer, so
    the division by k is exact; one that is not raises ConsistencyError.
    """
    m, rows = a.backend.lift(a.rows)
    n = a.n
    columns = list(zip(*rows))
    if all(len(c) - c.count((0, 0)) == 1 for c in columns):
        return m, _cycle_form(columns, (1, 0), (0, 0), _pair_mul, _pair_sub)
    traces, power = [], rows
    for j in range(n):
        if j:
            power = [[_pair_dot(row, column) for column in columns] for row in power]
        traces.append(tuple(map(sum, zip(*[row[k] for k, row in enumerate(power)]))))
    p = [(1, 0)]
    for k in range(1, n + 1):
        # k p_k = -sum_{j=1..k} p_(k-j) P_j
        sr, si = _pair_dot(p[::-1], traces)
        if sr % k or si % k:
            raise ConsistencyError(f"Newton's identities do not divide exactly by {k} at {a!r}")
        p.append((-sr // k, -si // k))
    return m, p


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

