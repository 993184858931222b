"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own arithmetic: sympy
symbolics for series and induced actions, itertools brute force for
counting. Expected values frozen into tests were produced by these. The
exceptions are references for an algorithm rather than its arithmetic:
reference_closure multiplies with the package's own matrix product,
reference_class_average sums the package's own reciprocals,
averaged_monomial_basis row-reduces with the package's own row_reduce,
and reference_images, reference_pivots and reference_basis walk,
eliminate and back-substitute with the package's own scalars,
GaussianRational on the exact backend, where the package walks and
eliminates on Gaussian-integer pairs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb

import sympy as sp

from molien import SparsePolynomial, SquareMatrix, row_reduce, series_reciprocal
from molien.action import _Ladder
from molien.series import _distinct_dets

LAM = sp.symbols("lam")


def reference_closure(generators):
    """Breadth-first closure on whole matrices: (elements, right, inverse_of, generator_indices).

    Each element times each generator, in order, is one full matrix
    product, looked up among the known elements: by its entry tuple on
    the exact backend, by a linear scan for the first tolerance-equal
    element on the float backend. Each inverse is the element found for
    the conjugate transpose.
    """
    backend = generators[0].backend
    elements = [SquareMatrix.identity(generators[0].n, backend)]
    position = {elements[0].rows: 0}

    def find(matrix):
        if backend.is_exact:
            return position.get(matrix.rows)
        return next((i for i, e in enumerate(elements) if e.equals(matrix)), None)

    right = []
    while len(right) < len(elements):
        row = []
        for g in generators:
            product = elements[len(right)] @ g
            found = find(product)
            if found is None:
                found = position[product.rows] = len(elements)
                elements.append(product)
            row.append(found)
        right.append(tuple(row))
    inverse_of = [find(e.conj_transpose()) for e in elements]
    return elements, right, inverse_of, right[0]


def reference_class_average(group, order: int) -> tuple:
    """Molien's average on backend scalars: sum of multiplicity * 1/det, times 1/|G|.

    One series_reciprocal per distinct det, summed in the order of
    _distinct_dets, then scaled once: on the exact backend every step is
    GaussianRational arithmetic, with no lift to Gaussian integers.
    """
    backend = group.backend
    acc = [backend.zero] * (order + 1)
    for p, multiplicity in _distinct_dets(group):
        expansion = series_reciprocal(p, order)
        acc = [a + multiplicity * c for a, c in zip(acc, expansion.coeffs)]
    factor = backend.coerce(Fraction(1, group.order))
    return tuple(c * factor for c in acc)


def averaged_monomial_basis(reynolds) -> list:
    """The paper's invariant basis: the Reynolds images of the basis monomials, row-reduced.

    Column j of the Reynolds matrix is the group average of the j-th basis
    monomial. The nonzero columns, each distinct one once, are brought to
    reduced echelon form, so each polynomial has leading coefficient 1.
    """
    backend = reynolds.matrix.backend
    image_rows = []
    seen = set()
    for column in zip(*reynolds.matrix.rows):
        if column in seen:
            continue
        seen.add(column)
        if any(not backend.is_zero(x) for x in column):
            image_rows.append(list(column))
    if not image_rows:
        return []
    rank, reduced = row_reduce(image_rows, backend)
    return [
        SparsePolynomial.from_coefficient_vector(row, reynolds.basis, backend)
        for row in reduced[:rank]
    ]


def reference_images(a, ladder, wanted=None):
    """The monomial-image walk on backend scalars, images as in molien.action.monomial_images.

    Every coefficient is a scalar of a's backend, built by its own
    multiplication and addition, in the same order of terms as the
    package's walk, so the exact images are exactly the package's lowered
    ones, keys and order included.
    """
    forms = [
        [(k, row[i].conjugate()) for k, row in enumerate(a.rows) if row[i]]
        for i in range(a.n)
    ]
    guard, row = ladder.guard, ladder.row
    images = [{0: a.backend.one}]
    yield images
    for d, step in enumerate((ladder.every if wanted is None else wanted)[1:], 1):
        up, codes = ladder.up[d], ladder.codes[d]
        nxt = [None] * len(codes)
        for j, p, i, bound in step:
            form = forms[i]
            out: dict = {}
            for q, c in images[p].items():
                targets = up[q] or row(d, q)
                for k, lk in form:
                    t = targets[k]
                    if t in out:
                        out[t] = out[t] + c * lk
                    elif bound is None or (bound - codes[t]) & guard == guard:
                        out[t] = c * lk
            nxt[j] = {t: v for t, v in out.items() if v}
        images = nxt
        yield images


def reference_pivots(group, d: int) -> dict:
    """The exact fixed-space elimination on GaussianRational rows, as pivot column -> normalized row.

    The rows of rho_d(s) - I over the generators s in order, each reduced
    by the known pivots oldest first (a heap of pivot ages), its pivot its
    largest column, stored without the pivot and divided by it; the dict
    holds the pivots in the order they were found.
    """
    backend = group.backend
    one = backend.one
    ladder = _Ladder(group.n, d)
    for per_generator in zip(*(reference_images(s, ladder) for s in group.generators())):
        pass
    pivots: dict = {}
    found: list = []
    age: dict = {}
    for images in per_generator:
        rows = [{} for _ in range(comb(group.n + d - 1, d))]
        for j, image in enumerate(images):
            for q, c in image.items():
                rows[q][j] = c
        for q, row in enumerate(rows):
            c = row.get(q)
            c = -one if c is None else c - one
            if c:
                row[q] = c
            else:
                del row[q]
            heap = [age[k] for k in row if k in pivots]
            heapify(heap)
            while heap:
                p = found[heappop(heap)]
                factor = row.pop(p, None)
                if factor is None:
                    continue
                for k, v in pivots[p].items():
                    if k in row:
                        w = row[k] - factor * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
                    else:
                        row[k] = -factor * v
                        if k in pivots:
                            heappush(heap, age[k])
            if not row:
                continue
            top = max(row)
            scale = one / row.pop(top)
            pivots[top] = {k: v * scale for k, v in row.items()}
            age[top] = len(found)
            found.append(top)
    return pivots


def reference_basis(group, d: int, pivots=None) -> list[dict]:
    """The reduced echelon basis of the fixed space, back-substituted from reference_pivots.

    One vector per free column f, in ascending order: 1 at f, 0 at the
    other free columns, and at each pivot column p, taken in ascending
    order, minus the pivot row's entries times the values already found
    (a pivot row holds only columns below its pivot). Keys ascend.
    pivots, if given, are reference_pivots(group, d) already computed.
    """
    backend = group.backend
    pivots = reference_pivots(group, d) if pivots is None else pivots
    basis = []
    for f in range(comb(group.n + d - 1, d)):
        if f in pivots:
            continue
        vector = {f: backend.one}
        for p in sorted(pivots):
            value = backend.zero
            for k, c in pivots[p].items():
                if k in vector:
                    value = value - c * vector[k]
            if value:
                vector[p] = value
        basis.append(dict(sorted(vector.items())))
    return basis


def to_sympy(matrix) -> sp.Matrix:
    """Convert a package SquareMatrix (either backend) into a sympy Matrix."""
    rows = []
    for row in matrix.rows:
        out = []
        for x in row:
            if isinstance(x, complex):
                out.append(sp.nsimplify(x.real) + sp.I * sp.nsimplify(x.imag))
            else:
                out.append(sp.Rational(x.re) + sp.I * sp.Rational(x.im))
        rows.append(out)
    return sp.Matrix(rows)


def sympy_molien(mats: list[sp.Matrix], max_degree: int) -> list[int]:
    """Molien coefficients by symbolic determinant and series expansion."""
    n = mats[0].shape[0]
    total = sum(1 / (sp.eye(n) - LAM * m).det() for m in mats) / len(mats)
    expansion = sp.series(sp.together(total), LAM, 0, max_degree + 1).removeO()
    expansion = sp.expand(expansion)
    return [int(sp.nsimplify(expansion.coeff(LAM, d))) for d in range(max_degree + 1)]


def sympy_molien_function(mats: list[sp.Matrix]) -> sp.Expr:
    """Molien's average (1/|G|) sum 1/det(1 - lam*g) over the given elements, cancelled."""
    n = mats[0].shape[0]
    return sp.cancel(sum(1 / (sp.eye(n) - LAM * m).det() for m in mats) / len(mats))


def pauli_elements(qubits: int) -> list[sp.Matrix]:
    """The Pauli group listed without closure.

    Each phase in {1, -1, i, -i} times each tensor product of I, X, Y and Z.
    """
    paulis = [
        sp.eye(2),
        sp.Matrix([[0, 1], [1, 0]]),
        sp.Matrix([[0, -sp.I], [sp.I, 0]]),
        sp.Matrix([[1, 0], [0, -1]]),
    ]
    products = [sp.eye(1)]
    for _ in range(qubits):
        products = [sp.kronecker_product(a, p) for a in products for p in paulis]
    return [phase * m for phase in (1, -1, sp.I, -sp.I) for m in products]


def sympy_induced(mat: sp.Matrix, monomials: list[tuple], n: int) -> sp.Matrix:
    """Induced matrix on a degree basis via sympy's own expansion.

    Variables map by x_i -> sum_k conj(A[k,i]) x_k; column j holds the
    coordinates of the image of the j-th basis monomial.
    """
    xs = sp.symbols(f"x1:{n + 1}")
    conj = mat.conjugate()
    images = {xs[i]: sum(conj[k, i] * xs[k] for k in range(n)) for i in range(n)}
    columns = []
    for mono in monomials:
        expr = sp.expand(sp.prod(images[xs[i]] ** e for i, e in enumerate(mono)))
        poly = sp.Poly(expr, *xs)
        columns.append([sp.simplify(poly.coeff_monomial(m)) for m in monomials])
    return sp.Matrix(columns).T


def sympy_fixed_space_dimension(mats: list[sp.Matrix], monomials: list[tuple], n: int) -> int:
    """Dimension of the common fixed space of the induced generators.

    Stacks (A_g^[d] - I) for every generator and counts the nullspace via
    sympy's rank, an elimination entirely separate from the package's.
    """
    size = len(monomials)
    blocks = [sympy_induced(m, monomials, n) - sp.eye(size) for m in mats]
    stacked = sp.Matrix.vstack(*blocks)
    return size - stacked.rank()


def brute_monomials(n: int, d: int) -> set[tuple]:
    """All degree-d exponent tuples by filtering the full cube."""
    return {
        combo
        for combo in itertools.product(range(d + 1), repeat=n)
        if sum(combo) == d
    }


def partitions_with_parts_at_most(d: int, max_part: int) -> int:
    """Count partitions of d into parts <= max_part (Molien of S_n on C^n)."""
    counts = [1] + [0] * d
    for part in range(1, max_part + 1):
        for total in range(part, d + 1):
            counts[total] += counts[total - part]
    return counts[d]


def rotation_invariant_count(order: int, d: int) -> int:
    """Invariant dimension of the planar rotation group C_order at degree d.

    In eigencoordinates the monomial z^p w^q is fixed iff p - q is 0 mod
    the rotation order.
    """
    return sum(1 for p in range(d + 1) if (p - (d - p)) % order == 0)


def sympy_reynolds(mats: list[sp.Matrix], monomials: list[tuple], n: int) -> sp.Matrix:
    """Group average of the induced matrices, expanded with sympy's Poly arithmetic.

    For matrices with Gaussian-rational entries: Poly coefficients are
    already canonical numbers, so no simplification is needed.
    """
    xs = sp.symbols(f"x1:{n + 1}")
    size = len(monomials)
    position = {m: i for i, m in enumerate(monomials)}
    total = sp.zeros(size, size)
    for mat in mats:
        conj = mat.conjugate()
        forms = [
            sp.Poly(sum(conj[k, i] * xs[k] for k in range(n)), *xs, domain=sp.QQ_I)
            for i in range(n)
        ]
        one = sp.Poly(1, *xs, domain=sp.QQ_I)
        for j, mono in enumerate(monomials):
            image = one
            for i, e in enumerate(mono):
                image = image * forms[i] ** e
            for m, c in image.terms():
                total[position[m], j] += c
    return total / len(mats)
