"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own arithmetic: sympy
symbolics for series and induced actions, itertools brute force for
counting. Expected values frozen into tests were produced by these. The
three exceptions are references for an algorithm rather than its
arithmetic: reference_closure multiplies with the package's own matrix
product, reference_class_average sums the package's own reciprocals, and
averaged_monomial_basis row-reduces with the package's own row_reduce.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy as sp

from molien import SparsePolynomial, SquareMatrix, row_reduce, series_reciprocal
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
