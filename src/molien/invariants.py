"""Reynolds operators, invariant dimensions, and explicit invariant bases.

The paper's method averages over every group element; reynolds_matrix
is that average at one degree, and invariant_dimension its trace. The
traces and bases computed here never sweep the group: traces are taken
once per conjugacy class and weighted by class size, and the basis is
the common fixed space of the generators, eliminated on sparse rows.
Each backend has its own bodies. On floats the rows are scaled to the
Bombieri orthonormal basis. On the exact backend both run on the walk's
Gaussian-integer pairs: a trace is one division per class and degree,
and the elimination is fraction-free, with the pivots of Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, prod, sqrt

from molien.action import _image_terms, _Ladder, _lowered, dense_matrix, monomial_images
from molien.errors import ShapeError
from molien.groups import FiniteMatrixGroup
from molien.matrices import SquareMatrix, row_reduce
from molien.polynomials import MonomialBasis, SparsePolynomial
from molien.scalars import GaussianRational, _make, check_same_backend


@dataclass(frozen=True)
class ReynoldsMatrix:
    """Group average of the degree-d induced matrices; an idempotent projection."""

    d: int
    basis: MonomialBasis
    matrix: SquareMatrix


def reynolds_matrix(group: FiniteMatrixGroup, d: int) -> ReynoldsMatrix:
    """The degree-d Reynolds matrix: the group average of the induced matrices.

    Each element's degree-d monomial images are added into sparse columns,
    in element order; the sums are scaled by 1/|G| once.
    """
    ladder = _Ladder(group.n, d)
    columns = [{} for _ in range(comb(group.n + d - 1, d))]
    for element in group.elements:
        for images in monomial_images(element, ladder):
            pass
        for column, image in zip(columns, _lowered(element, d, images)):
            for q, c in image.items():
                column[q] = column[q] + c if q in column else c
    backend = group.backend
    factor = backend.coerce(Fraction(1, group.order))
    scaled = [{q: factor * c for q, c in column.items()} for column in columns]
    return ReynoldsMatrix(d, MonomialBasis(group.n, d), dense_matrix(scaled, backend))


def reynolds_traces(group: FiniteMatrixGroup, max_degree: int) -> list[int]:
    """Tr of the Reynolds matrices of degrees 0..max_degree, as counts.

    Tr rho_d(g) is a class function, so each class adds its size times the
    trace at its first element, read from the diagonals of that element's
    monomial images; the sums are scaled by 1/|G| once. The walk wants
    only the entries that can feed a diagonal up to max_degree, and every
    diagonal is the full walk's bit for bit.
    """
    return _class_traces(group, _Ladder(group.n, max_degree))


def _class_traces(group: FiniteMatrixGroup, ladder: _Ladder) -> list[int]:
    """reynolds_traces on a ladder already built."""
    backend = group.backend
    traces = _TRACES[backend.scalar]
    sums = [backend.zero] * (ladder.top + 1)
    for members in group.conjugacy_classes():
        for d, trace in enumerate(traces(group.elements[members[0]], ladder)):
            sums[d] = sums[d] + len(members) * trace
    factor = backend.coerce(Fraction(1, group.order))
    return [
        backend.count(total * factor, f"Reynolds trace at degree {d}")
        for d, total in enumerate(sums)
    ]


def _complex_traces(a: SquareMatrix, ladder: _Ladder):
    """Tr rho_d(a) for d = 0..top: the diagonal entries summed in position order."""
    for images in monomial_images(a, ladder, ladder.to_diagonals):
        trace = 0j
        for j, image in enumerate(images):
            if j in image:
                trace = trace + image[j]
        yield trace


def _pair_traces(a: SquareMatrix, ladder: _Ladder):
    """Tr rho_d(a) for d = 0..top: the diagonal pairs of m*a summed, then divided once by m^d."""
    m = a.backend.lift(a.rows)[0]
    for d, images in enumerate(monomial_images(a, ladder, ladder.to_diagonals)):
        diagonal = [image[j] for j, image in enumerate(images) if j in image]
        yield _make(sum(x for x, _ in diagonal), sum(y for _, y in diagonal), m**d)


def _bombieri_weights(basis: MonomialBasis) -> list[float]:
    """sqrt(d!/a!) for each basis monomial x^a: the diagonal of W.

    The monomials x^a * sqrt(d!/a!) are orthonormal for the Bombieri inner
    product, in which rho_d(g) is unitary for unitary g; so W^-1 rho_d(g) W
    is unitary and W^-1 (rho_d(g) - I) W has entries of absolute value at most 2.
    """
    top = factorial(basis.d)
    return [sqrt(top // prod(map(factorial, a))) for a in basis.monomials]


def _eliminate(group: FiniteMatrixGroup, per_generator: tuple, d: int) -> tuple:
    """(W, pivots) of the rows of rho_d(s) - I over the generators s, by the backend's body.

    pivots maps each pivot column to its row, in the order found. No pivot
    row holds an earlier pivot column, so each new row is reduced by the
    known pivots oldest first before its own pivot is chosen.
    """
    return _ELIMINATIONS[group.backend.scalar](group, per_generator, d)


def _complex_eliminate(group: FiniteMatrixGroup, per_generator: tuple, d: int) -> tuple:
    """The float body, on the rows of W^-1 (rho_d(s) - I) W.

    A row's pivot is its entry of largest absolute value above the
    tolerance; pivots map to the rest of the row divided by it.
    """
    one, pivot = group.backend.one, group.backend.pivot
    weights = _bombieri_weights(MonomialBasis(group.n, d))
    pivots, found, age = {}, [], {}
    for images in per_generator:
        rows = [{} for _ in weights]
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
            wq = weights[q]
            row = {k: v * (weights[k] / wq) for k, v in row.items()}
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
            top = pivot(row)
            if top is None:
                continue
            scale = one / row.pop(top)
            pivots[top] = {k: v * scale for k, v in row.items()}
            age[top] = len(found)
            found.append(top)
    return weights, pivots


def _pair_eliminate(group: FiniteMatrixGroup, per_generator: tuple, d: int) -> tuple:
    """The exact body, fraction-free on the (re, im) rows of rho_d(m s) - m^d I = m^d (rho_d(s) - I).

    Pivot row v, pivot P, reduces a row to (P*row - f*v)/g, f its entry at
    the pivot column and g = gcd(P, f): a nonzero multiple of the row reduced
    over Q(i), so its pivot, the largest column, is the same. A new pivot
    row is multiplied by its pivot's conjugate and divided by the gcd of its
    parts, so P is a positive int. W is None; pivots map to (P, row).
    """
    pivots, found, age = {}, [], {}
    for s, images in zip(group.generators(), per_generator):
        unit = s.backend.lift(s.rows)[0] ** d
        rows = [{} for _ in range(comb(group.n + d - 1, d))]
        for j, image in enumerate(images):
            for q, c in image.items():
                rows[q][j] = c
        for q, row in enumerate(rows):
            re, im = row.get(q, (0, 0))
            row[q] = (re - unit, im)
            if row[q] == (0, 0):
                del row[q]
            heap = [age[k] for k in row if k in pivots]
            heapify(heap)
            while heap:
                p = found[heappop(heap)]
                if p not in row:
                    continue
                fr, fi = row.pop(p)
                scale, pivot_row = pivots[p]
                g = gcd(scale, fr, fi)
                scale, fr, fi = scale // g, fr // g, fi // g
                if scale != 1:
                    row = {k: (scale * x, scale * y) for k, (x, y) in row.items()}
                for k, (x, y) in pivot_row.items():
                    if k in pivots and k not in row:
                        heappush(heap, age[k])
                    a, b = row.pop(k, (0, 0))
                    a, b = a - fr * x + fi * y, b - fr * y - fi * x
                    if a or b:
                        row[k] = (a, b)
            if row:
                top = max(row)
                pr, pi = row.pop(top)
                norm = pr * pr + pi * pi
                row = {k: (x * pr + y * pi, y * pr - x * pi) for k, (x, y) in row.items()}
                g = gcd(norm, *(part for pair in row.values() for part in pair))
                pivots[top] = (norm // g, {k: (x // g, y // g) for k, (x, y) in row.items()})
                age[top] = len(found)
                found.append(top)
    return None, pivots


# each backend's bodies, by its scalar type
_TRACES = {complex: _complex_traces, GaussianRational: _pair_traces}
_ELIMINATIONS = {complex: _complex_eliminate, GaussianRational: _pair_eliminate}


def fixed_space_dimensions(group: FiniteMatrixGroup, max_degree: int) -> list[int]:
    """Dimensions of the generators' common fixed spaces, degrees 0..max_degree."""
    return _fixed_space_dimensions(group, _Ladder(group.n, max_degree))


def _fixed_space_dimensions(group: FiniteMatrixGroup, ladder: _Ladder) -> list[int]:
    """fixed_space_dimensions on a ladder already built."""
    walks = zip(*(monomial_images(s, ladder) for s in group.generators()))
    return [
        comb(group.n + d - 1, d) - len(_eliminate(group, images, d)[1])
        for d, images in enumerate(walks)
    ]


def invariant_basis(group: FiniteMatrixGroup, d: int) -> list[SparsePolynomial]:
    """Basis of the degree-d invariants: the reduced echelon basis of the common fixed space.

    Polynomials come back with leading (grlex-first) coefficient 1. Exact
    pivot rows are divided by their pivot P here, once per entry; then
    back-substitution, newest pivot first, writes every pivot variable in
    terms of the free columns; the kernel vector of free column f is 1 at
    f and 0 at the other free columns. On the exact backend every pivot
    is the largest column of its row, so f is the first nonzero entry of
    its vector: that is the unique reduced echelon form, the basis the
    paper's averaged monomials row-reduce to. On the float backend the
    vectors are mapped back by W and row-reduced into that form.
    """
    ladder = _Ladder(group.n, d)
    for images in zip(*(monomial_images(s, ladder) for s in group.generators())):
        pass
    backend = group.backend
    weights, pivots = _eliminate(group, images, d)
    if weights is None:
        pivots = {t: {k: _make(*v, p) for k, v in row.items()} for t, (p, row) in pivots.items()}
    basis = MonomialBasis(group.n, d)
    zero, one = backend.zero, backend.one
    vectors = {f: {f: one} for f in range(len(basis)) if f not in pivots}
    solved: dict = {}  # pivot column -> {free column: its coefficient}
    for p in reversed(pivots):
        acc: dict = {}
        for k, v in pivots[p].items():
            for f, w in (solved[k].items() if k in pivots else ((k, one),)):
                acc[f] = acc.get(f, zero) - v * w
        solved[p] = coeffs = {f: w for f, w in acc.items() if w}
        for f, w in coeffs.items():
            vectors[f][p] = w
    monomials = basis.monomials
    if weights is None:
        return [
            SparsePolynomial(basis.n, {monomials[q]: vector[q] for q in sorted(vector)}, backend)
            for vector in vectors.values()
        ]
    rows = [
        [vector[q] * w if q in vector else zero for q, w in enumerate(weights)]
        for vector in vectors.values()
    ]
    rank, reduced = row_reduce(rows, backend)
    return [
        SparsePolynomial.from_coefficient_vector(row, basis, backend) for row in reduced[:rank]
    ]


def invariant_dimension(reynolds: ReynoldsMatrix) -> int:
    """Dimension of the degree-d invariants: the trace of the Reynolds matrix."""
    trace = reynolds.matrix.trace()
    return reynolds.matrix.backend.count(trace, f"Reynolds trace at degree {reynolds.d}")


def verify_invariant(f: SparsePolynomial, group: FiniteMatrixGroup) -> bool:
    """True iff every generator fixes f (generators suffice for the whole group).

    Each generator acts through the monomial images of molien.action, so
    no coefficient is dropped by the float tolerance while the image is
    built; the image and f are then compared coefficient by coefficient,
    exactly or within the backend tolerance.
    """
    if f.n != group.n:
        raise ShapeError(f"polynomial in {f.n} variables, group acts on {group.n}")
    backend = group.backend
    check_same_backend(f.backend, backend)
    zero, is_zero = backend.zero, backend.is_zero
    for s in group.generators():
        moved = _image_terms(f, s)
        for mono in moved.keys() | f.terms.keys():
            if not is_zero(moved.get(mono, zero) - f.terms.get(mono, zero)):
                return False
    return True
