"""Reynolds operators, invariant dimensions, and explicit invariant bases."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from molien.action import dense_matrix, monomial_images, monomial_ladder
from molien.errors import ConsistencyError, ShapeError
from molien.groups import FiniteMatrixGroup
from molien.matrices import SquareMatrix, row_reduce
from molien.polynomials import MonomialBasis, SparsePolynomial
from molien.scalars import check_same_backend

# Accumulated float error over |G| terms needs more headroom than the
# arithmetic tolerance when deciding whether a trace is an integer.
INTEGER_ROUNDING_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ReynoldsMatrix:
    """Group average of the degree-d induced matrices; an idempotent projection."""

    d: int
    basis: MonomialBasis
    matrix: SquareMatrix


def reynolds_matrices(group: FiniteMatrixGroup, max_degree: int) -> Iterator[ReynoldsMatrix]:
    """The Reynolds matrices of degrees 0..max_degree, from one sweep over the group.

    Each element's basis-monomial images of every degree are added into
    sparse columns, in element order; the sums are scaled by 1/|G| once.
    A degree's matrix is made dense only when the iteration reaches it.
    """
    if max_degree < 0:
        raise ShapeError("degree must be nonnegative")
    ladder = monomial_ladder(group.n, max_degree)
    sums = [[{} for _ in step.basis.monomials] for step in ladder]
    for element in group.elements:
        for columns, images in zip(sums, monomial_images(element, ladder)):
            for column, image in zip(columns, images):
                for q, c in image.items():
                    if q in column:
                        column[q] = column[q] + c
                    else:
                        column[q] = c
    backend = group.backend
    factor = backend.coerce(Fraction(1, group.order))
    for step, columns in zip(ladder, sums):
        scaled = [{q: factor * c for q, c in column.items()} for column in columns]
        yield ReynoldsMatrix(step.basis.d, step.basis, dense_matrix(scaled, backend))


def reynolds_matrix(group: FiniteMatrixGroup, d: int) -> ReynoldsMatrix:
    """The degree-d Reynolds matrix: the last item of reynolds_matrices(group, d)."""
    for reynolds in reynolds_matrices(group, d):
        pass
    return reynolds


def as_count(value, backend, what: str) -> int:
    """The nonnegative integer an exact or float scalar stands for.

    Exact values must be integers; float values must lie within
    INTEGER_ROUNDING_TOLERANCE of one. Anything else raises
    ConsistencyError, whose message starts with `what`.
    """
    if backend.is_exact:
        if not value.is_integer():
            raise ConsistencyError(f"{what} is not an integer: {value!r}")
        count = value.re_num
    else:
        count = round(value.real)
        if abs(value - count) > INTEGER_ROUNDING_TOLERANCE:
            raise ConsistencyError(
                f"{what} is {value!r}, not within {INTEGER_ROUNDING_TOLERANCE} of an integer"
            )
    if count < 0:
        raise ConsistencyError(f"{what} is negative: {count}")
    return count


def invariant_dimension(reynolds: ReynoldsMatrix) -> int:
    """Dimension of the degree-d invariants: the trace of the Reynolds matrix."""
    trace = reynolds.matrix.trace()
    return as_count(trace, reynolds.matrix.backend, f"Reynolds trace at degree {reynolds.d}")


def invariant_basis(
    group: FiniteMatrixGroup, d: int, reynolds: ReynoldsMatrix | None = None
) -> list[SparsePolynomial]:
    """Basis of the degree-d invariants, from row-reduced Reynolds images.

    The Reynolds matrix is applied to every basis monomial; the nonzero
    images, each distinct one once, are row-reduced, and the reduced rows
    come back as polynomials whose leading (grlex-first) coefficient is 1.
    """
    if reynolds is None:
        reynolds = reynolds_matrix(group, d)
    matrix = reynolds.matrix
    backend = matrix.backend
    image_rows = []
    seen = set()
    for column in zip(*matrix.rows):
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


def verify_invariant(f: SparsePolynomial, group: FiniteMatrixGroup) -> bool:
    """True iff every generator fixes f (generators suffice for the whole group).

    Each generator acts through monomial_images, as in the Reynolds sweep,
    so no coefficient is dropped by the float tolerance while the image is
    built; the image and f are then compared coefficient by coefficient,
    exactly or within the backend tolerance.
    """
    if f.n != group.n:
        raise ShapeError(f"polynomial in {f.n} variables, group acts on {group.n}")
    backend = group.backend
    check_same_backend(f.backend, backend)
    if f.is_zero():
        return True
    ladder = monomial_ladder(f.n, f.degree())
    # f split by degree, each part keyed by basis position
    parts = [{} for _ in ladder]
    for mono, c in f.terms.items():
        d = sum(mono)
        parts[d][ladder[d].basis.index[mono]] = c
    zero, is_zero = backend.zero, backend.is_zero
    for generator in group.generators():
        for part, images in zip(parts, monomial_images(generator, ladder)):
            moved: dict = {}
            for j, c in part.items():
                for q, v in images[j].items():
                    if q in moved:
                        moved[q] = moved[q] + c * v
                    else:
                        moved[q] = c * v
            for q in moved.keys() | part.keys():
                if not is_zero(moved.get(q, zero) - part.get(q, zero)):
                    return False
    return True
