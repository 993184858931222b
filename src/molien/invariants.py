"""Reynolds operators, invariant dimensions, and explicit invariant bases."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from molien.action import induced_first, induced_matrix
from molien.errors import ConsistencyError
from molien.groups import FiniteMatrixGroup
from molien.matrices import SquareMatrix, row_reduce
from molien.polynomials import MonomialBasis, SparsePolynomial, monomial_basis, substitute_linear

# Accumulated float error over |G| terms needs more headroom than the
# arithmetic tolerance when deciding whether a trace is an integer.
INTEGER_ROUNDING_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ReynoldsMatrix:
    """Group average of the degree-d induced matrices; an idempotent projection."""

    d: int
    basis: MonomialBasis
    matrix: SquareMatrix


def reynolds_matrix(group: FiniteMatrixGroup, d: int) -> ReynoldsMatrix:
    """Average the induced matrices over the group, in element order."""
    basis = monomial_basis(group.n, d)
    acc = None
    for element in group.elements:
        term = induced_matrix(element, basis)
        acc = term if acc is None else acc + term
    averaged = acc.scale(Fraction(1, group.order))
    return ReynoldsMatrix(d, basis, averaged)


def _as_integer(value, backend, tolerance: float) -> int:
    if backend.is_exact:
        if not value.is_integer():
            raise ConsistencyError(f"expected an integer, got {value!r}")
        return int(value.re)
    nearest = round(value.real)
    if abs(value - nearest) > tolerance:
        raise ConsistencyError(f"expected an integer within {tolerance}, got {value!r}")
    return nearest


def invariant_dimension(reynolds: ReynoldsMatrix) -> int:
    """Dimension of the degree-d invariants: the trace of the Reynolds matrix."""
    trace = reynolds.matrix.trace()
    value = _as_integer(trace, reynolds.matrix.backend, INTEGER_ROUNDING_TOLERANCE)
    if value < 0:
        raise ConsistencyError(f"negative invariant dimension {value}")
    return value


def invariant_basis(
    group: FiniteMatrixGroup, d: int, reynolds: ReynoldsMatrix | None = None
) -> list[SparsePolynomial]:
    """Basis of the degree-d invariants, from row-reduced Reynolds images.

    The Reynolds matrix is applied to every basis monomial; the nonzero
    images are row-reduced, and the reduced rows come back as polynomials
    whose leading (grlex-first) coefficient is 1.
    """
    if reynolds is None:
        reynolds = reynolds_matrix(group, d)
    matrix = reynolds.matrix
    backend = matrix.backend
    size = matrix.n
    image_rows = []
    for j in range(size):
        column = [matrix.rows[i][j] for i in range(size)]
        if any(not backend.is_zero(x) for x in column):
            image_rows.append(column)
    if not image_rows:
        return []
    rank, reduced = row_reduce(image_rows, backend)
    return [
        SparsePolynomial.from_coefficient_vector(row, reynolds.basis, backend)
        for row in reduced[:rank]
    ]


def verify_invariant(f: SparsePolynomial, group: FiniteMatrixGroup) -> bool:
    """True iff every generator fixes f (generators suffice for the whole group)."""
    for generator in group.generators():
        moved = substitute_linear(f, induced_first(generator))
        if not moved.equals(f):
            return False
    return True
