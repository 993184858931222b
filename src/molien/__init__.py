"""Molien series of finite unitary matrix groups.

From generators of a finite group of unitary matrices, compute the Molien
series of the invariant ring, explicit bases of homogeneous invariants
per degree, and cross-verify every coefficient three independent ways:
generating-function expansion, Reynolds-operator trace, and a rank. On
both backends the rank is the dimension of the generators' common fixed
space.
"""

from molien.action import induced_matrix
from molien.errors import (
    BackendError,
    ClosureOverflowError,
    ConsistencyError,
    MolienError,
    ScalarParseError,
    ShapeError,
    ValidationError,
)
from molien.groups import (
    FiniteMatrixGroup,
    close_group,
    from_permutations,
    permutation_from_cycles,
)
from molien.invariants import (
    ReynoldsMatrix,
    invariant_basis,
    invariant_dimension,
    reynolds_matrix,
    verify_invariant,
)
from molien.matrices import (
    SquareMatrix,
    UnivariatePoly,
    det_one_minus_lambda,
    row_reduce,
)
from molien.polynomials import (
    MonomialBasis,
    SparsePolynomial,
    format_polynomial,
    parse_polynomial,
    substitute_linear,
)
from molien.scalars import (
    ACTIVE_IMPLEMENTATION,
    EXACT,
    GaussianRational,
    ScalarBackend,
    float_backend,
    format_scalar,
    parse_scalar,
)
from molien.series import (
    MolienReport,
    TruncatedSeries,
    averaged_reciprocal_series,
    cross_check,
    expand_rational,
    molien_rational,
    molien_series,
    series_reciprocal,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_IMPLEMENTATION",
    "BackendError",
    "ClosureOverflowError",
    "ConsistencyError",
    "EXACT",
    "FiniteMatrixGroup",
    "GaussianRational",
    "MolienError",
    "MolienReport",
    "MonomialBasis",
    "ReynoldsMatrix",
    "ScalarBackend",
    "ScalarParseError",
    "ShapeError",
    "SparsePolynomial",
    "SquareMatrix",
    "TruncatedSeries",
    "UnivariatePoly",
    "ValidationError",
    "averaged_reciprocal_series",
    "close_group",
    "cross_check",
    "det_one_minus_lambda",
    "expand_rational",
    "float_backend",
    "format_polynomial",
    "format_scalar",
    "from_permutations",
    "induced_matrix",
    "invariant_basis",
    "invariant_dimension",
    "molien_rational",
    "molien_series",
    "parse_polynomial",
    "parse_scalar",
    "permutation_from_cycles",
    "reynolds_matrix",
    "row_reduce",
    "series_reciprocal",
    "substitute_linear",
    "verify_invariant",
]
