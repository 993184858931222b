"""Molien series: generating-function expansion and the three-way cross-check.

The series coefficients are computed three independent ways and compared:

* series -- average the truncated reciprocals of det(id - lambda*T_g),
* trace  -- the trace of the degree-d Reynolds matrix,
* rank   -- the dimension of the explicitly computed invariants.

Their degree-by-degree agreement is the content of Molien's 1897 formula.
det(id - lambda*T_g) is a class function, so on both backends the series
sums one reciprocal per distinct det, weighted by class size, and the
rational form reads the same sum over the lcm of those dets. Traces are
summed per conjugacy class too, walked once per orbit of classes under
central scalars and inversion, and the rank is the dimension of the
generators' common fixed space, so rank shares nothing with the other
two and no method sweeps the group. No trace is read off a det.

On the exact backend the series sum runs in the Gaussian integers Z[i]:
det(id - lambda*T_g) is the product of (1 - zeta*lambda) over the
eigenvalues zeta of T_g, roots of unity, so its coefficients are
algebraic integers in Q(i), that is in Z[i]. With constant term 1, each
reciprocal and the class-weighted sum stay in Z[i]; the one division is
by |G|, as each coefficient is built. A det coefficient outside Z[i] is
a ConsistencyError, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from molien.action import _Ladder
from molien.errors import BackendError, ConsistencyError, ValidationError
from molien.groups import FiniteMatrixGroup
from molien.invariants import _class_traces, _fixed_space_dimensions
from molien.matrices import UnivariatePoly, det_one_minus_lambda, poly_divmod, poly_gcd
from molien.scalars import ScalarBackend, _make


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series coefficients c_0..c_order over one scalar backend."""

    order: int
    coeffs: tuple
    backend: ScalarBackend

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValidationError("series must carry exactly order+1 coefficients")


@dataclass
class MolienReport:
    """Cross-verification record for the coefficients a_0..a_D."""

    max_degree: int
    group_order: int
    coefficients: list[int]
    per_method: dict[str, list[int]] = field(default_factory=dict)
    agreement: list[bool] = field(default_factory=list)

    def all_agree(self) -> bool:
        return all(self.agreement)


def series_reciprocal(p: UnivariatePoly, order: int) -> TruncatedSeries:
    """Invert a polynomial with constant term 1 as a power series mod lambda^(order+1).

    Uses the recurrence q_0 = 1, q_k = -sum_{j=1..min(k, deg p)} p_j q_{k-j}.
    """
    backend = p.backend
    if p.is_zero() or not backend.eq(p.coeffs[0], backend.one):
        raise ValidationError("series reciprocal needs constant term 1")
    if order < 0:
        raise ValidationError("series order must be nonnegative")
    coeffs = [backend.one]
    for k in range(1, order + 1):
        acc = backend.zero
        for j in range(1, min(k, p.degree) + 1):
            acc = acc + p.coeffs[j] * coeffs[k - j]
        coeffs.append(-acc)
    return TruncatedSeries(order, tuple(coeffs), backend)


def _distinct_dets(group: FiniteMatrixGroup) -> list[tuple[UnivariatePoly, int]]:
    """The distinct det(id - lambda*T_g) over the group with their multiplicities.

    The determinant is a class function: it is taken once per conjugacy
    class and counted with the class size. Listed in order of first
    occurrence in element order.
    """
    counts: dict[UnivariatePoly, int] = {}
    for members in group.conjugacy_classes():
        p = det_one_minus_lambda(group.elements[members[0]])
        counts[p] = counts.get(p, 0) + len(members)
    return list(counts.items())


def averaged_reciprocal_series(group: FiniteMatrixGroup, order: int) -> TruncatedSeries:
    """(1/|G|) sum over g of 1/det(id - lambda*T_g), truncated at the order.

    A negative order is refused here, before any class work, on both backends.
    """
    if order < 0:
        raise ValidationError("series order must be nonnegative")
    return _class_average(group, _distinct_dets(group), order)


def _class_average(group: FiniteMatrixGroup, terms: list, order: int) -> TruncatedSeries:
    """Molien's average from the distinct dets and their multiplicities.

    Where the backend lifts scalars to Gaussian integers, the recurrences
    and the weighted sum run on int pairs, and each coefficient is built
    once, as (re + im*i)/|G|. On floats one reciprocal per det is weighted
    and summed in the order of _distinct_dets, so rounding is reproducible.
    """
    backend = group.backend
    if backend.lift is not None:
        re, im = [0] * (order + 1), [0] * (order + 1)
        for p, multiplicity in terms:
            # p_0 = 1, so q_0 = 1 and q_k = -sum_{j=1..min(k, deg p)} p_j q_(k-j), over p_j != 0
            m, (tail,) = backend.lift([p.coeffs[1:]])
            if m != 1:
                raise ConsistencyError(f"a coefficient of {p!r} is not a Gaussian integer")
            nonzero = [(j, pair) for j, pair in enumerate(tail, 1) if pair != (0, 0)]
            qr, qi = [1], [0]
            for k in range(1, order + 1):
                sr = si = 0
                for j, (a, b) in nonzero:
                    if j > k:
                        break
                    c, d = qr[k - j], qi[k - j]
                    sr += a * c - b * d
                    si += a * d + b * c
                qr.append(-sr)
                qi.append(-si)
            re = [x + multiplicity * y for x, y in zip(re, qr)]
            im = [x + multiplicity * y for x, y in zip(im, qi)]
        return TruncatedSeries(
            order, tuple(map(_make, re, im, [group.order] * (order + 1))), backend
        )
    acc = [backend.zero] * (order + 1)
    for p, multiplicity in terms:
        expansion = series_reciprocal(p, order)
        acc = [a + multiplicity * c for a, c in zip(acc, expansion.coeffs)]
    factor = backend.coerce(Fraction(1, group.order))
    return TruncatedSeries(order, tuple(c * factor for c in acc), backend)


def _truncated_product(a: tuple, b: tuple, order: int, backend: ScalarBackend) -> tuple:
    """Coefficients 0..order of the product of the coefficient tuples a and b.

    b must hold at least order + 1 coefficients.
    """
    out = []
    for k in range(order + 1):
        acc = backend.zero
        for j in range(min(k, len(a) - 1) + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


def molien_series(group: FiniteMatrixGroup, max_degree: int) -> MolienReport:
    """Molien coefficients a_0..a_D from the generating-function formula."""
    series = averaged_reciprocal_series(group, max_degree)
    values = [
        series.backend.count(coeff, f"series coefficient at degree {d}")
        for d, coeff in enumerate(series.coeffs)
    ]
    if values[0] != 1:
        raise ConsistencyError(f"constant coefficient must be 1, got {values[0]}")
    return MolienReport(
        max_degree=max_degree,
        group_order=group.order,
        coefficients=values,
        per_method={"series": values},
        agreement=[True] * (max_degree + 1),
    )


def molien_rational(group: FiniteMatrixGroup) -> tuple[UnivariatePoly, UnivariatePoly]:
    """The Molien series as a reduced rational function (exact backend only).

    With L the lcm of the distinct det(id - lambda*T_g), the series times
    L is a polynomial of degree at most deg L, so the numerator is the
    series to order deg L times L, truncated there. The monic polynomial
    GCD is then removed and both sides scaled so the denominator has
    constant term 1.
    """
    backend = group.backend
    if not backend.is_exact:
        raise BackendError("molien_rational requires the exact backend")
    terms = _distinct_dets(group)
    denominator = UnivariatePoly.one(backend)
    for p, _ in terms:
        denominator = denominator * poly_divmod(p, poly_gcd(denominator, p))[0]
    order = denominator.degree
    series = _class_average(group, terms, order)
    numerator = UnivariatePoly(
        _truncated_product(series.coeffs, denominator.coeffs, order, backend), backend
    )

    common = poly_gcd(numerator, denominator)
    if common.degree > 0:
        numerator, rem_n = poly_divmod(numerator, common)
        denominator, rem_d = poly_divmod(denominator, common)
        if not (rem_n.is_zero() and rem_d.is_zero()):
            raise ConsistencyError("polynomial GCD failed to divide exactly")
    constant = denominator.coefficient(0)
    if not constant:
        raise ConsistencyError("reduced denominator has zero constant term")
    numerator = numerator.scale(backend.one / constant)
    denominator = denominator.scale(backend.one / constant)
    for poly in (numerator, denominator):
        for coeff in poly.coeffs:
            if not coeff.is_real():
                raise ConsistencyError(f"rational form has non-real coefficient {coeff!r}")
    return numerator, denominator


def expand_rational(
    numerator: UnivariatePoly, denominator: UnivariatePoly, order: int
) -> TruncatedSeries:
    """Series expansion of numerator/denominator with denominator(0) = 1."""
    inverse = series_reciprocal(denominator, order)
    backend = numerator.backend
    coeffs = _truncated_product(numerator.coeffs, inverse.coeffs, order, backend)
    return TruncatedSeries(order, coeffs, backend)


def cross_check(group: FiniteMatrixGroup, max_degree: int) -> MolienReport:
    """Verify series, trace, and rank coefficients against each other.

    Disagreement is reported through the agreement flags, never raised;
    consistency errors (non-integer traces or coefficients) do propagate.
    """
    report = molien_series(group, max_degree)
    ladder = _Ladder(group.n, max_degree)
    trace_values = _class_traces(group, ladder)
    rank_values = _fixed_space_dimensions(group, ladder)
    series_values = report.per_method["series"]
    report.per_method["trace"] = trace_values
    report.per_method["rank"] = rank_values
    report.agreement = [
        series_values[d] == trace_values[d] == rank_values[d]
        for d in range(max_degree + 1)
    ]
    return report
