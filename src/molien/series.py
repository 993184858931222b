"""Molien series: generating-function expansion and the three-way cross-check.

The series coefficients are computed three independent ways and compared:

* series -- average the truncated reciprocals of det(id - lambda*T_g),
* trace  -- the trace of the degree-d Reynolds matrix,
* rank   -- the dimension of the explicitly computed invariants.

Their degree-by-degree agreement is the content of Molien's 1897 formula.
det(id - lambda*T_g) is a class function, so on both backends the series
sums one reciprocal per distinct det, weighted by class size, and the
rational form reads the same sum times the lcm of those dets. Traces are
summed per conjugacy class too, walked once per orbit of classes under
central scalars and inversion, and the rank is the dimension of the
generators' common fixed space, so rank shares nothing with the other
two and no method sweeps the group. No trace is read off a det.

On the exact backend the series sum runs in the Gaussian integers Z[i]:
det(id - lambda*T_g) is the product of (1 - zeta*lambda) over the
eigenvalues zeta of T_g, roots of unity, so its coefficients are
algebraic integers in Q(i), that is in Z[i]. With constant term 1, each
reciprocal and the class-weighted sum stay in Z[i]; the one division is
by |G|, as each coefficient is built. The rational form stays on the
same int pairs: every factor of a det with constant term 1 is a product
of such (1 - zeta*lambda), so the lcm, its gcd with the numerator and
the quotients by it are all in Z[i][lambda], and a scalar is built once
per output coefficient. A det coefficient outside Z[i], or a division
that is not exact there, is a ConsistencyError, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from molien.action import _Ladder
from molien.errors import BackendError, ConsistencyError, ValidationError
from molien.groups import FiniteMatrixGroup
from molien.invariants import _class_traces, _fixed_space_dimensions
from molien.matrices import UnivariatePoly, det_one_minus_lambda
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
        re, im = _gaussian_sum(_lifted(terms, backend), order)
        return TruncatedSeries(order, tuple(map(_make, re, im, [group.order] * (order + 1))), backend)
    acc = [backend.zero] * (order + 1)
    for p, multiplicity in terms:
        expansion = series_reciprocal(p, order)
        acc = [a + multiplicity * c for a, c in zip(acc, expansion.coeffs)]
    factor = backend.coerce(Fraction(1, group.order))
    return TruncatedSeries(order, tuple(c * factor for c in acc), backend)


def _lifted(terms: list, backend: ScalarBackend) -> list:
    """Each det as Gaussian-integer (re, im) pairs, lambda^0 first, with its multiplicity."""
    out = []
    for p, multiplicity in terms:
        m, (pairs,) = backend.lift([p.coeffs])
        if m != 1:
            raise ConsistencyError(f"a coefficient of {p!r} is not a Gaussian integer")
        out.append((pairs, multiplicity))
    return out


def _gaussian_sum(dets: list, order: int) -> tuple[list, list]:
    """Real and imaginary parts of sum multiplicity/p over the lifted dets, to the order, on ints."""
    re, im = [0] * (order + 1), [0] * (order + 1)
    for pairs, multiplicity in dets:
        # p_0 = 1, so q_0 = 1 and q_k = -sum_{j=1..min(k, deg p)} p_j q_(k-j), over p_j != 0
        nonzero = [(j, pair) for j, pair in enumerate(pairs) if j and pair != (0, 0)]
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
    return re, im


def _pair_multiply(a: list, b: list, size: int) -> list:
    """Coefficients 0..size-1 of the product of two (re, im) int pair polynomials, lambda^0 first."""
    out = [(0, 0)] * size
    for i, (x, y) in enumerate(a[:size]):
        for j, (u, v) in enumerate(b[:size - i], i):
            r, s = out[j]
            out[j] = (r + x * u - y * v, s + x * v + y * u)
    return out


def _pair_gcd(a: list, b: list) -> list:
    """The gcd over Q(i) of pair polynomials a and b, b a product of dets, scaled to constant term 1.

    A pseudo-remainder sequence on Z[i]: the divisor is multiplied by the
    conjugate of its leading coefficient, which becomes a positive int N,
    and the dividend by N only where a step would not divide exactly. Each
    remainder is divided by the int gcd of its parts. The gcd divides b,
    and each factor of a det with constant term 1 is a product of
    (1 - zeta*lambda), zeta roots of unity, whose coefficients are
    algebraic integers in Q(i): so the last divisor over its constant term
    is in Z[i][lambda].
    """
    while b:
        lr, li = b[-1]
        n, top, r = lr * lr + li * li, len(b) - 1, list(a)
        b = [(x * lr + y * li, y * lr - x * li) for x, y in b]
        while len(r) > top:
            # clear the top f: r - (f/N) lambda^k b, or N r - f lambda^k b where N does not divide f
            fr, fi = r.pop()
            if fr % n or fi % n:
                r = [(n * x, n * y) for x, y in r]
            else:
                fr, fi = fr // n, fi // n
            for j, (u, v) in enumerate(b[:top], len(r) - top):
                x, y = r[j]
                r[j] = (x - fr * u + fi * v, y - fr * v - fi * u)
        while r and r[-1] == (0, 0):
            r.pop()
        g = 0
        for x, y in r:
            g = gcd(g, x, y)
        a, b = b, [(x // g, y // g) for x, y in r]
    return _pair_quotient(a, a[:1])


def _pair_quotient(a: list, b: list) -> list:
    """a / b as a power series on pairs, b(0) != 0; ConsistencyError unless it is exact in Z[i]."""
    (cr, ci), q = b[0], []
    n = cr * cr + ci * ci
    for k, (x, y) in enumerate(a):
        for j in range(1, min(k, len(b) - 1) + 1):
            (u, v), (s, t) = b[j], q[k - j]
            x, y = x - u * s + v * t, y - u * t - v * s
        x, y = x * cr + y * ci, y * cr - x * ci
        if x % n or y % n:
            raise ConsistencyError(f"{b} does not divide {a} in Z[i][lambda]")
        q.append((x // n, y // n))
    size = max(len(a) - len(b) + 1, 0)
    if any(pair != (0, 0) for pair in q[size:]):
        raise ConsistencyError(f"{b} does not divide {a} in Z[i][lambda]")
    return q[:size]


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

    Every det(id - lambda*T_g) is taken once per distinct det as Gaussian
    integer pairs, and the whole form is worked out on ints. With L the lcm
    of the distinct dets, L <- L * (p / gcd(L, p)) over them, the series
    times L is a polynomial of degree at most deg L, so |G| times the
    numerator is the class sum to order deg L times L, truncated there.
    Its gcd with L is divided out of both. Each gcd is scaled to constant
    term 1, and each such factor of a det is a product of (1 - zeta*lambda),
    zeta roots of unity, so it and every quotient by it have coefficients
    in Z[i]: an inexact step is a ConsistencyError, never rounded. The
    reduced form with denominator(0) = 1 is unique, and a GaussianRational
    is built once per output coefficient.
    """
    backend = group.backend
    if not backend.is_exact:
        raise BackendError("molien_rational requires the exact backend")
    dets = _lifted(_distinct_dets(group), backend)
    denominator = [(1, 0)]
    for p, _ in dets:
        p = _pair_quotient(p, _pair_gcd(denominator, p))
        denominator = _pair_multiply(denominator, p, len(denominator) + len(p) - 1)
    order = len(denominator) - 1
    numerator = _pair_multiply(list(zip(*_gaussian_sum(dets, order))), denominator, order + 1)
    common = _pair_gcd(numerator, denominator)
    numerator, denominator = _pair_quotient(numerator, common), _pair_quotient(denominator, common)
    if any(y for _, y in numerator + denominator):
        raise ConsistencyError(f"non-real rational form {numerator} / {group.order} over {denominator}")
    return (
        UnivariatePoly([_make(x, y, group.order) for x, y in numerator], backend),
        UnivariatePoly([_make(x, y, 1) for x, y in denominator], backend),
    )


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
