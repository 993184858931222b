"""Truncated series inversion, Molien coefficients, rational form, cross-check."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from math import comb, prod

import pytest
import sympy as sp

import corpus
from molien import (
    EXACT,
    BackendError,
    ConsistencyError,
    GaussianRational,
    SquareMatrix,
    UnivariatePoly,
    ValidationError,
    averaged_reciprocal_series,
    close_group,
    cross_check,
    expand_rational,
    format_scalar,
    invariant_basis,
    molien_rational,
    molien_series,
    parse_polynomial,
    series_reciprocal,
    verify_invariant,
)
from molien.cli import main
from molien.invariants import fixed_space_dimensions, reynolds_traces
from molien.matrices import _monomial
from molien.series import _class_average, _pair_gcd, _pair_multiply, _pair_quotient
from oracles import (
    LAM,
    partitions_with_parts_at_most,
    pauli_elements,
    reference_class_average,
    sympy_molien,
    sympy_molien_function,
    to_sympy,
)


def ints(series):
    return [int(c.re) for c in series.coeffs]


class TestSeriesReciprocal:
    def test_geometric(self):
        p = UnivariatePoly([1, -1], EXACT)
        assert ints(series_reciprocal(p, 3)) == [1, 1, 1, 1]

    def test_alternating(self):
        p = UnivariatePoly([1, 0, 1], EXACT)
        assert ints(series_reciprocal(p, 4)) == [1, 0, -1, 0, 1]

    def test_derivative_of_geometric(self):
        p = UnivariatePoly([1, -2, 1], EXACT)
        assert ints(series_reciprocal(p, 3)) == [1, 2, 3, 4]

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValidationError):
            series_reciprocal(UnivariatePoly([2, 1], EXACT), 3)
        with pytest.raises(ValidationError):
            series_reciprocal(UnivariatePoly([], EXACT), 3)

    def test_product_is_one_mod_truncation(self):
        rng = random.Random(23)
        for _ in range(40):
            coeffs = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
            p = UnivariatePoly(coeffs, EXACT)
            order = 8
            q = series_reciprocal(p, order)
            product = p * UnivariatePoly(q.coeffs, EXACT)
            assert product.coeffs[0] == EXACT.one
            assert not any(product.coeffs[1 : order + 1])


class TestMolienSeries:
    def test_trivial_group_on_c2(self):
        report = molien_series(corpus.trivial(2), 4)
        assert report.coefficients == [1, 2, 3, 4, 5]

    def test_pm_identity(self):
        report = molien_series(corpus.plus_minus_i2(), 4)
        assert report.coefficients == [1, 0, 3, 0, 5]

    def test_s3_partition_numbers(self):
        report = molien_series(corpus.s3(), 6)
        expected = [partitions_with_parts_at_most(d, 3) for d in range(7)]
        assert report.coefficients == expected == [1, 1, 2, 3, 4, 5, 7]

    def test_s2_partition_numbers(self):
        assert molien_series(corpus.s2(), 5).coefficients == [1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trivial_group_binomials(self, n):
        report = molien_series(corpus.trivial(n), 8)
        assert report.coefficients == [comb(n + d - 1, d) for d in range(9)]

    def test_group_order_recorded(self):
        report = molien_series(corpus.q8(), 2)
        assert report.group_order == 8

    @pytest.mark.parametrize("build", [corpus.d4, corpus.q8, corpus.c4])
    def test_against_sympy(self, build):
        group = build()
        expected = sympy_molien([to_sympy(g) for g in group.elements], 6)
        assert molien_series(group, 6).coefficients == expected

    def test_summing_over_conjugates_matches(self, corpus):
        # the entrywise conjugates form a group whose series is the
        # conjugate of G's, and G's series is real
        for group in corpus.values():
            direct = averaged_reciprocal_series(group, 6)
            conjugate_group = close_group([g.entrywise_conj() for g in group.generators()])
            conjugated = averaged_reciprocal_series(conjugate_group, 6)
            assert conjugate_group.order == group.order
            assert direct.coeffs == conjugated.coeffs
            assert all(not c.im for c in direct.coeffs)

    def test_float_matches_exact_for_c4(self):
        import math

        from molien import float_backend

        fb = float_backend()
        angle = math.pi / 2
        rotation = SquareMatrix(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]], fb
        )
        float_report = molien_series(close_group([rotation]), 8)
        exact_report = molien_series(corpus.c4(), 8)
        assert float_report.coefficients == exact_report.coefficients


class TestNegativeDegree:
    """A negative degree is one ValidationError on both backends, raised before any class work."""

    @pytest.mark.parametrize("function", [molien_series, averaged_reciprocal_series, cross_check])
    @pytest.mark.parametrize("build", [corpus.s4, lambda: corpus.dihedral_float(6)])
    def test_rejected_before_class_work(self, build, function, monkeypatch):
        group = build()

        def refuse(self):
            raise AssertionError("class work for a negative degree")

        monkeypatch.setattr(type(group), "conjugacy_classes", refuse)
        with pytest.raises(ValidationError, match="series order must be nonnegative"):
            function(group, -1)


class TestGaussianIntegerAverage:
    """The exact class average runs on Gaussian-integer pairs; the float one on complex floats."""

    @pytest.mark.parametrize(
        "build",
        [
            corpus.s5,
            corpus.g423,
            corpus.wf4,
            corpus.g8_type,
            lambda: corpus.dihedral_float(30),
            corpus.h3_float,
        ],
        ids=["s5", "g423", "wf4", "g8_type", "d30-float", "h3-float"],
    )
    def test_equals_the_scalar_route(self, build):
        group = build()
        series = averaged_reciprocal_series(group, 40)
        assert series.coeffs == reference_class_average(group, 40)
        assert all(type(c) is group.backend.scalar for c in series.coeffs)

    def test_equals_the_scalar_route_on_the_corpus(self, corpus):
        for group in corpus.values():
            series = averaged_reciprocal_series(group, 40)
            assert series.coeffs == reference_class_average(group, 40)
            assert all(type(c) is GaussianRational for c in series.coeffs)

    def test_non_integral_det_coefficient_raises(self):
        det = UnivariatePoly([1, Fraction(1, 2)], EXACT)
        with pytest.raises(ConsistencyError, match="not a Gaussian integer"):
            _class_average(corpus.s2(), [(det, 2)], 5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjugating_by_a_gaussian_rational_unitary_keeps_the_series(self, seed):
        # the conjugates' entries have denominators, but their dets are the
        # originals', so every det coefficient is still a Gaussian integer
        with_denominators = 0
        groups = [*corpus.build_corpus().values(), corpus.b3(), corpus.binary_tetrahedral()]
        for group in groups:
            conjugate = corpus.gaussian_unitary_conjugate(group, seed)
            with_denominators += any(
                x.re.denominator > 1 or x.im.denominator > 1
                for g in conjugate.generators() for row in g.rows for x in row
            )
            assert conjugate.order == group.order
            assert molien_series(conjugate, 12).coefficients == molien_series(group, 12).coefficients
            assert molien_rational(conjugate) == molien_rational(group)
        assert with_denominators >= len(groups) - 4

    @pytest.mark.parametrize(
        "build, seed",
        [(build, seed) for build in (corpus.q8, corpus.binary_tetrahedral, corpus.g8_type) for seed in (0, 1, 2)]
        + [(corpus.b3, 0)],
    )
    def test_conjugating_by_a_gaussian_rational_unitary_keeps_all_three_columns(self, build, seed):
        # the generators' entry denominators differ from one another, so
        # each walks its own m*s; the trace and rank columns must still agree
        group = build()
        conjugate = corpus.gaussian_unitary_conjugate(group, seed)
        report = cross_check(conjugate, 8)
        assert report.all_agree(), report.per_method
        assert report.per_method["series"] == molien_series(group, 8).coefficients
        for d in range(7):
            basis = invariant_basis(conjugate, d)
            assert len(basis) == report.coefficients[d] == len(invariant_basis(group, d))
            assert all(verify_invariant(f, conjugate) for f in basis)


class TestDetsPerClass:
    @pytest.mark.parametrize("build", [corpus.s5, corpus.binary_tetrahedral, corpus.b3])
    def test_one_det_per_class_matches_per_element_grouping(self, build, monkeypatch):
        import molien.series
        from molien.matrices import det_one_minus_lambda

        group = build()
        expected: dict = {}
        for element in group.elements:
            p = det_one_minus_lambda(element)
            expected[p] = expected.get(p, 0) + 1
        calls = []

        def counting(a):
            calls.append(a)
            return det_one_minus_lambda(a)

        monkeypatch.setattr(molien.series, "det_one_minus_lambda", counting)
        # same polynomials, multiplicities and first-occurrence order
        assert molien.series._distinct_dets(group) == list(expected.items())
        assert len(calls) == len(group.conjugacy_classes())

    def test_float_series_takes_one_det_per_class(self, monkeypatch):
        import molien.series
        from molien.matrices import det_one_minus_lambda

        group = corpus.dihedral_float(30)
        calls = []

        def counting(a):
            calls.append(a)
            return det_one_minus_lambda(a)

        monkeypatch.setattr(molien.series, "det_one_minus_lambda", counting)
        averaged_reciprocal_series(group, 32)
        assert group.order == 60
        assert len(calls) == len(group.conjugacy_classes()) == 18
        # the dihedral group of order 2m on R^2: 1/((1 - lambda^2)(1 - lambda^m))
        expected = [len([b for b in range(0, d + 1, 30) if (d - b) % 2 == 0]) for d in range(33)]
        assert molien_series(group, 32).coefficients == expected


class TestMolienRational:
    def test_trivial_on_c1(self):
        numerator, denominator = molien_rational(corpus.trivial(1))
        assert numerator == UnivariatePoly([1], EXACT)
        assert denominator == UnivariatePoly([1, -1], EXACT)

    def test_pm_identity_on_c1(self):
        group = close_group([SquareMatrix([[-1]], EXACT)])
        numerator, denominator = molien_rational(group)
        assert numerator == UnivariatePoly([1], EXACT)
        assert denominator == UnivariatePoly([1, 0, -1], EXACT)

    def test_s2_expansion(self):
        numerator, denominator = molien_rational(corpus.s2())
        series = expand_rational(numerator, denominator, 5)
        assert ints(series) == [1, 1, 2, 2, 3, 3]

    def test_denominator_constant_term_one(self, corpus):
        for group in corpus.values():
            numerator, denominator = molien_rational(group)
            assert denominator.coeffs[0] == EXACT.one
            assert all(not c.im for c in numerator.coeffs)
            assert all(not c.im for c in denominator.coeffs)

    def test_expansion_matches_series_everywhere(self, corpus):
        for group in corpus.values():
            numerator, denominator = molien_rational(group)
            expanded = ints(expand_rational(numerator, denominator, 8))
            assert expanded == molien_series(group, 8).coefficients

    @pytest.mark.parametrize(
        "build, degrees",
        [
            (corpus.s5, (1, 2, 3, 4, 5)),
            (corpus.s6, (1, 2, 3, 4, 5, 6)),
            (corpus.b3, (2, 4, 6)),
            (corpus.g423, (4, 6, 8)),
        ],
        ids=["s5", "s6", "b3", "g423"],
    )
    def test_reflection_group_is_the_chevalley_product(self, build, degrees):
        # Chevalley-Shephard-Todd: 1/prod_i (1 - lambda^d_i) (Stanley 1979)
        group = build()
        assert prod(degrees) == group.order
        numerator, denominator = molien_rational(group)
        product = UnivariatePoly([1], EXACT)
        for k in degrees:
            product = product * UnivariatePoly([1] + [0] * (k - 1) + [-1], EXACT)
        assert numerator == UnivariatePoly([1], EXACT)
        assert denominator == product
        # [lambda^d]: the ways to write d as a sum of the degrees d_i
        counts = [1] + [0] * 15
        for k in degrees:
            for d in range(k, 16):
                counts[d] += counts[d - k]
        assert ints(expand_rational(numerator, denominator, 15)) == counts

    def test_wf4_is_the_chevalley_product(self):
        # a dense reflection group: degrees 2, 6, 8, 12 (Chevalley-Shephard-Todd)
        group = corpus.wf4()
        assert group.order == 1152
        assert len(group.conjugacy_classes()) == 25
        product = UnivariatePoly([1], EXACT)
        for k in (2, 6, 8, 12):
            product = product * UnivariatePoly([1] + [0] * (k - 1) + [-1], EXACT)
        assert molien_rational(group) == (UnivariatePoly([1], EXACT), product)

    def test_g8_type_is_the_chevalley_product(self):
        # a non-real, non-monomial exact reflection group: degrees 8 and 12
        group = corpus.g8_type()
        assert group.order == 96
        product = UnivariatePoly([1] + [0] * 7 + [-1], EXACT) * UnivariatePoly(
            [1] + [0] * 11 + [-1], EXACT
        )
        assert molien_rational(group) == (UnivariatePoly([1], EXACT), product)

    def test_q8_matches_sloane(self):
        # Sloane (1977): (1 + lambda^6) / (1 - lambda^4)^2, here in lowest terms
        numerator, denominator = molien_rational(corpus.q8())
        sloane_num = UnivariatePoly([1, 0, 0, 0, 0, 0, 1], EXACT)
        sloane_den = UnivariatePoly([1, 0, 0, 0, -2, 0, 0, 0, 1], EXACT)
        assert numerator * sloane_den == denominator * sloane_num
        assert denominator.coeffs[0] == EXACT.one

    def test_s4_form_is_pinned(self):
        numerator, denominator = molien_rational(corpus.s4())
        assert [format_scalar(c) for c in numerator.coeffs] == ["1"]
        assert [format_scalar(c) for c in denominator.coeffs] == [
            "1", "-1", "-1", "0", "0", "2", "0", "0", "-1", "-1", "1"
        ]

    def test_common_factor_is_cancelled(self):
        # a monomial group whose 47 distinct dets have an lcm L of degree 28 that shares
        # a factor of degree 4 with the series times L
        group = close_group([
            SquareMatrix([[0, 0, 0, "-i"], [0, "-i", 0, 0], ["-i", 0, 0, 0], [0, 0, "-i", 0]], EXACT),
            SquareMatrix([[0, 0, 0, "-i"], [0, 1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]], EXACT),
        ])
        classes = group.conjugacy_classes()
        assert (group.order, len(classes)) == (768, 80)
        dets = [
            sp.Poly((sp.eye(4) - LAM * to_sympy(group.elements[members[0]])).det(), LAM, domain=sp.QQ_I)
            for members in classes
        ]
        lcm = dets[0]
        for det in dets[1:]:
            lcm = lcm.lcm(det)
        assert (len(set(dets)), lcm.degree()) == (47, 28)
        numerator, denominator = molien_rational(group)
        assert fraction_coeffs(numerator) == [1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1]
        assert fraction_coeffs(denominator) == [
            1, 0, 0, 0, -3, 0, 0, 0, 3, 0, 0, 0, -2, 0, 0, 0, 3, 0, 0, 0, -3, 0, 0, 0, 1
        ]
        num, den = (sp.Poly(fraction_coeffs(p)[::-1], LAM, domain=sp.QQ_I) for p in (numerator, denominator))
        assert num.gcd(den).is_one
        assert ints(expand_rational(numerator, denominator, 40)) == molien_series(group, 40).coefficients
        # the class sum of 1/det(1 - lambda g), times L, against |G| num/den times L
        class_sum = sum((lcm.exquo(det) * len(members) for members, det in zip(classes, dets)), 0 * lcm)
        assert class_sum * den == num * lcm * group.order

    def test_float_backend_rejected(self):
        from molien import float_backend

        group = close_group([SquareMatrix.identity(2, float_backend())])
        with pytest.raises(BackendError):
            molien_rational(group)


class TestRationalOnGaussianIntegers:
    """molien_rational works on Z[i] (re, im) int pairs, lambda^0 first, with no scalar Euclid."""

    ONE_MINUS_I = [(1, 0), (0, -1)]  # 1 - i*lambda

    def test_gcd_with_a_non_real_leading_coefficient(self):
        # (1 - i*lambda)(1 + lambda) and (1 - i*lambda)(1 - lambda): leading coefficients -i and i
        a = _pair_multiply(self.ONE_MINUS_I, [(1, 0), (1, 0)], 3)
        b = _pair_multiply(self.ONE_MINUS_I, [(1, 0), (-1, 0)], 3)
        assert a == [(1, 0), (1, -1), (0, -1)]
        assert _pair_gcd(a, b) == _pair_gcd(b, a) == self.ONE_MINUS_I
        # 1 + lambda^2 = (1 - i*lambda)(1 + i*lambda) is real with a non-real factor
        assert _pair_gcd([(1, 0), (0, 0), (1, 0)], a) == self.ONE_MINUS_I

    def test_coprime_inputs_give_one(self):
        assert _pair_gcd([(1, 0), (-1, 0)], [(1, 0), (1, 0)]) == [(1, 0)]
        assert _pair_gcd([(1, 0), (0, 1)], self.ONE_MINUS_I) == [(1, 0)]  # 1 + i*lambda
        assert _pair_gcd([(1, 0)], [(1, 0), (0, 0), (0, 0), (-1, 0)]) == [(1, 0)]

    def test_repeated_factors(self):
        # gcd((1 - lambda)^2, 1 - lambda^2) = 1 - lambda, whichever comes first
        square, difference = [(1, 0), (-2, 0), (1, 0)], [(1, 0), (0, 0), (-1, 0)]
        assert _pair_gcd(square, difference) == _pair_gcd(difference, square) == [(1, 0), (-1, 0)]
        assert _pair_gcd(square, square) == square

    def test_exact_division(self):
        product = _pair_multiply(self.ONE_MINUS_I, [(1, 0), (0, 0), (-1, 0)], 4)
        assert _pair_quotient(product, self.ONE_MINUS_I) == [(1, 0), (0, 0), (-1, 0)]
        assert _pair_quotient([(2, 2), (0, 4)], [(1, 1)]) == [(2, 0), (2, 2)]

    @pytest.mark.parametrize(
        "a, b",
        [
            ([(1, 0), (1, 0)], [(1, 0), (-1, 0)]),  # 1 - lambda does not divide 1 + lambda
            ([(1, 0), (0, 0), (1, 0)], [(1, 0), (-1, 0)]),  # nor 1 + lambda^2
            ([(1, 0), (1, 0)], [(2, 0)]),  # 1/2 is not a Gaussian integer
            ([(1, 0)], [(1, 1)]),  # nor 1/(1 + i)
            ([(1, 0)], [(1, 0), (1, 0)]),  # a divisor of higher degree
        ],
    )
    def test_inexact_division_raises(self, a, b):
        with pytest.raises(ConsistencyError, match="does not divide"):
            _pair_quotient(a, b)

    def test_non_integral_det_raises(self, monkeypatch):
        import molien.series

        det = UnivariatePoly([1, Fraction(1, 2)], EXACT)
        monkeypatch.setattr(molien.series, "_distinct_dets", lambda group: [(det, 2)])
        with pytest.raises(ConsistencyError, match="not a Gaussian integer"):
            molien_rational(corpus.s2())

    def test_non_real_form_raises(self, monkeypatch):
        import molien.series

        det = UnivariatePoly([1, "-i"], EXACT)  # 1/(1 - i*lambda) has no real form
        monkeypatch.setattr(molien.series, "_distinct_dets", lambda group: [(det, 2)])
        with pytest.raises(ConsistencyError, match="non-real rational form"):
            molien_rational(corpus.s2())

    @pytest.mark.parametrize("build", [corpus.s4, corpus.binary_tetrahedral], ids=["s4", "2t"])
    def test_calls_no_scalar_euclid(self, build, monkeypatch):
        import molien.matrices
        import molien.series

        calls = []
        for name in ("poly_gcd", "poly_divmod"):
            original = getattr(molien.matrices, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(molien.matrices, name, counted)
            # should series ever import the name again, count those calls too
            monkeypatch.setattr(molien.series, name, counted, raising=False)
        group = build()
        numerator, denominator = molien_rational(group)
        assert calls == []
        # the wrappers count: the scalar Euclid on the form finds it reduced
        assert molien.matrices.poly_gcd(numerator, denominator) == UnivariatePoly([1], EXACT)
        assert {"poly_gcd", "poly_divmod"} <= set(calls)

    @pytest.mark.parametrize("build", [corpus.binary_tetrahedral, corpus.g8_type], ids=["2t", "g8_type"])
    def test_equals_the_listed_average(self, build):
        # non-monomial groups, each element listed: sympy's cancelled (1/|G|) sum of 1/det(1 - lambda g)
        group = build()
        oracle = sympy_molien_function([to_sympy(g) for g in group.elements])
        numerator, denominator = molien_rational(group)
        num, den = (sp.Poly(fraction_coeffs(p)[::-1], LAM) for p in (numerator, denominator))
        assert sp.cancel(num.as_expr() / den.as_expr() - oracle) == 0
        assert not all(map(_monomial, group.generators()))


def fraction_coeffs(poly):
    assert all(not c.im for c in poly.coeffs)
    return [c.re for c in poly.coeffs]


def times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def at_one_minus(p):
    """Coefficients in t of p(1 - t)."""
    out = [Fraction(0)] * len(p)
    for k, c in enumerate(p):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * (-1) ** j
    return out


def reflection_count(group):
    """Elements g with rank(g - I) = 1: g != I and every 2x2 minor of g - I vanishes."""
    one = EXACT.one
    pairs = [(i, j) for i in range(group.n) for j in range(i + 1, group.n)]
    count = 0
    for g in group.elements:
        a = [[x - one if i == j else x for j, x in enumerate(row)] for i, row in enumerate(g.rows)]
        if any(x for row in a for x in row) and not any(
            a[i][k] * a[j][l] - a[i][l] * a[j][k] for i, j in pairs for k, l in pairs
        ):
            count += 1
    return count


class TestRationalStructure:
    """Identities of the reduced form N/D that hold at any group order (Stanley 1979)."""

    @staticmethod
    def check_laurent_terms_at_one(group):
        # with t = 1 - lambda: t^n Phi = 1/|G| + r/(2|G|) t + O(t^2)
        numerator, denominator = molien_rational(group)
        num = at_one_minus(fraction_coeffs(numerator)) + [Fraction(0)]
        den = at_one_minus(fraction_coeffs(denominator))
        pole = next(k for k, c in enumerate(den) if c)
        assert pole == group.n
        den = den[pole:] + [Fraction(0)]
        a0 = num[0] / den[0]
        a1 = (num[1] - a0 * den[1]) / den[0]
        assert a0 == Fraction(1, group.order)
        assert a1 == Fraction(reflection_count(group), 2 * group.order)

    def test_laurent_terms_at_one_on_the_corpus(self, corpus):
        for group in corpus.values():
            self.check_laurent_terms_at_one(group)

    @pytest.mark.parametrize(
        "build",
        [corpus.s5, corpus.binary_tetrahedral, corpus.b3, corpus.g423],
        ids=["s5", "binary_tetrahedral", "b3", "g423"],
    )
    def test_laurent_terms_at_one(self, build):
        self.check_laurent_terms_at_one(build())

    @pytest.mark.parametrize(
        "build",
        [corpus.plus_minus_i2, corpus.c4, corpus.q8, corpus.binary_tetrahedral],
        ids=["pm_i2", "c4", "q8", "binary_tetrahedral"],
    )
    def test_reciprocity_in_sl2(self, build):
        # Phi(1/lambda) = (-1)^n lambda^n Phi(lambda): with a = deg N and
        # b = deg D, Phi(1/lambda) = lambda^(b-a) N_rev / D_rev, so b - a = n
        # and N_rev * D = (-1)^n N * D_rev
        group = build()
        assert all(a * d - b * c == EXACT.one for (a, b), (c, d) in (g.rows for g in group.elements))
        numerator, denominator = molien_rational(group)
        num, den = fraction_coeffs(numerator), fraction_coeffs(denominator)
        assert len(den) - len(num) == group.n
        sign = (-1) ** group.n
        assert times(num[::-1], den) == [sign * c for c in times(num, den[::-1])]


class TestRandomizedGroups:
    def test_random_monomial_groups_against_sympy(self):
        # signed/i-valued permutation matrices stay in Q(i) and generate a
        # varied pool of groups beyond the fixed corpus
        import sympy as sp

        rng = random.Random(8881)
        units = ["1", "-1", "i", "-i"]

        def random_monomial_matrix(n):
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [["0"] * n for _ in range(n)]
            for i, p in enumerate(perm):
                rows[p][i] = rng.choice(units)
            return SquareMatrix(rows, EXACT)

        lam = sp.symbols("lam")
        checked = 0
        while checked < 5:
            n = rng.choice([2, 2, 3])
            generators = [random_monomial_matrix(n) for _ in range(rng.randint(1, 2))]
            group = close_group(generators, max_order=2000)
            if group.order > 48:
                continue
            ours = molien_series(group, 5).coefficients
            expected = [sp.Integer(0)] * 6
            for element in group.elements:
                det = sp.expand((sp.eye(n) - lam * to_sympy(element)).det())
                expansion = sp.series(1 / det, lam, 0, 6).removeO()
                for d in range(6):
                    expected[d] += expansion.coeff(lam, d)
            expected = [sp.nsimplify(c / group.order) for c in expected]
            assert [sp.Integer(a) for a in ours] == expected
            assert cross_check(group, 5).all_agree()
            checked += 1


class TestCrossCheck:
    def test_c4(self):
        report = cross_check(corpus.c4(), 4)
        assert report.coefficients == [1, 0, 1, 0, 3]
        assert report.per_method["series"] == report.per_method["trace"]
        assert report.per_method["trace"] == report.per_method["rank"]
        assert report.all_agree()

    def test_q8_low_degrees_vanish(self):
        report = cross_check(corpus.q8(), 6)
        assert report.all_agree()
        assert report.coefficients == [1, 0, 0, 0, 2, 0, 1]
        assert report.coefficients[1:4] == [0, 0, 0]

    def test_degree_zero_everywhere(self, corpus):
        for group in corpus.values():
            report = cross_check(group, 0)
            assert report.coefficients == [1]
            assert report.per_method["trace"] == [1]
            assert report.per_method["rank"] == [1]

    def test_wf4_three_columns_are_the_chevalley_coefficients(self):
        # a dense reflection group with degrees 2, 6, 8, 12: [lambda^d] of
        # 1/prod(1 - lambda^k) counts the ways to write d with those parts
        report = cross_check(corpus.wf4(), 10)
        expected = [1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3]
        assert report.per_method == {"series": expected, "trace": expected, "rank": expected}
        assert report.all_agree()

    def test_g8_type_three_columns_and_invariants(self):
        # degrees 8 and 12: [lambda^d] counts the ways to write d with those parts
        group = corpus.g8_type()
        report = cross_check(group, 24)
        expected = [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2]
        assert report.per_method == {"series": expected, "trace": expected, "rank": expected}
        assert report.all_agree()
        for d in (8, 12, 24):
            basis = invariant_basis(group, d)
            assert len(basis) == expected[d]
            assert all(verify_invariant(f, group) for f in basis)

    def test_agreement_flags_shape(self):
        report = cross_check(corpus.s2(), 3)
        assert len(report.agreement) == 4
        assert report.max_degree == 3


class TestGleasonGroup:
    """Gleason's float group of order 192: 1/((1 - l^8)(1 - l^24)) (Gleason 1970; Sloane 1977)."""

    # [l^d]: the ways to write d as 8a + 24b
    EXPECTED = [sum((d - 24 * b) % 8 == 0 for b in range(d // 24 + 1)) for d in range(49)]

    def test_series_and_traces_are_gleasons(self):
        group = corpus.gleason()
        assert group.order == 192
        assert molien_series(group, 48).coefficients == self.EXPECTED
        assert reynolds_traces(group, 48) == self.EXPECTED

    def test_rank_is_gleasons(self):
        dimensions = fixed_space_dimensions(corpus.gleason(), 48)
        assert [dimensions[d] for d in (24, 32, 40, 48)] == [2, 2, 2, 3]

    def test_invariants_command_at_degree_24(self, tmp_path, capsys):
        h = 1 / math.sqrt(2)
        spec = {"dimension": 2, "backend": "float", "generators": [[[h, h], [h, -h]], [[1, 0], [0, "i"]]]}
        path = tmp_path / "gleason.json"
        path.write_text(json.dumps(spec))
        assert main(["invariants", "--degree", "24", "--format", "json", str(path)]) == 0
        basis = json.loads(capsys.readouterr().out)["invariants"]["basis"]
        assert len(basis) == 2
        group = corpus.gleason()
        assert all(verify_invariant(parse_polynomial(text, 2, group.backend), group) for text in basis)


class TestPauliGroups:
    """The 1- and 2-qubit Pauli groups: exact, neither permutation nor reflection groups."""

    # numerator and denominator coefficients of the reduced rational form, from l^0 up
    FORMS = {
        1: ([1], [1, 0, 0, 0, -2, 0, 0, 0, 1]),
        2: (
            [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
            [1, 0, 0, 0, -4, 0, 0, 0, 6, 0, 0, 0, -4, 0, 0, 0, 1],
        ),
    }
    ORACLES = {
        1: 1 / (1 - LAM**4) ** 2,
        2: (1 + LAM**4) * (1 + LAM**8) / (1 - LAM**4) ** 4,
    }
    SERIES = {
        1: [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4],
        2: [1, 0, 0, 0, 5, 0, 0, 0, 15],
    }

    @pytest.mark.parametrize("qubits, order", [(1, 16), (2, 64)])
    def test_closure_is_the_listed_group(self, qubits, order):
        group = corpus.pauli(qubits)
        assert group.order == order
        listed = {tuple(m) for m in pauli_elements(qubits)}
        assert {tuple(to_sympy(g)) for g in group.elements} == listed

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_listed_average_is_the_closed_form(self, qubits):
        average = sympy_molien_function(pauli_elements(qubits))
        assert sp.simplify(average - self.ORACLES[qubits]) == 0

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_rational_form_is_pinned(self, qubits):
        numerator, denominator = molien_rational(corpus.pauli(qubits))
        assert (ints(numerator), ints(denominator)) == self.FORMS[qubits]
        ours = sp.Poly(ints(numerator)[::-1], LAM) / sp.Poly(ints(denominator)[::-1], LAM)
        assert sp.simplify(ours.as_expr() - self.ORACLES[qubits]) == 0

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_three_columns_and_invariant_bases(self, qubits):
        group = corpus.pauli(qubits)
        expected = self.SERIES[qubits]
        report = cross_check(group, len(expected) - 1)
        assert report.per_method == {"series": expected, "trace": expected, "rank": expected}
        assert report.all_agree()
        for d, size in enumerate(expected):
            basis = invariant_basis(group, d)
            assert len(basis) == size
            assert all(verify_invariant(f, group) for f in basis)


class TestClifford2:
    """The 2-qubit Clifford group over Q(i), past the default max_order.

    Its Molien series is 1/((1 - l^8)(1 - l^12)(1 - l^20)(1 - l^24)), the
    product for Shephard-Todd G_31's degrees (Sloane 1977; Nebe, Rains and
    Sloane 2001).
    """

    # [l^d]: the ways to write d as 8a + 12b + 20c + 24e
    EXPECTED = [
        sum(1 for a in range(10) for b in range(7) for c in range(4) for e in range(4)
            if 8 * a + 12 * b + 20 * c + 24 * e == d)
        for d in range(73)
    ]

    @pytest.fixture(scope="class")
    def group(self):
        # closing takes most of this class's time, so its tests share one group
        return corpus.clifford2()

    def test_order_series_and_cross_check(self, group):
        assert (group.order, len(group.conjugacy_classes())) == (46080, 59)
        assert molien_series(group, 24).coefficients == self.EXPECTED[:25]
        assert [self.EXPECTED[d] for d in (8, 12, 16, 20, 24)] == [1, 1, 1, 2, 3]
        report = cross_check(group, 8)
        assert report.all_agree()
        assert report.per_method["trace"] == self.EXPECTED[:9]

    def test_series_to_72_is_the_chevalley_product(self, group):
        assert molien_series(group, 72).coefficients == self.EXPECTED

    def test_rational_form_is_the_chevalley_product(self, group):
        product = UnivariatePoly([1], EXACT)
        for k in (8, 12, 20, 24):
            product = product * UnivariatePoly([1] + [0] * (k - 1) + [-1], EXACT)
        assert molien_rational(group) == (UnivariatePoly([1], EXACT), product)
