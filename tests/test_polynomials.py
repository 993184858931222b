"""Monomial bases, sparse polynomial arithmetic, substitution, text form."""

from __future__ import annotations

import random
from math import comb

import pytest

from molien import (
    EXACT,
    GaussianRational,
    MonomialBasis,
    ScalarParseError,
    ShapeError,
    SparsePolynomial,
    SquareMatrix,
    format_polynomial,
    induced_matrix,
    parse_polynomial,
    substitute_linear,
)
from oracles import brute_monomials, coordinates


def poly(n, terms):
    return SparsePolynomial(n, terms, EXACT)


def random_poly(rng, n, max_terms=4, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[mono] = rng.randint(-4, 4)
    return poly(n, terms)


def random_gaussian(rng, k):
    return GaussianRational(rng.randint(-k, k), rng.randint(-k, k))


def random_matrix(rng, n):
    return SquareMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], EXACT)


class TestMonomialBasis:
    def test_two_vars_degree_two(self):
        basis = MonomialBasis(2, 2)
        assert basis.monomials == ((2, 0), (1, 1), (0, 2))

    def test_single_variable(self):
        assert MonomialBasis(1, 5).monomials == ((5,),)

    def test_three_vars_degree_two_count(self):
        # comb(4, 2) = 6, confirmed by brute enumeration
        basis = MonomialBasis(3, 2)
        assert len(basis) == 6
        assert set(basis.monomials) == brute_monomials(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", range(9))
    def test_counts_against_brute_force(self, n, d):
        basis = MonomialBasis(n, d)
        assert len(basis) == comb(n + d - 1, d)
        assert set(basis.monomials) == brute_monomials(n, d)

    def test_strictly_decreasing_grlex(self):
        basis = MonomialBasis(3, 4)
        assert list(basis.monomials) == sorted(basis.monomials, reverse=True)
        assert len(set(basis.monomials)) == len(basis)

    def test_index_inverts_list(self):
        basis = MonomialBasis(4, 3)
        for position, mono in enumerate(basis.monomials):
            assert basis.index[mono] == position

    def test_degree_zero(self):
        assert MonomialBasis(3, 0).monomials == ((0, 0, 0),)

    @pytest.mark.parametrize("n, d", [(0, 1), (2, -1)])
    def test_rejects_no_variables_or_negative_degree(self, n, d):
        with pytest.raises(ShapeError):
            MonomialBasis(n, d)


class TestArithmetic:
    def test_difference_of_squares(self):
        x_plus_y = poly(2, {(1, 0): 1, (0, 1): 1})
        x_minus_y = poly(2, {(1, 0): 1, (0, 1): -1})
        assert x_plus_y * x_minus_y == poly(2, {(2, 0): 1, (0, 2): -1})

    def test_multiplicative_unit(self):
        f = poly(2, {(2, 1): 3, (0, 0): -1})
        one = poly(2, {(0, 0): 1})
        assert f * one == f

    def test_square_of_sum(self):
        x_plus_y = poly(2, {(1, 0): 1, (0, 1): 1})
        assert x_plus_y * x_plus_y == poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_zero_coefficients_dropped(self):
        f = poly(2, {(1, 0): 1, (0, 1): 1})
        g = poly(2, {(1, 0): 1, (0, 1): -1})
        assert (1, 0) not in (f + g - f - f).terms  # x - x cancels
        assert (f - f).is_zero()

    def test_cancellation_in_product(self):
        # (x + y)(x - y) has no xy term stored
        f = poly(2, {(1, 0): 1, (0, 1): 1}) * poly(2, {(1, 0): 1, (0, 1): -1})
        assert (1, 1) not in f.terms

    def test_variable_count_mismatch(self):
        with pytest.raises(ShapeError):
            poly(2, {(1, 0): 1}) + poly(3, {(1, 0, 0): 1})


class TestSubstitution:
    def test_identity_substitution(self):
        f = poly(2, {(2, 0): 1})
        assert substitute_linear(f, SquareMatrix.identity(2, EXACT)) == f

    def test_swap_fixes_symmetric_monomial(self):
        f = poly(2, {(1, 1): 1})
        swap = SquareMatrix([[0, 1], [1, 0]], EXACT)
        assert substitute_linear(f, swap) == f

    def test_relabeling(self):
        f = poly(2, {(2, 0): 1})
        swap = SquareMatrix([[0, 1], [1, 0]], EXACT)
        assert substitute_linear(f, swap) == poly(2, {(0, 2): 1})

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            substitute_linear(poly(2, {(1, 0): 1}), SquareMatrix.identity(3, EXACT))

    def test_is_algebra_homomorphism(self):
        rng = random.Random(101)
        for n in (2, 3):
            for _ in range(25):
                f, g = random_poly(rng, n), random_poly(rng, n)
                matrix = random_matrix(rng, n)
                assert substitute_linear(f * g, matrix) == substitute_linear(
                    f, matrix
                ) * substitute_linear(g, matrix)

    def test_walks_only_the_ancestors_of_the_terms(self, monkeypatch):
        import molien.action

        built = []
        walk = molien.action.monomial_images

        def counting(*args):
            for images in walk(*args):
                built.append(sum(image is not None for image in images))
                yield images

        monkeypatch.setattr(molien.action, "monomial_images", counting)
        f = poly(4, {(10, 0, 0, 0): 1, (0, 0, 0, 10): 2})
        matrix = SquareMatrix([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 2], [2, 1, 0, 1]], EXACT)
        substitute_linear(f, matrix)
        # x1^k and x4^k for k = 1..10, and the constant: not the 1001
        # basis monomials of degrees 0..10
        assert built == [1] + [2] * 10

    def test_composition_order(self):
        # substituting L then M equals substituting the product M @ L
        rng = random.Random(55)
        for n in (2, 3):
            for _ in range(25):
                f = random_poly(rng, n)
                l_mat, m_mat = random_matrix(rng, n), random_matrix(rng, n)
                chained = substitute_linear(substitute_linear(f, l_mat), m_mat)
                assert chained == substitute_linear(f, m_mat @ l_mat)

    def test_preserves_homogeneous_degree(self):
        rng = random.Random(77)
        swap_like = SquareMatrix([[1, 1], [1, -1]], EXACT)
        for _ in range(20):
            d = rng.randint(1, 4)
            basis = MonomialBasis(2, d)
            f = SparsePolynomial(
                2, {m: rng.randint(-3, 3) for m in basis.monomials}, EXACT
            )
            image = substitute_linear(f, swap_like)
            assert all(sum(m) == d for m in image.terms)

    def test_exact_image_is_the_induced_matrix_times_the_coefficients(self):
        # substituting the entrywise conjugate of g is the action of g, whose
        # induced matrix maps coefficient vectors
        rng = random.Random(131)
        for n in (1, 2, 3):
            for d in range(5):
                basis = MonomialBasis(n, d)
                for _ in range(3):
                    rows = [[random_gaussian(rng, 2) for _ in range(n)] for _ in range(n)]
                    g = SquareMatrix(rows, EXACT)
                    vec = [random_gaussian(rng, 3) for _ in basis]
                    f = SparsePolynomial(n, dict(zip(basis.monomials, vec)), EXACT)
                    expected = [
                        sum((a * b for a, b in zip(row, vec)), EXACT.zero)
                        for row in induced_matrix(g, basis).rows
                    ]
                    image = substitute_linear(f, g.entrywise_conj())
                    assert coordinates(image, basis) == expected


class TestTextForm:
    def test_canonical_example(self):
        f = poly(2, {(2, 0): "1/2", (0, 2): "1/2"})
        assert format_polynomial(f) == "1/2*x1^2 + 1/2*x2^2"

    def test_unit_coefficients_omitted(self):
        f = poly(2, {(2, 0): 1, (1, 1): -1, (0, 0): 2})
        assert format_polynomial(f) == "x1^2 - x1*x2 + 2"

    def test_compound_coefficient_parenthesised(self):
        f = poly(1, {(1,): "3/4-2/5i"})
        assert format_polynomial(f) == "(3/4-2/5i)*x1"

    def test_zero(self):
        assert format_polynomial(SparsePolynomial(2, {}, EXACT)) == "0"

    def test_grlex_term_order(self):
        f = poly(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1})
        assert format_polynomial(f) == "x1^2 + x1*x2 + x2"

    @pytest.mark.parametrize(
        "text",
        [
            "1/2*x1^2 + 1/2*x2^2",
            "x1^2 - x1*x2 + 2",
            "(3/4-2/5i)*x1 + i*x2",
            "-x1 + x2",
            "0",
            "-1/3",
            "x1*x2^3",
        ],
    )
    def test_parse_format_roundtrip(self, text):
        f = parse_polynomial(text, 2, EXACT)
        assert format_polynomial(f) == text

    @pytest.mark.parametrize(
        "text", ["x1^-1", "x1^a", "xa", "2*x1^2 + ", "x1^", "x1^²", "x1_0", "x0", "2*", "x1**x2"]
    )
    def test_malformed_term_is_a_parse_error(self, text):
        # indices and exponents are ASCII digit strings; nothing leaks ValueError
        with pytest.raises(ScalarParseError):
            parse_polynomial(text, 2, EXACT)

    def test_format_parse_roundtrip_random(self):
        rng = random.Random(9)
        for _ in range(50):
            f = random_poly(rng, 3)
            assert parse_polynomial(format_polynomial(f), 3, EXACT) == f
