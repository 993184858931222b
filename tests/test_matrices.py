"""Matrix products, unitarity, characteristic coefficients, row reduction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
import sympy as sp

import corpus
from molien import (
    EXACT,
    BackendError,
    GaussianRational,
    ShapeError,
    SquareMatrix,
    UnivariatePoly,
    close_group,
    det_one_minus_lambda,
    float_backend,
    from_permutations,
    parse_scalar,
    row_reduce,
)
from molien import groups, molien_rational, molien_series
from molien.matrices import _monomial, _trusted, poly_divmod, poly_gcd
from oracles import LAM, partitions_with_parts_at_most, to_sympy

R = [[0, -1], [1, 0]]  # rotation by pi/2
I2 = SquareMatrix.identity(2, EXACT)


def exact(rows):
    return SquareMatrix(rows, EXACT)


class TestProduct:
    def test_identity(self):
        assert I2 @ I2 == I2

    def test_rotation_squares_to_minus_identity(self):
        rot = exact(R)
        assert rot @ rot == exact([[-1, 0], [0, -1]])

    def test_rotation_has_order_four(self):
        rot = exact(R)
        assert rot @ rot @ rot @ rot == I2

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            exact(R) @ SquareMatrix.identity(3, EXACT)

    def test_backend_mismatch(self):
        with pytest.raises(BackendError):
            exact(R) @ SquareMatrix(R, float_backend())

    def test_associativity_randomized(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (
                exact([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
                for _ in range(3)
            )
            assert (a @ b) @ c == a @ (b @ c)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            exact([[1, 2], [3, 4], [5, 6]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="at least one row"):
            SquareMatrix([], EXACT)


def reference_product(a, b):
    """Textbook triple loop, summing every term, zeros included."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a.rows[i][0] * b.rows[0][j]
            for k in range(1, n):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(row)
    return SquareMatrix(rows, a.backend)


def random_gaussian(rng):
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))


def random_exact(rng, n, shape):
    if shape == "monomial":
        perm = rng.sample(range(n), n)
        entries = ["1", "-1", "i", "-i", "1/2+1/2i"]
        return exact(
            [[rng.choice(entries) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        )
    density = 0.3 if shape == "sparse" else 1.0
    rows = [
        [random_gaussian(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)
    ]
    rows[rng.randrange(n)] = [0] * n
    return exact(rows)


class TestZeroAwareProduct:
    @pytest.mark.parametrize("shape", ["sparse", "monomial", "dense"])
    def test_exact_matches_reference(self, shape):
        rng = random.Random(f"exact-{shape}")
        for _ in range(30):
            n = rng.randint(1, 5)
            a, b = random_exact(rng, n, shape), random_exact(rng, n, shape)
            assert a @ b == reference_product(a, b)

    def test_float_matches_reference(self):
        rng = random.Random(11)
        fb = float_backend()

        def entry():
            return complex(rng.gauss(0, 1), rng.gauss(0, 1)) if rng.random() < 0.5 else 0

        for _ in range(30):
            n = rng.randint(1, 5)
            a = SquareMatrix([[0] * n] + [[entry() for _ in range(n)] for _ in range(n - 1)], fb)
            b = SquareMatrix([[entry() for _ in range(n)] for _ in range(n)], fb)
            # skipping exact zeros leaves every sum of nonzero terms unchanged
            assert (a @ b).rows == reference_product(a, b).rows

    def test_results_are_tuples_of_backend_scalars(self):
        fb = float_backend()
        a = exact([["1/2", "i"], [0, -1]])
        f = SquareMatrix([[0.5, 1j], [0, -1]], fb)
        made = [a @ a, a.conj_transpose(), a.entrywise_conj(), SquareMatrix.identity(3, EXACT)]
        made += [f @ f, f.conj_transpose(), f.entrywise_conj(), SquareMatrix.identity(3, fb)]
        for m in made:
            scalar = GaussianRational if m.backend.is_exact else complex
            assert isinstance(m.rows, tuple)
            assert all(isinstance(row, tuple) and len(row) == m.n for row in m.rows)
            assert all(isinstance(x, scalar) for row in m.rows for x in row)

    def test_terms_under_the_tolerance_are_kept(self):
        fb = float_backend(1e-9)
        a = SquareMatrix([[1e-12, 1], [0, 1]], fb)
        b = SquareMatrix([[1, 0], [1e-12, 1]], fb)
        assert (a @ b).rows == ((2e-12 + 0j, 1 + 0j), (1e-12 + 0j, 1 + 0j))

    def test_backend_constants_are_shared(self):
        assert EXACT.zero is EXACT.zero
        assert EXACT.one is EXACT.one

    @pytest.mark.parametrize("backend", [EXACT, float_backend()], ids=["exact", "float"])
    def test_reused_right_operand_matches_a_fresh_copy(self, backend):
        # a validated matrix keeps its nonzero terms; a trusted copy of the
        # same rows finds them per product
        rng = random.Random(7)
        entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
        if backend.is_exact:
            entries += ["i", "1/2-1/3i"]
        right = SquareMatrix([[rng.choice(entries) for _ in range(4)] for _ in range(4)], backend)
        rows = right.rows
        left = SquareMatrix.identity(4, backend)
        for _ in range(6):
            reused = left @ right
            fresh = left @ _trusted(rows, backend)
            assert reused.rows == fresh.rows
            left = SquareMatrix([[rng.choice(entries) for _ in range(4)] for _ in range(4)], backend) @ reused

    def test_monomial_products_make_n_multiplications(self, monkeypatch):
        # closure multiplies rows by generators on int pairs: against a
        # monomial generator each row product multiplies at most n terms,
        # dense rows of W(F4) included
        monomial_counts, products = [], []
        row_product = groups._pair_row_product

        class Counted(tuple):
            def __iter__(self):
                for term in tuple.__iter__(self):
                    products.append(1)
                    yield term

        def counting_row_product(row, m, terms):
            products.clear()
            out = row_product(row, m, tuple(map(Counted, terms)))
            if all(len(row_terms) == 1 for row_terms in terms):
                monomial_counts.append(len(products))
            return out

        generators = corpus.wf4().generators()
        monkeypatch.setattr(groups, "_pair_row_product", counting_row_product)
        assert close_group(generators).order == 1152
        assert max(monomial_counts) == 4


class TestConjTranspose:
    def test_diagonal(self):
        assert exact([["i", 0], [0, "-i"]]).conj_transpose() == exact([["-i", 0], [0, "i"]])

    def test_real_symmetric_fixed(self):
        a = exact([[1, 2], [2, 5]])
        assert a.conj_transpose() == a

    def test_real_matrix_transposes(self):
        assert exact(R).conj_transpose() == exact([[0, 1], [-1, 0]])


class TestUnitarity:
    def test_rotation_is_unitary(self):
        assert exact(R).is_unitary()

    def test_scaling_is_not(self):
        assert not exact([[2, 0], [0, 1]]).is_unitary()

    def test_diag_i_is_unitary(self):
        assert exact([["i", 0], [0, "-i"]]).is_unitary()

    def test_float_tolerance(self):
        fb = float_backend(1e-9)
        almost = SquareMatrix([[1 + 1e-12, 0], [0, 1]], fb)
        assert almost.is_unitary()


def counted_products(monkeypatch) -> list:
    """A list that SquareMatrix.__matmul__ appends to on each call, until monkeypatch undoes it."""
    calls = []
    original = SquareMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(SquareMatrix, "__matmul__", counting)
    return calls


class TestDetOneMinusLambda:
    def test_identity(self):
        poly = det_one_minus_lambda(I2)
        assert poly.coeffs == (parse_scalar("1"), parse_scalar("-2"), parse_scalar("1"))

    def test_rotation(self):
        # 2x2 closed form: 1 - Tr(A) lambda + det(A) lambda^2 = 1 + lambda^2
        poly = det_one_minus_lambda(exact(R))
        assert poly == UnivariatePoly([1, 0, 1], EXACT)

    def test_diag_i(self):
        poly = det_one_minus_lambda(exact([["i", 0], [0, "-i"]]))
        assert poly.coeffs == UnivariatePoly([1, 0, 1], EXACT).coeffs

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_gives_binomial_expansion(self, n):
        poly = det_one_minus_lambda(SquareMatrix.identity(n, EXACT))
        expected = [(-1) ** k * comb(n, k) for k in range(n + 1)]
        assert list(poly.coeffs) == [parse_scalar(str(v)) for v in expected]

    def test_adjoint_conjugates_coefficients(self):
        for rows in ([["i", 0], [0, "-i"]], R, [[0, "i"], ["i", 0]]):
            a = exact(rows)
            assert a.is_unitary()
            direct = det_one_minus_lambda(a.conj_transpose())
            conjugated = [c.conjugate() for c in det_one_minus_lambda(a).coeffs]
            assert list(direct.coeffs) == conjugated

    def test_block_diagonal_multiplies(self):
        b = exact(R)
        c = exact([["i", 0], [0, "-i"]])
        block = exact(
            [
                [b.rows[0][0], b.rows[0][1], 0, 0],
                [b.rows[1][0], b.rows[1][1], 0, 0],
                [0, 0, c.rows[0][0], c.rows[0][1]],
                [0, 0, c.rows[1][0], c.rows[1][1]],
            ]
        )
        assert det_one_minus_lambda(block) == det_one_minus_lambda(b) * det_one_minus_lambda(c)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_takes_n_minus_one_products(self, n, monkeypatch):
        # on floats the power traces Tr(A^1..A^n) of a dense A need A^2..A^n
        # and nothing beyond; exact, they are taken on the int pairs of m*A,
        # with no SquareMatrix product. The reflection H = id - 2 v v*/(v* v),
        # v = (1, .., n-1, n i), has no zero entry for n >= 2; a 1x1 matrix is
        # monomial, and takes 0 = n - 1 products either way
        v = [GaussianRational(k) for k in range(1, n)] + [GaussianRational(0, n)]
        scale = Fraction(2, sum(k * k for k in range(1, n + 1)))
        h = exact([[int(j == k) - v[j] * v[k].conjugate() * scale for k in range(n)] for j in range(n)])
        assert h.is_unitary() and _monomial(h) == (n == 1)
        calls = counted_products(monkeypatch)
        poly = det_one_minus_lambda(h)
        assert calls == []
        # eigenvalue -1 once and 1 n - 1 times: (1 + lambda)(1 - lambda)^(n-1)
        expected = UnivariatePoly([1, 1], EXACT)
        for _ in range(n - 1):
            expected = expected * UnivariatePoly([1, -1], EXACT)
        assert poly == expected
        approx = det_one_minus_lambda(SquareMatrix(h.rows, float_backend()))
        assert len(calls) == n - 1
        assert len(approx.coeffs) == n + 1
        assert all(abs(x - complex(float(c.re))) < 1e-9 for x, c in zip(approx.coeffs, expected.coeffs))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_phased_cycle_takes_no_products(self, n, monkeypatch):
        phases = ["i", "-1", "-i", "1", "i", "i"][:n]
        cycle = exact([[phases[c] if r == (c + 1) % n else 0 for c in range(n)] for r in range(n)])
        calls = counted_products(monkeypatch)
        poly = det_one_minus_lambda(cycle)
        assert calls == []
        # det(id - lambda*A) = 1 - (product of the phases) lambda^n for a phased n-cycle
        product = parse_scalar("1")
        for x in phases:
            product = product * parse_scalar(x)
        assert poly == UnivariatePoly([1] + [0] * (n - 1) + [-product], EXACT)


def sympy_det(a) -> list:
    """The coefficients of det(id - lambda*A) in lambda^0..lambda^n, by sympy."""
    det = sp.Poly(sp.expand((sp.eye(a.n) - LAM * to_sympy(a)).det()), LAM)
    return [sp.expand(det.coeff_monomial(LAM**k)) for k in range(a.n + 1)]


def as_sympy(poly, n) -> list:
    """The coefficients of poly in lambda^0..lambda^n as sympy numbers."""
    coeffs = (list(poly.coeffs) + [poly.backend.zero] * (n + 1))[: n + 1]
    return [sp.Rational(c.re) + sp.I * sp.Rational(c.im) for c in coeffs]


EXACT_GROUPS = {
    "trivial1": lambda: corpus.trivial(1),
    "trivial2": lambda: corpus.trivial(2),
    "trivial3": lambda: corpus.trivial(3),
    "pm_i2": corpus.plus_minus_i2,
    "s2": corpus.s2,
    "s3": corpus.s3,
    "s4": corpus.s4,
    "s5": corpus.s5,
    "s6": corpus.s6,
    "c4": corpus.c4,
    "d4": corpus.d4,
    "q8": corpus.q8,
    "2t": corpus.binary_tetrahedral,
    "b3": corpus.b3,
    "g423": corpus.g423,
    "g8_type": corpus.g8_type,
    "wf4": corpus.wf4,
    "pauli1": lambda: corpus.pauli(1),
    "pauli2": lambda: corpus.pauli(2),
    "b3_signed": lambda: corpus.signed_permutation_conjugate(corpus.b3(), 5),
    "b3_gaussian": lambda: corpus.gaussian_unitary_conjugate(corpus.b3(), 5),
    "q8_gaussian": lambda: corpus.gaussian_unitary_conjugate(corpus.q8(), 2),
}


class TestDetAgainstSympy:
    """det_one_minus_lambda against sympy's det(id - lambda*A), on both of its paths."""

    def test_every_class_representative(self):
        shapes = set()
        for name, build in EXACT_GROUPS.items():
            group = build()
            for members in group.conjugacy_classes():
                a = group.elements[members[0]]
                shapes.add(_monomial(a))
                assert as_sympy(det_one_minus_lambda(a), a.n) == sympy_det(a), (name, a)
        assert shapes == {True, False}

    @pytest.mark.parametrize("seed", range(12))
    def test_phased_permutations(self, seed):
        rng = random.Random(seed)
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        n = sum(lengths)
        order = rng.sample(range(n), n)
        image, start = {}, 0
        for length in lengths:
            cycle = order[start : start + length]
            start += length
            image.update(zip(cycle, cycle[1:] + cycle[:1]))
        a = exact([[rng.choice(["1", "-1", "i", "-i"]) if image[c] == r else 0 for c in range(n)]
                   for r in range(n)])
        assert _monomial(a)
        assert as_sympy(det_one_minus_lambda(a), n) == sympy_det(a)


def test_series_and_rational_take_no_matrix_products(monkeypatch):
    # every class representative of S7 is a permutation matrix, so after
    # closure the dets come off cycles and no method multiplies matrices
    s7 = close_group(from_permutations([(2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1)]))
    calls = counted_products(monkeypatch)
    series = molien_series(s7, 12).coefficients
    numerator, denominator = molien_rational(s7)
    assert calls == []
    # the invariants of S7 are the polynomials in its elementary symmetric ones
    assert series == [partitions_with_parts_at_most(d, 7) for d in range(13)]
    expected = UnivariatePoly([1], EXACT)
    for k in range(1, 8):
        expected = expected * UnivariatePoly([1] + [0] * (k - 1) + [-1], EXACT)
    assert (numerator, denominator) == (UnivariatePoly([1], EXACT), expected)


class TestRowReduce:
    def test_identity_rows(self):
        rank, _ = row_reduce([[1, 0], [0, 1]], EXACT)
        assert rank == 2

    def test_dependent_rows(self):
        rank, _ = row_reduce([[1, 1], [2, 2]], EXACT)
        assert rank == 1

    def test_half_rows(self):
        # hand elimination: row3 - row1 = 0, so rank 2
        rows = [
            [Fraction(1, 2), 0, Fraction(1, 2)],
            [0, 1, 0],
            [Fraction(1, 2), 0, Fraction(1, 2)],
        ]
        rank, reduced = row_reduce(rows, EXACT)
        assert rank == 2
        assert reduced[0] == [parse_scalar("1"), parse_scalar("0"), parse_scalar("1")]
        assert reduced[1] == [parse_scalar("0"), parse_scalar("1"), parse_scalar("0")]
        assert all(not x for x in reduced[2])

    def test_rank_invariant_under_permutation_and_scaling(self):
        rng = random.Random(11)
        base = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)]
        reference = row_reduce(base, EXACT)[0]
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            scaled = []
            for row in shuffled:
                factor = 0
                while factor == 0:
                    factor = rng.randint(-4, 4)
                scaled.append([factor * x for x in row])
            assert row_reduce(scaled, EXACT)[0] == reference

    def test_float_pivot_threshold(self):
        fb = float_backend(1e-9)
        rank, _ = row_reduce([[1e-12, 0], [0, 1]], fb)
        assert rank == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_float_pivot_columns_are_cleared_exactly(self, seed):
        # entries below the tolerance in a pivot column are eliminated too:
        # skipping them let later divisions by pivots below 1 push them
        # over the tolerance
        rng = random.Random(seed)
        fb = float_backend(1e-9)
        rows = [
            [rng.choice((0.0, 3e-10, -7e-10, rng.uniform(-1, 1))) for _ in range(7)]
            for _ in range(6)
        ]
        rank, reduced = row_reduce(rows, fb)
        # a pivot is exactly 1, so the first exact 1 of a pivot row marks it
        pivots = [row.index(1) for row in reduced[:rank]]
        assert pivots == sorted(set(pivots))
        for r, row in enumerate(reduced):
            for k, p in enumerate(pivots):
                assert row[p] == (1 if k == r else 0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            row_reduce([[1, 2], [1]], EXACT)


class TestUnivariatePoly:
    def test_trailing_zeros_trimmed(self):
        poly = UnivariatePoly([1, 2, 0, 0], EXACT)
        assert poly.degree == 1

    def test_divmod(self):
        lam_sq_minus_1 = UnivariatePoly([-1, 0, 1], EXACT)
        lam_minus_1 = UnivariatePoly([-1, 1], EXACT)
        quotient, remainder = poly_divmod(lam_sq_minus_1, lam_minus_1)
        assert quotient == UnivariatePoly([1, 1], EXACT)
        assert remainder.is_zero()

    def test_gcd_is_monic(self):
        one_minus = UnivariatePoly([1, -1], EXACT)
        one_plus = UnivariatePoly([1, 1], EXACT)
        a = one_minus * one_minus * one_plus
        b = one_minus * one_plus * one_plus
        gcd = poly_gcd(a, b)
        assert gcd == UnivariatePoly([-1, 0, 1], EXACT)

    def test_divmod_randomized_reconstruction(self):
        rng = random.Random(5)
        for _ in range(30):
            a = UnivariatePoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))], EXACT)
            b = UnivariatePoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))], EXACT)
            if b.is_zero():
                continue
            q, r = poly_divmod(a, b)
            terms = zip_longest((q * b).coeffs, r.coeffs, fillvalue=EXACT.zero)
            assert UnivariatePoly([x + y for x, y in terms], EXACT) == a
            assert r.degree < b.degree
