"""Induced matrices of the lifted action and their structural identities."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import corpus
from molien import (
    EXACT,
    GaussianRational,
    MonomialBasis,
    ShapeError,
    SparsePolynomial,
    SquareMatrix,
    close_group,
    det_one_minus_lambda,
    float_backend,
    from_permutations,
    induced_matrix,
    series_reciprocal,
    substitute_linear,
    verify_invariant,
)
from molien import action
from molien.action import _WALKS, _Ladder, _lowered, monomial_images
from molien.matrices import _monomial
from oracles import reference_images, sympy_induced, to_sympy

ROTATION = SquareMatrix(corpus.ROTATION, EXACT)
DIAG_I = SquareMatrix([["i", "0"], ["0", "-i"]], EXACT)


class TestInducedFirst:
    def test_real_matrix_is_fixed(self):
        assert ROTATION.entrywise_conj() == ROTATION

    def test_diagonal_conjugates(self):
        assert DIAG_I.entrywise_conj() == SquareMatrix([["-i", "0"], ["0", "i"]], EXACT)

    def test_induced_first_is_unitary(self):
        for matrix in (ROTATION, DIAG_I):
            first = matrix.entrywise_conj()
            assert (first.conj_transpose() @ first).equals(
                SquareMatrix.identity(2, EXACT)
            )


class TestInducedMatrix:
    def test_minus_identity_squares_away(self):
        minus = SquareMatrix([[-1, 0], [0, -1]], EXACT)
        assert induced_matrix(minus, MonomialBasis(2, 2)) == SquareMatrix.identity(3, EXACT)

    def test_swap_permutes_basis(self):
        swap = SquareMatrix([[0, 1], [1, 0]], EXACT)
        expected = SquareMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]], EXACT)
        assert induced_matrix(swap, MonomialBasis(2, 2)) == expected

    def test_rotation_degree_two(self):
        # hand expansion: x1^2 -> x2^2, x1*x2 -> -x1*x2, x2^2 -> x1^2
        induced = induced_matrix(ROTATION, MonomialBasis(2, 2))
        assert induced == SquareMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]], EXACT)
        trace = induced.trace()
        # cross-check against [lambda^2] of 1/(1 + lambda^2) = -1
        series = series_reciprocal(det_one_minus_lambda(ROTATION), 2)
        assert trace == series.coeffs[2] == EXACT.coerce(-1)

    def test_degree_zero_is_one_by_one_identity(self):
        induced = induced_matrix(DIAG_I, MonomialBasis(2, 0))
        assert induced == SquareMatrix.identity(1, EXACT)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            induced_matrix(ROTATION, MonomialBasis(3, 2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_sympy_expansion(self, d):
        group = corpus.q8()
        basis = MonomialBasis(2, d)
        for element in group.elements:
            ours = to_sympy(induced_matrix(element, basis))
            theirs = sympy_induced(to_sympy(element), list(basis.monomials), 2)
            assert sp.simplify(ours - theirs) == sp.zeros(len(basis), len(basis))

    def test_float_small_terms_are_kept(self):
        # sin(2 pi/30)^16 is about 1e-11, below the 1e-9 tolerance, yet it is
        # a coefficient of the image and must survive the expansion
        angle = 2 * math.pi / 30
        c, s = math.cos(angle), math.sin(angle)
        rotation = SquareMatrix([[c, -s], [s, c]], float_backend())
        d = 16
        assert s**d < rotation.backend.tolerance
        ours = induced_matrix(rotation, MonomialBasis(2, d))
        # with two variables, position k of the degree-d basis is x1^(d-k) x2^k,
        # so a product of linear forms is a convolution of coefficient arrays
        forms = [np.conj([rotation.rows[0][i], rotation.rows[1][i]]) for i in range(2)]
        theirs = np.zeros((d + 1, d + 1), dtype=complex)
        for k in range(d + 1):
            image = np.ones(1, dtype=complex)
            for _ in range(d - k):
                image = np.convolve(image, forms[0])
            for _ in range(k):
                image = np.convolve(image, forms[1])
            theirs[:, k] = image
        assert np.max(np.abs(np.array(ours.rows) - theirs)) < 1e-12


class TestActionLaws:
    @pytest.mark.parametrize("build", [corpus.s3, corpus.q8, corpus.d4])
    def test_homomorphism(self, build):
        group = build()
        rng = random.Random(13)
        pairs = [
            (rng.randrange(group.order), rng.randrange(group.order)) for _ in range(6)
        ]
        for d in (1, 2, 3):
            basis = MonomialBasis(group.n, d)
            for i, j in pairs:
                h, g = group.elements[i], group.elements[j]
                product_induced = induced_matrix(h @ g, basis)
                assert product_induced == induced_matrix(h, basis) @ induced_matrix(g, basis)

    @pytest.mark.parametrize("build", [corpus.s3, corpus.q8, corpus.c4])
    def test_inverse_law(self, build):
        group = build()
        for d in (1, 2, 3):
            basis = MonomialBasis(group.n, d)
            identity = SquareMatrix.identity(len(basis), EXACT)
            for i in range(group.order):
                forward = induced_matrix(group.elements[i], basis)
                backward = induced_matrix(group.inverse(i), basis)
                assert backward @ forward == identity

    def test_inverse_equals_conj_transpose_at_degree_one(self, corpus):
        for group in corpus.values():
            for i in range(group.order):
                first = group.elements[i].entrywise_conj()
                assert group.inverse(i).entrywise_conj() == first.conj_transpose()

    def test_unitarity_at_degree_one(self, corpus):
        for group in corpus.values():
            identity = SquareMatrix.identity(group.n, EXACT)
            for element in group.elements:
                first = element.entrywise_conj()
                assert first.conj_transpose() @ first == identity

    def test_spectral_reciprocity_of_traces(self, corpus):
        for group in corpus.values():
            for i in range(group.order):
                trace = group.elements[i].entrywise_conj().trace()
                inverse_trace = group.inverse(i).entrywise_conj().trace()
                assert inverse_trace == trace.conjugate()

    @pytest.mark.parametrize("build", [corpus.c4, corpus.q8, corpus.s3])
    def test_trace_identity_small(self, build):
        # Tr(A_g^[d]) = [lambda^d] 1/det(id - lambda A_g^[1]), d <= 6
        group = build()
        for element in group.elements:
            expansion = series_reciprocal(
                det_one_minus_lambda(element.entrywise_conj()), 6
            )
            for d in range(7):
                induced = induced_matrix(element, MonomialBasis(group.n, d))
                assert induced.trace() == expansion.coeffs[d]


def passes(ladder, d):
    """The (source, target) positions of degree d that the diagonal bounds keep."""
    codes, guard = ladder.codes[d], ladder.guard
    return {
        (j, q)
        for j, _, _, bound in ladder.to_diagonals[d]
        for q, code in enumerate(codes)
        if (bound - code) & guard == guard
    }


def lowered(a, ladder, wanted=None):
    """Every degree of a's walk with backend scalars as coefficients."""
    return [_lowered(a, d, images) for d, images in enumerate(monomial_images(a, ladder, wanted))]


def diagonals(walk):
    return [[image.get(j) for j, image in enumerate(images)] for images in walk]


def traces(diagonals, backend):
    """Per degree, the diagonal sum in basis order, as the class traces add it."""
    sums = []
    for row in diagonals:
        trace = backend.zero
        for x in row:
            if x is not None:
                trace = trace + x
        sums.append(trace)
    return sums


def entries(walk):
    """The image entries a walk built, over the wanted monomials (None where not wanted)."""
    return sum(len(image) for images in walk for image in images if image)


class TestLadder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_positions_and_links_follow_the_basis(self, n):
        # the closed form of a position, the parent links of every monomial
        # and the lazily built rows all agree with the enumerated bases
        ladder = _Ladder(n, 8)
        for d in range(9):
            basis = MonomialBasis(n, d)
            wanted, positions = ladder.ancestors(basis.monomials)
            assert [positions[m] for m in basis.monomials] == list(range(len(basis)))
            if not d:
                continue
            assert wanted[d] == ladder.every[d]
            below = MonomialBasis(n, d - 1)
            for (j, p, i, bound), m in zip(ladder.every[d], basis.monomials, strict=True):
                assert basis.monomials[j] == m and bound is None
                assert m[:i] == (0,) * i and m[i] > 0
                assert below.monomials[p] == m[:i] + (m[i] - 1,) + m[i + 1 :]
            for q, m in enumerate(below.monomials):
                row = [basis.index[m[:k] + (m[k] + 1,) + m[k + 1 :]] for k in range(n)]
                assert ladder.row(d, q) == tuple(row)
            assert None not in ladder.codes[d]
            assert [ladder.monomial(d, q) for q in range(len(basis))] == list(basis.monomials)

    def test_ancestors_of_a_few_monomials(self):
        ladder = _Ladder(3, 4)
        wanted, positions = ladder.ancestors([(0, 1, 3), (2, 0, 0)])
        named = [
            [(MonomialBasis(3, d).monomials[j], MonomialBasis(3, d - 1).monomials[p], i) for j, p, i, _ in step]
            for d, step in enumerate(wanted)
            if d
        ]
        # x2 x3^3 <- x3^3 <- x3^2 <- x3, and x1^2 <- x1, in position order
        assert named == [
            [((1, 0, 0), (0, 0, 0), 0), ((0, 0, 1), (0, 0, 0), 2)],
            [((2, 0, 0), (1, 0, 0), 0), ((0, 0, 2), (0, 0, 1), 2)],
            [((0, 0, 3), (0, 0, 2), 2)],
            [((0, 1, 3), (0, 0, 3), 1)],
        ]
        assert positions == {(0, 1, 3): 13, (2, 0, 0): 0}


class TestPrunedWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rule_is_the_backward_closure_of_the_diagonals(self, n):
        # for a dense matrix, entry (j, q) of degree d feeds the entries
        # (j', q + e_k) of every child j' of j and every k; the entries that
        # reach a diagonal of degree <= D are closed backwards from them
        for top in range(7):
            ladder = _Ladder(n, top)
            closure = {(j, j) for j in range(math.comb(n + top - 1, top))}
            for d in range(top, 0, -1):
                assert passes(ladder, d) == closure
                size = math.comb(n + d - 2, d - 1)
                closure = {(j, j) for j in range(size)} | {
                    (ladder.every[d][child][1], q)
                    for child, t in closure
                    for q in range(size)
                    if t in ladder.row(d, q)
                }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, top", [(2, 9), (3, 7), (4, 6)])
    def test_diagonals_equal_the_full_walk(self, n, top, seed):
        # dense, not unitary: exact over Q(i), and complex floats whose
        # sums must agree bit for bit, so == on both backends
        rng = random.Random(seed)
        exact = SquareMatrix(
            [
                [
                    GaussianRational(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
            EXACT,
        )
        floats = SquareMatrix(
            [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)],
            float_backend(),
        )
        for a in (exact, floats):
            # the pruned walk first, on a fresh ladder, so it builds its own links
            ladder = _Ladder(n, top)
            pruned = diagonals(lowered(a, ladder, ladder.to_diagonals))
            full = diagonals(lowered(a, ladder))
            assert pruned == full
            assert traces(pruned, a.backend) == traces(full, a.backend)

    def test_dense_wf4_generator_entry_counts(self):
        # the reflection in (1,-1,-1,-1)/2, at D = 12
        s = corpus.wf4().generators()[3]
        assert {(abs(x.re), x.im) for row in s.rows for x in row} == {(Fraction(1, 2), 0)}
        ladder = _Ladder(4, 12)
        kept = entries(monomial_images(s, ladder, ladder.to_diagonals))
        assert kept == 14_218
        # the rule allows 15 528 entries for any dense 4x4 matrix; here the
        # other 1 310 cancel exactly
        assert 1 + sum(len(passes(ladder, d)) for d in range(1, 13)) == 15_528
        # the entries are +-1/2, so the float images are dyadic and exact:
        # the full walk's nonzero entries counted on the quicker backend
        halves = SquareMatrix([[float(x.re) for x in row] for row in s.rows], float_backend())
        assert entries(monomial_images(halves, ladder)) == 489_012
        assert entries(monomial_images(halves, ladder, ladder.to_diagonals)) == kept


class TestAncestorWalk:
    def test_power_sum_builds_only_its_ancestors(self, monkeypatch):
        # f = x1^14 + ... + x8^14 under the 8-cycle: the full ladder to degree
        # 14 has 319 770 monomials with 8 links each
        import molien.action

        ladders, built = [], []
        make, walk = molien.action._Ladder, molien.action.monomial_images

        def recording(*args):
            ladders.append(make(*args))
            return ladders[-1]

        def counting(*args):
            for images in walk(*args):
                built.append(sum(image is not None for image in images))
                yield images

        monkeypatch.setattr(molien.action, "_Ladder", recording)
        monkeypatch.setattr(molien.action, "monomial_images", counting)
        n = 8
        f = SparsePolynomial(n, {tuple(14 * (k == i) for k in range(n)): 1 for i in range(n)}, EXACT)
        cycle = from_permutations([tuple(range(2, n + 1)) + (1,)])[0]
        group = close_group([cycle])
        assert substitute_linear(f, cycle) == f
        assert verify_invariant(f, group)
        assert len(ladders) == 2
        for ladder in ladders:
            # rows from 1 + 8 * 13 sources x_k^e, e < 14; their targets are
            # x_k^e x_l: 8, 36, then 64 per degree
            assert sum(row is not None for up in ladder.up[1:] for row in up) == 1 + 8 * 13
            assert sum(code is not None for codes in ladder.codes for code in codes) == 1 + 8 + 36 + 64 * 12
        # the images of x_k^e, e = 1..14, and of the constant
        assert built == ([1] + [8] * 14) * 2


def phased(group, phases):
    """The group generated by u s u^-1 over the generators s, u the diagonal of the given phases."""
    u = SquareMatrix([[p if i == j else 0 for j in range(len(phases))] for i, p in enumerate(phases)], EXACT)
    return close_group([u @ s @ u.conj_transpose() for s in group.generators()])


def one_term_cases():
    """Monomial matrices on both backends: (name, matrix)."""
    s7 = from_permutations([(2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1)])
    trap = SquareMatrix([[1, 0], [0, "3/5+4/5i"]], EXACT)
    non_unit = [trap @ s @ trap.conj_transpose() for s in corpus.q8().generators()[:2]]
    floats = float_backend()
    signed = SquareMatrix([[0.0, -1.0, -0.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]], floats)
    phases = SquareMatrix([[0, 0.6 + 0.8j, 0], [-0.0, 0, -0.8 + 0.6j], [-1j, -0.0, 0]], floats)
    return [
        *((f"s7_{k}", s) for k, s in enumerate(s7)),
        *((f"b3_phased_{k}", s) for k, s in enumerate(phased(corpus.b3(), [1, "i", "-i"]).generators())),
        *((f"non_unit_{k}", s) for k, s in enumerate(non_unit)),
        ("float_signed", signed),
        ("float_phases", phases),
    ]


def bits(walk):
    """Each degree's images as lists of (position, coefficient), floats by their bits, None where not wanted."""

    def exact(c):
        return (c.real.hex(), c.imag.hex()) if type(c) is complex else c

    return [[None if image is None else [(q, exact(c)) for q, c in image.items()] for image in images]
            for images in walk]


class TestOneTermBody:
    """Monomial matrices walk one term per monomial, bit for bit as the general bodies would."""

    @pytest.mark.parametrize("name, a", one_term_cases(), ids=[name for name, _ in one_term_cases()])
    def test_equals_the_general_body(self, name, a):
        assert _monomial(a)
        n, top = a.n, 8 if a.n < 7 else 6
        monomials = [tuple(top * (k == i) for k in range(n)) for i in range(n)]
        monomials.append((1,) * (n - 1) + (top - n + 1,))
        for kind in ("every", "to_diagonals", "ancestors"):
            walks = []
            for walk in (monomial_images, _WALKS[a.backend.scalar], reference_images):
                # each body on a fresh ladder, so it builds its own links
                ladder = _Ladder(n, top)
                wanted = {
                    "every": None,
                    "to_diagonals": ladder.to_diagonals,
                    "ancestors": ladder.ancestors(monomials)[0],
                }[kind]
                walks.append(list(walk(a, ladder, wanted)))
            ours, general, reference = walks
            assert bits(ours) == bits(general), kind
            # one term or none per wanted monomial
            assert all(image is None or len(image) <= 1 for images in ours for image in images)
            lowered = [_lowered(a, d, images) for d, images in enumerate(ours)]
            assert bits(lowered) == bits(reference), kind

    def test_signed_zero_phases_keep_their_bits(self):
        # conj(-1) is -1-0j, so the images of odd degree carry a negative zero
        _, a = one_term_cases()[-2]
        images = list(monomial_images(a, _Ladder(3, 3)))
        signs = {math.copysign(1.0, c.imag) for image in images[3] for c in image.values()}
        assert signs == {1.0, -1.0}

    def test_near_monomial_float_keeps_the_general_body(self):
        # cos(pi/2) is about 6e-17: not zero, so x1 maps to two terms
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        assert 0 < c < 1e-16
        rotation = SquareMatrix([[c, -s], [s, c]], float_backend())
        assert not _monomial(rotation)
        ladder = _Ladder(2, 4)
        ours = list(monomial_images(rotation, ladder))
        assert [len(image) for image in ours[1]] == [2, 2]
        assert bits(ours) == bits(_WALKS[complex](rotation, _Ladder(2, 4), None))

    @pytest.mark.parametrize("name, a", one_term_cases()[:2], ids=["s7_0", "s7_1"])
    def test_one_entry_and_one_product_per_wanted_monomial(self, name, a, monkeypatch):
        products, product = [], action._pair_product

        def counted(c, l):
            products.append(c)
            return product(c, l)

        monkeypatch.setattr(action, "_pair_product", counted)
        ladder = _Ladder(7, 8)
        size = sum(math.comb(6 + d, d) for d in range(9))
        assert entries(monomial_images(a, ladder)) == size
        assert len(products) == size - 1
        # along the ancestors of a few monomials: one entry per wanted one
        wanted, _ = ladder.ancestors([(8, 0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0, 5)])
        products.clear()
        assert entries(monomial_images(a, ladder, wanted)) == 1 + sum(map(len, wanted[1:]))
        assert len(products) == sum(map(len, wanted[1:]))
