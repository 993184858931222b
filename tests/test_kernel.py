"""The exact kernel on Gaussian-integer pairs against the GaussianRational references.

On the exact backend the monomial-image walk runs on (re, im) int pairs
of m*a, m the lcm of the denominators of a's entries, and the fixed
space is eliminated fraction-free on those pairs. Lowered to scalars,
the images must be the reference walk's exactly, keys and order
included. Monomial generators give the fixed space as orbits and the
others are eliminated on orbit columns, so ranks and bases must be the
reference elimination's over all rows, term for term; with no monomial
generator each monomial is its own orbit, and the pivot rows, each
divided by its pivot, must be the reference's brought to reduced form,
in the order they were found. Each backend's elimination loop also
takes row streams with no group behind them: its pivots must span the
rows, as many as sympy's rank.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

import corpus
from molien import (
    EXACT,
    GaussianRational,
    MonomialBasis,
    SquareMatrix,
    close_group,
    float_backend,
    from_permutations,
    invariant_basis,
    molien_series,
    verify_invariant,
)
from molien import invariants
from molien.action import _Ladder, _lowered, monomial_images
from molien.invariants import (
    _bombieri_weights,
    _complex_eliminate,
    _complex_orbits,
    _complex_rows,
    _fixed_spaces,
    _orbits,
    _pair_eliminate,
    fixed_space_dimensions,
)
from molien.scalars import _make
from oracles import reference_basis, reference_images, reference_pivots

DENOMINATORS = (1, 2, 5, 10)
PHASES = ["1", "-1", "i", "-i", "3/5+4/5i", "3/5-4/5i", "-4/5+3/5i", "4/5+3/5i"]


def dense(rng, n):
    """A matrix over Q(i) whose entries have denominators among 1, 2, 5 and 10; some are 0."""

    def entry():
        if rng.random() < 0.2:
            return 0
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)),
            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)),
        )

    return SquareMatrix([[entry() for _ in range(n)] for _ in range(n)], EXACT)


def unitary(rng, n):
    """A monomial matrix with phases such as (3+4i)/5, times (1+i)/2 [[1, 1], [1, -1]] on two coordinates."""
    image = list(range(n))
    rng.shuffle(image)
    u = SquareMatrix(
        [[rng.choice(PHASES) if image[i] == j else 0 for j in range(n)] for i in range(n)], EXACT
    )
    if n >= 2:
        j, k = rng.sample(range(n), 2)
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[j][j] = rows[j][k] = rows[k][j] = "1/2+1/2i"
        rows[k][k] = "-1/2-1/2i"
        u = u @ SquareMatrix(rows, EXACT)
    return u


def ordered(walk):
    """Each degree's images as lists of (position, coefficient), None where not wanted."""
    return [[None if image is None else list(image.items()) for image in images] for images in walk]


def lowered(a, ladder, wanted):
    """Every degree of a's walk with backend scalars as coefficients."""
    return [_lowered(a, d, images) for d, images in enumerate(monomial_images(a, ladder, wanted))]


def wanted_lists(rng, n, top):
    ladder = _Ladder(n, top)
    monomials = set()
    for _ in range(4):
        cut = sorted(rng.randint(0, top) for _ in range(n - 1))
        monomials.add(tuple(b - a for a, b in zip([0] + cut, cut + [top])))
    return [
        ("every", ladder, None),
        ("to_diagonals", ladder, ladder.to_diagonals),
        ("ancestors", ladder, ladder.ancestors(sorted(monomials))[0]),
    ]


class TestImages:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, top", [(1, 8), (2, 8), (3, 8), (4, 6)])
    @pytest.mark.parametrize("build", [dense, unitary])
    def test_lowered_images_equal_the_reference(self, build, n, top, seed):
        rng = random.Random(1000 * n + seed)
        a = build(rng, n)
        m = math.lcm(*(x.re.denominator * x.im.denominator for row in a.rows for x in row))
        assert m > 1 or build is unitary and n == 1
        for kind, ladder, wanted in wanted_lists(rng, n, top):
            expected = ordered(reference_images(a, ladder, wanted))
            assert ordered(lowered(a, ladder, wanted)) == expected, kind
            # the pairs are the images times m^d, m the lcm of the entries' denominators
            scale = EXACT.lift(a.rows)[0]
            for d, (pairs, images) in enumerate(zip(monomial_images(a, ladder, wanted), expected)):
                for pair_image, image in zip(pairs, images):
                    if image is None:
                        assert pair_image is None
                        continue
                    assert list(pair_image) == [q for q, _ in image]
                    for (re, im), (_, c) in zip(pair_image.values(), image):
                        assert type(re) is int and type(im) is int
                        assert c * scale**d == GaussianRational(re, im)

    def test_each_generator_has_its_own_scale(self):
        # in 2T the two Q8 generators have m = 1 and the dense one m = 2
        scales = [EXACT.lift(s.rows)[0] for s in corpus.binary_tetrahedral().generators()]
        assert scales == [1, 1, 2]


PIVOT_GROUPS = {
    **{name: (lambda name=name: corpus.build_corpus()[name]) for name in corpus.build_corpus()},
    "2t": corpus.binary_tetrahedral,
    "g8_type": corpus.g8_type,
    "g423": corpus.g423,
    "s5": corpus.s5,
    "wf4": corpus.wf4,
}
# the ladder ancestors of the monomials in W(F4)'s B3-orbit survivors, degrees 1..12,
# of the 1 820 monomials of degree <= 12 in 4 variables
WF4_ANCESTORS = 418
# no generator of these is monomial, so every monomial is its own column
NO_MONOMIAL_GROUPS = {
    "b3_gaussian0": lambda: corpus.gaussian_unitary_conjugate(corpus.b3(), 0),
    "2t_gaussian0": lambda: corpus.gaussian_unitary_conjugate(corpus.binary_tetrahedral(), 0),
    "g8_gaussian0": lambda: corpus.gaussian_unitary_conjugate(corpus.g8_type(), 0),
}


def is_monomial(s):
    return all(sum(map(bool, row)) == 1 for row in s.rows)


def basis_terms(group, d):
    """invariant_basis at degree d as lists of (monomial, coefficient), in key order."""
    return [list(f.terms.items()) for f in invariant_basis(group, d)]


def reference_terms(group, d, pivots=None):
    """reference_basis at degree d as lists of (monomial, coefficient), in key order."""
    monomials = MonomialBasis(group.n, d).monomials
    return [[(monomials[q], c) for q, c in v.items()] for v in reference_basis(group, d, pivots)]


class TestPivots:
    @pytest.mark.parametrize("name", [*PIVOT_GROUPS, *NO_MONOMIAL_GROUPS])
    def test_normalized_pivots_equal_the_reference(self, name):
        """The pivots normalized into ranks and bases, against the elimination over all rows.

        On orbit columns the pivots are compared through the rank and the
        reduced echelon basis they give; with no monomial generator each
        orbit is one monomial, and each pivot row over its pivot is also
        the reference's in reduced form, in order.
        """
        group = {**PIVOT_GROUPS, **NO_MONOMIAL_GROUPS}[name]()
        monomial = any(map(is_monomial, group.generators()))
        assert monomial == (name in PIVOT_GROUPS)
        ranks = fixed_space_dimensions(group, 8)
        for d, (orbits, pivots) in enumerate(_fixed_spaces(group, _Ladder(group.n, 8), range(9))):
            for scale, row in pivots.values():
                # the stored pivot is a positive int, and the row has no common factor
                assert type(scale) is int and scale > 0
                assert math.gcd(scale, *(part for pair in row.values() for part in pair)) == 1
            reference = reference_pivots(group, d)
            assert ranks[d] == math.comb(group.n + d - 1, d) - len(reference), f"{name} at degree {d}"
            assert basis_terms(group, d) == reference_terms(group, d, reference), f"{name} at degree {d}"
            if not monomial:
                # every monomial is its own orbit, in position order
                assert orbits == [{j: (1, 0)} for j in range(math.comb(group.n + d - 1, d))]
                # each pivot row divided by its pivot, dict for dict, in the order found
                ours = [
                    (top, {k: _make(re, im, scale) for k, (re, im) in row.items()})
                    for top, (scale, row) in pivots.items()
                ]
                assert ours == list(reduced_form(reference).items()), f"{name} at degree {d}"


def reduced_form(pivots: dict) -> dict:
    """reference_pivots with each row cleared of the later pivot columns, newest row first.

    A reference row holds no pivot column found before it, and the rows
    after it are reduced when it is cleared, so one pass clears it.
    """
    done: dict = {}
    for top in reversed(pivots):
        done[top] = {k: v for k, v in reduced(pivots[top], done.items()).items() if v}
    return {top: done[top] for top in pivots}


def trap(build):
    """build() conjugated by diag(1, (3+4i)/5): its monomial generators get entries +-(3+-4i)/5."""
    u = SquareMatrix([[1, 0], [0, "3/5+4/5i"]], EXACT)
    return close_group([u @ s @ u.conj_transpose() for s in build().generators()])


class TestNonUnitMonomials:
    """Orbit vectors with denominators: each orbit column is scaled by its own L_c."""

    @pytest.mark.parametrize("build, order", [(corpus.binary_tetrahedral, 24), (corpus.q8, 8)])
    def test_bases_equal_the_reference(self, build, order):
        group = trap(build)
        assert group.order == order
        monomial = [s for s in group.generators() if is_monomial(s)]
        assert any(x.re.denominator == 5 for s in monomial for row in s.rows for x in row)
        for d in range(11):
            assert basis_terms(group, d) == reference_terms(group, d), f"degree {d}"

    @pytest.mark.parametrize("build", [corpus.binary_tetrahedral, corpus.q8])
    def test_ranks_equal_the_series(self, build):
        group = trap(build)
        assert fixed_space_dimensions(group, 12) == molien_series(group, 12).coefficients


@pytest.mark.parametrize("d", range(7))
def test_no_generators_give_one_orbit_per_monomial(d):
    """With no monomial generator each monomial is its own orbit on both backends, in position order."""
    basis = MonomialBasis(3, d)
    assert _orbits([], [], d, len(basis), EXACT) == [{j: (1, 0)} for j in range(len(basis))]
    weights = _bombieri_weights(3, d)
    assert _complex_orbits([], [], d, weights, float_backend()) == [{j: w} for j, w in enumerate(weights)]


class TestOrbitValues:
    """Orbit values are int triples, lifted to pairs without a scalar: _fixed_spaces calls no _make."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_survivors_make_nothing(self, n, monkeypatch):
        group = close_group(from_permutations([(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)]))
        self.assert_counts(group, monkeypatch, dead=False)

    @pytest.mark.parametrize("build", [corpus.q8, corpus.b3, lambda: trap(corpus.q8)])
    def test_dead_orbits_make_nothing(self, build, monkeypatch):
        self.assert_counts(build(), monkeypatch, dead=True)

    @staticmethod
    def assert_counts(group, monkeypatch, dead):
        made = []

        def counted(*triple):
            made.append(triple)
            return _make(*triple)

        monkeypatch.setattr(invariants, "_make", counted)
        spaces = list(_fixed_spaces(group, _Ladder(group.n, 8), range(9)))
        monkeypatch.undo()
        assert made == []
        survivors = sum(len(v) for orbits, _ in spaces for v in orbits)
        size = sum(math.comb(group.n + d - 1, d) for d in range(9))
        # with every orbit alive the survivors cover every monomial
        assert (survivors < size) == dead
        assert [len(orbits) for orbits, _ in spaces] == molien_series(group, 8).coefficients


class TestGeneratorOrder:
    """Monomial generators first, the others in input order, walked only where the survivors reach."""

    def test_dense_generator_listed_first(self, monkeypatch):
        wf4 = corpus.wf4()
        dense = wf4.generators()[3]
        group = close_group([dense, *wf4.generators()[:3]])
        assert group.generators() == [dense, *wf4.generators()[:3]]
        calls = []

        def recorded(a, ladder, wanted=None):
            calls.append((a, wanted))
            return monomial_images(a, ladder, wanted)

        monkeypatch.setattr(invariants, "monomial_images", recorded)
        ranks = fixed_space_dimensions(group, 12)
        # the three monomial generators are walked in full, then the dense one
        assert [a for a, _ in calls] == [*wf4.generators()[:3], dense]
        assert [wanted is None for _, wanted in calls] == [True, True, True, False]
        # only along the ladder ancestors of the survivors' support: the monomials
        # of the invariants of the subgroup the monomial generators make
        subgroup = close_group(wf4.generators()[:3])
        support = {t for d in range(13) for f in invariant_basis(subgroup, d) for t in f.terms}
        expected, _ = _Ladder(4, 12).ancestors(sorted(support))
        asked = calls[3][1]
        assert [[j for j, *_ in step] for step in asked[1:]] == [
            [j for j, *_ in step] for step in expected[1:]
        ]
        walked = sum(map(len, asked[1:]))
        assert walked == WF4_ANCESTORS
        assert walked < sum(math.comb(3 + d, d) for d in range(13)) // 4
        monkeypatch.undo()
        assert ranks == fixed_space_dimensions(wf4, 12) == molien_series(wf4, 12).coefficients
        basis = invariant_basis(group, 12)
        assert basis == invariant_basis(wf4, 12)
        assert all(verify_invariant(f, wf4) for f in basis)


def gaussian_rows(rng, width, count, rank):
    """count dense rows of small Gaussian integers in the span of rank sparse seeded rows."""

    def small(bound):
        return complex(rng.randint(-bound, bound), rng.randint(-bound, bound))

    spanning = [[small(3) if rng.random() < 0.5 else 0j for _ in range(width)] for _ in range(rank)]
    rows = []
    for _ in range(count):
        coefficients = [small(2) for _ in spanning]
        rows.append([sum(c * v[k] for c, v in zip(coefficients, spanning)) for k in range(width)])
    return rows


def row_stream(seed, width=9):
    """Dense rows of two seeded sources interleaved, with duplicates and rows that reduce to zero."""
    rng = random.Random(seed)
    first, second = gaussian_rows(rng, width, 6, 3), gaussian_rows(rng, width, 6, 4)
    stream = [row for pair in zip(first, second) for row in pair]
    stream.insert(3, stream[0])
    stream.append(stream[1])
    stream.append([a - 2j * b for a, b in zip(stream[2], stream[4])])
    stream.append([a - a for a in stream[5]])
    return stream


def sympy_rank(stream):
    """The rank over Q(i), by sympy's domain matrices (Matrix.rank simplifies entries, slowly)."""
    matrix = sp.Matrix([[int(c.real) + int(c.imag) * sp.I for c in row] for row in stream])
    return DomainMatrix.from_Matrix(matrix).convert_to(sp.QQ_I).rank()


def reduced(row, pivots):
    """row less its multiples of the normalized pivot rows, in the order given."""
    row = dict(row)
    for top, pivot_row in pivots:
        factor = row.pop(top, 0)
        if factor:
            for k, v in pivot_row.items():
                row[k] = row.get(k, 0) - factor * v
    return row


class TestRowStreams:
    """Each elimination loop fed sparse rows directly, with no group and no walk."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_pivots_span_the_stream(self, seed):
        stream = row_stream(seed)
        sparse = [{k: (int(c.real), int(c.imag)) for k, c in enumerate(row) if c} for row in stream]
        pivots = _pair_eliminate(dict(row) for row in sparse)
        assert len(pivots) == sympy_rank(stream)
        for scale, row in pivots.values():
            assert type(scale) is int and scale > 0
            assert math.gcd(scale, *(part for pair in row.values() for part in pair)) == 1
            # no pivot row holds another pivot column
            assert not row.keys() & pivots.keys()
        normalized = [
            (top, {k: _make(re, im, scale) for k, (re, im) in row.items()})
            for top, (scale, row) in pivots.items()
        ]
        for row in sparse:
            exact = {k: GaussianRational(re, im) for k, (re, im) in row.items()}
            assert not any(reduced(exact, normalized).values())

    def test_float_rows_append_a_missing_diagonal_as_minus_one(self):
        # the rotation maps x1 to x2 and x2 to -x1, so no image holds its own monomial;
        # the appended -1 is -(1+0j), whose imaginary zero is -0.0 (0j - 1 has +0.0)
        group = close_group([SquareMatrix(corpus.ROTATION, float_backend())])
        walks = zip(*(monomial_images(s, _Ladder(2, 1)) for s in group.generators()))
        columns = [{0: 1.0}, {1: 1.0}]  # the degree-1 Bombieri weights: W itself
        rows = list(_complex_rows(list(walks)[1], group.generators(), 1, [1.0, 1.0], columns))
        assert [list(row) for row in rows] == [[0, 1], [0, 1]]
        for q, row in enumerate(rows):
            assert row[q] == -1 and math.copysign(1.0, row[q].imag) == -1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_float_pivots_span_the_stream(self, seed):
        stream = row_stream(seed)
        sparse = [{k: c for k, c in enumerate(row) if c} for row in stream]
        pivots = _complex_eliminate((dict(row) for row in sparse), float_backend())
        assert len(pivots) == sympy_rank(stream)
        normalized = list(pivots.items())
        for i, (_, row) in enumerate(normalized):
            assert not row.keys() & {top for top, _ in normalized[:i]}
        for row in sparse:
            assert max(map(abs, reduced(row, normalized).values()), default=0) < 1e-9
