"""The exact kernel on Gaussian-integer pairs against the GaussianRational references.

On the exact backend the monomial-image walk runs on (re, im) int pairs
of m*a, m the lcm of the denominators of a's entries, and the fixed
space is eliminated fraction-free on those pairs. Lowered to scalars,
the images must be the reference walk's exactly, keys and order
included, and the pivot rows, each divided by its pivot, the reference
elimination's, in the order they were found.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import corpus
from molien import EXACT, GaussianRational, SquareMatrix
from molien.action import _Ladder, _lowered, monomial_images
from molien.invariants import _eliminate
from molien.scalars import _make
from oracles import reference_images, reference_pivots

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


class TestPivots:
    @pytest.mark.parametrize("name", PIVOT_GROUPS)
    def test_normalized_pivots_equal_the_reference(self, name):
        group = PIVOT_GROUPS[name]()
        generators = group.generators()
        ladder = _Ladder(group.n, 8)
        walks = zip(*(monomial_images(s, ladder) for s in generators))
        for d, images in enumerate(walks):
            weights, pivots = _eliminate(group, images, d)
            assert weights is None
            for scale, row in pivots.values():
                # the stored pivot is a positive int, and the row has no common factor
                assert type(scale) is int and scale > 0
                assert math.gcd(scale, *(part for pair in row.values() for part in pair)) == 1
            # each pivot row divided by its pivot, dict for dict, in the order found
            ours = [
                (top, {k: _make(re, im, scale) for k, (re, im) in row.items()})
                for top, (scale, row) in pivots.items()
            ]
            assert ours == list(reference_pivots(group, d).items()), f"{name} at degree {d}"
