"""The test corpus of groups used across the suite and the acceptance run."""

from __future__ import annotations

import math

from molien import EXACT, SquareMatrix, close_group, float_backend, from_permutations

ROTATION = [[0, -1], [1, 0]]
REFLECTION = [[1, 0], [0, -1]]


def trivial(n: int):
    return close_group([SquareMatrix.identity(n, EXACT)])


def plus_minus_i2():
    return close_group([SquareMatrix([[-1, 0], [0, -1]], EXACT)])


def s2():
    return close_group(from_permutations([(2, 1)]))


def s3():
    return close_group(from_permutations([(2, 1, 3), (2, 3, 1)]))


def s4():
    return close_group(from_permutations([(2, 1, 3, 4), (2, 3, 4, 1)]))


def c4():
    return close_group([SquareMatrix(ROTATION, EXACT)])


def d4():
    return close_group([SquareMatrix(ROTATION, EXACT), SquareMatrix(REFLECTION, EXACT)])


def q8():
    return close_group(
        [SquareMatrix([["i", "0"], ["0", "-i"]], EXACT), SquareMatrix(ROTATION, EXACT)]
    )


def s5():
    return close_group(from_permutations([(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]))


def s6():
    return close_group(from_permutations([(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)]))


def binary_tetrahedral():
    """2T in SU(2), order 24: Q8 and the unit quaternion (1+i+j+k)/2; not monomial."""
    return close_group(
        [
            SquareMatrix([["i", "0"], ["0", "-i"]], EXACT),
            SquareMatrix(ROTATION, EXACT),
            SquareMatrix([["1/2+1/2i", "1/2+1/2i"], ["-1/2+1/2i", "1/2-1/2i"]], EXACT),
        ]
    )


def b3():
    """The hyperoctahedral group B3 = G(2,1,3) of signed permutations, order 48."""
    sign = SquareMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], EXACT)
    return close_group(from_permutations([(2, 1, 3), (2, 3, 1)]) + [sign])


def g423():
    """The imprimitive reflection group G(4,2,3), order 192.

    Monomial 3x3 matrices with entries in {1, -1, i, -i} whose nonzero
    entries multiply to +-1.
    """
    diagonals = [[["i", 0, 0], [0, "-i", 0], [0, 0, 1]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    return close_group(
        from_permutations([(2, 1, 3), (2, 3, 1)]) + [SquareMatrix(d, EXACT) for d in diagonals]
    )


def dihedral_float(m: int):
    """The dihedral group of order 2m on R^2, on the float backend."""
    c, s = math.cos(2 * math.pi / m), math.sin(2 * math.pi / m)
    fb = float_backend()
    return close_group([SquareMatrix([[c, -s], [s, c]], fb), SquareMatrix(REFLECTION, fb)])


def build_corpus() -> dict:
    return {
        "trivial1": trivial(1),
        "trivial2": trivial(2),
        "trivial3": trivial(3),
        "pm_i2": plus_minus_i2(),
        "s2": s2(),
        "s3": s3(),
        "s4": s4(),
        "c4": c4(),
        "d4": d4(),
        "q8": q8(),
    }
