"""The test corpus of groups used across the suite and the acceptance run."""

from __future__ import annotations

import math
import random
from fractions import Fraction

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


def g8_type():
    """The exact reflection group of order 96 generated by (1+i)/2 [[1, 1], [1, -1]] and diag(1, i).

    Neither real nor monomial. Its Molien series is 1/((1 - l^8)(1 - l^12)),
    as for Shephard-Todd G_8. It is not in build_corpus().
    """
    return close_group(
        [
            SquareMatrix([["1/2+1/2i", "1/2+1/2i"], ["1/2+1/2i", "-1/2-1/2i"]], EXACT),
            SquareMatrix([[1, 0], [0, "i"]], EXACT),
        ]
    )


def wf4():
    """The Weyl group W(F4) of order 1152 on R^4, on the exact backend.

    Reflections in (0,1,-1,0), (0,0,1,-1), (0,0,0,1) and (1,-1,-1,-1)/2:
    three monomial generators and one dense one with entries +-1/2.
    """
    half = Fraction(1, 2)
    mirrors = []
    for normal in ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (half, -half, -half, -half)):
        scale = Fraction(2, sum(x * x for x in normal))
        mirrors.append(
            [[int(i == j) - scale * normal[i] * normal[j] for j in range(4)] for i in range(4)]
        )
    return close_group([SquareMatrix(m, EXACT) for m in mirrors])


def dihedral_float(m: int):
    """The dihedral group of order 2m on R^2, on the float backend."""
    c, s = math.cos(2 * math.pi / m), math.sin(2 * math.pi / m)
    fb = float_backend()
    return close_group([SquareMatrix([[c, -s], [s, c]], fb), SquareMatrix(REFLECTION, fb)])


def h3_float():
    """The icosahedral reflection group H3 of order 120 on R^3, on the float backend."""
    phi = (1 + math.sqrt(5)) / 2
    fb = float_backend()
    mirrors = []
    for normal in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (phi, 1 / phi, 1.0)):
        norm2 = sum(x * x for x in normal)
        mirrors.append(
            [[float(i == j) - 2 * normal[i] * normal[j] / norm2 for j in range(3)] for i in range(3)]
        )
    return close_group([SquareMatrix(m, fb) for m in mirrors])


def h3_dense_conjugate():
    """H3 conjugated by the rotation by 0.7 rad about the unit axis (0.48, 0.6, 0.64).

    The rotation comes from Rodrigues' formula, so no generator of the
    conjugate is monomial: every entry is nonzero. It is not in
    build_corpus().
    """
    (x, y, z), angle = (0.48, 0.6, 0.64), 0.7
    c, s = math.cos(angle), math.sin(angle)
    t = 1 - c
    rotation = SquareMatrix(
        [
            [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
        ],
        float_backend(),
    )
    return close_group([rotation @ g @ rotation.conj_transpose() for g in h3_float().generators()])


def gleason():
    """Gleason's float group of order 192 generated by (1/sqrt 2) [[1, 1], [1, -1]] and diag(1, i).

    Its Molien series is 1/((1 - l^8)(1 - l^24)) (Gleason 1970; Sloane
    1977): the weight enumerators of doubly even self-dual codes. It is
    not in build_corpus().
    """
    h = 1 / math.sqrt(2)
    fb = float_backend()
    return close_group([SquareMatrix([[h, h], [h, -h]], fb), SquareMatrix([[1, 0], [0, 1j]], fb)])


PAULI = {
    "I": [[1, 0], [0, 1]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, "-i"], ["i", 0]],
    "Z": [[1, 0], [0, -1]],
}


def kron(a: list, b: list) -> list:
    """The Kronecker product of two square lists of entries, exact scalars or literals."""
    a = SquareMatrix(a, EXACT).rows
    b = SquareMatrix(b, EXACT).rows
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def pauli(qubits: int):
    """The Pauli group on C^(2^qubits): X, Y and Z on each qubit, order 16 or 64 for 1 or 2 qubits.

    It is not in build_corpus().
    """
    generators = []
    for k in range(qubits):
        for name in "XYZ":
            m = [[1]]
            for j in range(qubits):
                m = kron(m, PAULI[name if j == k else "I"])
            generators.append(SquareMatrix(m, EXACT))
    return close_group(generators)


def clifford2():
    """The 2-qubit Clifford group over Q(i), order 46 080: zeta_8 H on each qubit, S on each qubit, CZ.

    zeta_8 H = (1+i)/2 [[1, 1], [1, -1]] is g8_type's generator, S =
    diag(1, i) and CZ = diag(1, 1, 1, -1). Neither real nor monomial, with
    a scalar centre <i I>; its Molien series is
    1/((1 - l^8)(1 - l^12)(1 - l^20)(1 - l^24)), as for Shephard-Todd
    G_31. It is past the default max_order, closed here with 50 000, and
    not in build_corpus().
    """
    zeta_h = [["1/2+1/2i", "1/2+1/2i"], ["1/2+1/2i", "-1/2-1/2i"]]
    phase, identity = [[1, 0], [0, "i"]], PAULI["I"]
    cz = [[(-1 if i == 3 else 1) * int(i == j) for j in range(4)] for i in range(4)]
    generators = [kron(zeta_h, identity), kron(identity, zeta_h), kron(phase, identity),
                  kron(identity, phase), cz]
    return close_group([SquareMatrix(m, EXACT) for m in generators], max_order=50_000)


def signed_permutation_conjugate(group, seed: int):
    """The group generated by P s P^-1 over the generators s, for a seeded signed permutation P."""
    rng = random.Random(seed)
    n = group.n
    image = list(range(n))
    rng.shuffle(image)
    p = SquareMatrix(
        [[rng.choice((-1, 1)) if image[i] == j else 0 for j in range(n)] for i in range(n)],
        group.backend,
    )
    return close_group([p @ s @ p.conj_transpose() for s in group.generators()])


def gaussian_unitary_conjugate(group, seed: int):
    """The group generated by U s U^-1 over the generators s, for a seeded unitary U over Q(i).

    U is a product of monomial matrices with phases such as (3+4i)/5 and,
    for n >= 2, (1+i)/2 [[1, 1], [1, -1]] on two seeded coordinates, so
    the conjugate's entries have denominators.
    """
    rng = random.Random(seed)
    n = group.n
    phases = ["1", "-1", "i", "-i", "3/5+4/5i", "3/5-4/5i", "-4/5+3/5i", "4/5+3/5i"]
    u = SquareMatrix.identity(n, group.backend)
    for _ in range(3):
        image = list(range(n))
        rng.shuffle(image)
        rows = [[rng.choice(phases) if image[i] == j else 0 for j in range(n)] for i in range(n)]
        u = u @ SquareMatrix(rows, group.backend)
        if n >= 2:
            j, k = rng.sample(range(n), 2)
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            rows[j][j] = rows[j][k] = rows[k][j] = "1/2+1/2i"
            rows[k][k] = "-1/2-1/2i"
            u = u @ SquareMatrix(rows, group.backend)
    return close_group([u @ s @ u.conj_transpose() for s in group.generators()])


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
