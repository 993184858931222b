"""The lifted group action on polynomials: the one kernel that maps monomials.

A group element acting on variables by the unitary matrix A sends the
linear form x_i to L_i = sum_k conj(A[k][i]) x_k, so the first induced
matrix is the entrywise conjugate of A. Images of the basis monomials are
built degree by degree on raw dicts: image(x^a) = image(x^(a - e_i)) * L_i,
with x_i the first variable of x^a, so each degree needs only the images
of the degree below. The Reynolds sweep, the class traces, the fixed
space, induced_matrix, verify_invariant and substitute_linear all read
these images. The class traces read only diagonals, so their walk skips
every entry that no descendant on the ladder can carry to a diagonal.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from molien.errors import ShapeError
from molien.matrices import SquareMatrix, _trusted
from molien.polynomials import MonomialBasis, SparsePolynomial
from molien.scalars import ScalarBackend


class DegreeStep:
    """The degree-d basis and how it hangs off the degree-(d-1) basis.

    first[j] = (p, i): basis monomial j is x_i times monomial p of degree
    d-1, where x_i is the first variable of monomial j. up[p][k] is the
    position of x_k times monomial p of degree d-1. Both are empty at d=0.
    """

    __slots__ = ("basis", "first", "up")

    def __init__(self, basis: MonomialBasis, first: tuple, up: tuple):
        self.basis = basis
        self.first = first
        self.up = up


def monomial_ladder(n: int, max_degree: int) -> list[DegreeStep]:
    """Bases of degrees 0..max_degree in n variables, with their links."""
    if max_degree < 0:
        raise ShapeError("degree must be nonnegative")
    prev = MonomialBasis(n, 0)
    ladder = [DegreeStep(prev, (), ())]
    for d in range(1, max_degree + 1):
        basis = MonomialBasis(n, d)
        index = basis.index
        up = tuple(
            tuple(index[m[:k] + (m[k] + 1,) + m[k + 1 :]] for k in range(n))
            for m in prev.monomials
        )
        first = []
        for m in basis.monomials:
            i = next(k for k, e in enumerate(m) if e)
            first.append((prev.index[m[:i] + (m[i] - 1,) + m[i + 1 :]], i))
        ladder.append(DegreeStep(basis, tuple(first), up))
        prev = basis
    return ladder


def _reach_tables(ladder: list[DegreeStep]) -> list[tuple]:
    """Per degree of the ladder, (codes, bounds, guard): which image entries reach a diagonal.

    Monomial c of degree d with first variable x_i has ladder descendants
    c + e, e only on variables <= i. Its image entry at t can feed a
    diagonal of degree <= D, the ladder's top, only if t_j <= c_j for all
    j > i and max(P_i, P_(i+1) - c_i) <= D - d, where P_k = t_0 + ... + t_(k-1).
    codes[q] packs monomial q's t_j and P_k into bit fields with a guard
    bit on top of each, bounds[j] packs monomial j's bounds with every
    guard set, and (bounds[j] - codes[q]) & guard == guard iff none borrowed.
    """
    top = len(ladder) - 1
    n = ladder[0].basis.n
    width = top.bit_length() + 1

    def field(f, value):
        # fields 0..n-1 hold t_0..t_(n-1), fields n..2n hold P_0..P_n
        return value << f * width

    full = (1 << width - 1) - 1  # the largest value a field holds
    ones = sum(field(f, 1) for f in range(2 * n + 1))
    guard, unbounded = ones << width - 1, ones * full
    # x_k raises t_k and every P_j with j > k
    raise_by = [field(k, 1) + sum(field(n + j, 1) for j in range(k + 1, n + 1)) for k in range(n)]
    # a source with first variable x_i keeps its own t_j for j > i and its
    # P_(i+1), which is c_i; the slack D - d bounds P_i and is added to P_(i+1);
    # the other fields are left at full
    keep = [sum(field(j, full) for j in range(i + 1, n)) + field(n + i + 1, full) for i in range(n)]
    rest = [unbounded - keep[i] - field(n + i, full) for i in range(n)]
    pinned = [field(n + i, 1) + field(n + i + 1, 1) for i in range(n)]
    tables = []
    codes = [0]
    for d, step in enumerate(ladder):
        if d:
            codes = [codes[p] + raise_by[i] for p, i in step.first]
        base = [guard + rest[i] + (top - d) * pinned[i] for i in range(n)]
        bounds = [(code & keep[i]) + base[i] for code, (_, i) in zip(codes, step.first)]
        tables.append((codes, bounds, guard))
    return tables


def monomial_images(a: SquareMatrix, ladder: list[DegreeStep], reach=None) -> Iterator[list[dict]]:
    """Images of the basis monomials under a, one degree of the ladder at a time.

    Yields, for each degree, a list whose j-th dict maps basis positions
    to the coefficients of the image of basis monomial j. Only exact zeros
    are skipped: no coefficient is dropped by the float tolerance. Only
    the previous degree's images are kept.

    Given reach, the ladder's _reach_tables, only entries that can feed a
    diagonal on the ladder are built. Each of them gets the same terms in
    the same order as in the full walk, so float diagonals match bit for bit.
    """
    n = a.n
    forms = [
        [(k, row[i].conjugate()) for k, row in enumerate(a.rows) if row[i]]
        for i in range(n)
    ]
    images = [{0: a.backend.one}]
    yield images
    for d in range(1, len(ladder)):
        up = ladder[d].up
        codes, bounds, guard = reach[d] if reach else (None, repeat(None), None)
        nxt = []
        for (p, i), bound in zip(ladder[d].first, bounds):
            form = forms[i]
            out: dict = {}
            for q, c in images[p].items():
                targets = up[q]
                for k, lk in form:
                    t = targets[k]
                    if t in out:
                        out[t] = out[t] + c * lk
                    elif bound is None or (bound - codes[t]) & guard == guard:
                        out[t] = c * lk
            nxt.append({t: v for t, v in out.items() if v})
        images = nxt
        yield images


def _image_terms(f: SparsePolynomial, a: SquareMatrix) -> dict:
    """The terms of f with every x_i sent to L_i, as {monomial: coefficient}.

    The monomial images are walked only along the ladder ancestors of f's
    monomials (the first links), so the products follow the terms of f.
    The full monomial_ladder(n, deg f) is built first, though: every
    monomial of every degree up to deg f, with n links each. Its cost
    grows with the basis sizes up to deg f and is nearly all of the time
    for f = sum x_i^d at n = 8, d = 14. The terms of f are read off their
    images degree by degree, in the order of f's terms within a degree.
    No coefficient is dropped by the float tolerance.
    """
    top = max(map(sum, f.terms), default=0)
    ladder = monomial_ladder(f.n, top)
    wanted = [set() for _ in ladder]
    for mono in f.terms:
        wanted[sum(mono)].add(ladder[sum(mono)].basis.index[mono])
    for d in range(top, 0, -1):
        wanted[d - 1].update(ladder[d].first[j][0] for j in wanted[d])
    chosen = [sorted(keep) for keep in wanted]
    # the same ladder with each step's first links cut down to the chosen
    # monomials, pointing into the chosen monomials of the degree below
    pruned = [ladder[0]]
    for d in range(1, top + 1):
        slot = {j: k for k, j in enumerate(chosen[d - 1])}
        links = tuple((slot[p], i) for p, i in (ladder[d].first[j] for j in chosen[d]))
        pruned.append(DegreeStep(ladder[d].basis, links, ladder[d].up))
    images = [dict(zip(keep, walk)) for keep, walk in zip(chosen, monomial_images(a, pruned))]
    out: dict = {}
    for mono, c in sorted(f.terms.items(), key=lambda term: sum(term[0])):
        d = sum(mono)
        monomials = ladder[d].basis.monomials
        for q, v in images[d][ladder[d].basis.index[mono]].items():
            t = monomials[q]
            out[t] = out[t] + c * v if t in out else c * v
    return out


def dense_matrix(columns: list[dict], backend: ScalarBackend) -> SquareMatrix:
    """Square matrix whose column j holds the sparse column columns[j].

    The entries are scalars of backend already, so they are not coerced again.
    """
    size = len(columns)
    zero = backend.zero
    rows = [[zero] * size for _ in range(size)]
    for j, column in enumerate(columns):
        for q, c in column.items():
            rows[q][j] = c
    return _trusted(tuple(map(tuple, rows)), backend)


def induced_matrix(a: SquareMatrix, basis: MonomialBasis) -> SquareMatrix:
    """Matrix of the lifted action of a on the monomial basis of one degree.

    Column j holds the coordinates of the image of the j-th basis
    monomial. Assumes a is unitary (group elements always are).
    """
    if a.n != basis.n:
        raise ShapeError(f"matrix dimension {a.n} does not match basis over {basis.n} variables")
    for images in monomial_images(a, monomial_ladder(basis.n, basis.d)):
        pass
    return dense_matrix(images, a.backend)
