"""Reynolds operators, invariant dimensions, and explicit invariant bases.

The paper's method averages over every group element; reynolds_matrix
is that average at one degree, and invariant_dimension its trace. The
traces and bases computed here never sweep the group: traces are summed
per conjugacy class and weighted by class size, walked once per orbit of
classes under central scalars and inversion, and the basis is
the common fixed space of the generators, eliminated on sparse rows.
A monomial generator (one nonzero entry per column) needs no rows: the
monomial generators' fixed space is spanned by the sums over monomial
orbits whose phases agree (within the tolerance on floats), and the
other generators give rows on those orbit columns only, walked only
along the ladder ancestors of the surviving orbits. A row source per
backend gives those rows: on Gaussian-integer pairs when exact, scaled
to the Bombieri basis on floats, where each orbit column has unit norm.
With no monomial generator each monomial is its own orbit, on both
backends. One loop per backend eliminates the rows: fraction-free in
reduced form when exact (Gauss-Jordan: no pivot row holds another pivot
column), by complete pivoting on floats, which reveals the rank of such
well-conditioned rows. One pass per degree runs the backend's orbits,
rows and loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm, prod, sqrt
from operator import mul

from molien.action import _image_terms, _Ladder, _lowered, dense_matrix, monomial_images
from molien.errors import ShapeError
from molien.groups import FiniteMatrixGroup
from molien.matrices import SquareMatrix, _monomial, row_reduce
from molien.polynomials import MonomialBasis, SparsePolynomial
from molien.scalars import GaussianRational, _make, check_same_backend


@dataclass(frozen=True)
class ReynoldsMatrix:
    """Group average of the degree-d induced matrices; an idempotent projection."""

    d: int
    basis: MonomialBasis
    matrix: SquareMatrix


def reynolds_matrix(group: FiniteMatrixGroup, d: int) -> ReynoldsMatrix:
    """The degree-d Reynolds matrix: the group average of the induced matrices.

    Each element's degree-d monomial images are added into sparse columns,
    in element order; the sums are scaled by 1/|G| once.
    """
    ladder = _Ladder(group.n, d)
    columns = [{} for _ in range(comb(group.n + d - 1, d))]
    for element in group.elements:
        for images in monomial_images(element, ladder):
            pass
        for column, image in zip(columns, _lowered(element, d, images)):
            for q, c in image.items():
                column[q] = column[q] + c if q in column else c
    backend = group.backend
    factor = backend.coerce(Fraction(1, group.order))
    scaled = [{q: factor * c for q, c in column.items()} for column in columns]
    return ReynoldsMatrix(d, MonomialBasis(group.n, d), dense_matrix(scaled, backend))


def reynolds_traces(group: FiniteMatrixGroup, max_degree: int) -> list[int]:
    """Tr of the Reynolds matrices of degrees 0..max_degree, as counts.

    Tr rho_d(g) is a class function, so each class adds its size times its
    trace, and the sums are scaled by 1/|G| once. A trace is read from the
    diagonals of one member's monomial images, walked once per orbit of
    classes under central scalars and inversion (_orbit_traces). The walk
    wants only the entries that can feed a diagonal up to max_degree, and
    every diagonal is the full walk's bit for bit.
    """
    return _class_traces(group, _Ladder(group.n, max_degree))


def _class_traces(group: FiniteMatrixGroup, ladder: _Ladder) -> list[int]:
    """reynolds_traces on a ladder already built: class sizes times their traces, in class order."""
    backend = group.backend
    sums = [backend.zero] * (ladder.top + 1)
    for members, traces in _orbit_traces(group, ladder):
        for d, trace in enumerate(traces):
            sums[d] = sums[d] + len(members) * trace
    factor = backend.coerce(Fraction(1, group.order))
    return [
        backend.count(total * factor, f"Reynolds trace at degree {d}")
        for d, total in enumerate(sums)
    ]


def _orbit_traces(group: FiniteMatrixGroup, ladder: _Ladder):
    """Per class in order, its members and Tr rho_d at them for d = 0..top: one walk per orbit.

    The orbits are those of the classes under g -> z g, z I the first
    central scalar other than I in element order (_scalar: tested with the
    backend's equality, the one that identified the element), and
    g -> g^-1. Each is walked at the member of its first class whose
    fullest column has the fewest nonzero entries (an exact-zero count),
    ties to the smallest index, so at its first monomial member when it
    has one, found with no further scan. z scales every
    x_i's image by conj(z), so Tr rho_d(z^k g) = conj(z)^(kd) Tr rho_d(g),
    and rho_d(g) is unitary for the Bombieri inner product, so
    Tr rho_d(g^-1) = conj Tr rho_d(g). No trace is read off a det, a power
    trace or a cycle. g z^k is read off the right table (_times), so it
    merges classes even where float residues hide z^k from the test.
    """
    elements, right, classes = group.elements, group.right, group.conjugacy_classes()
    class_of = {g: c for c, members in enumerate(classes) for g in members}
    z = next((g for g, *rest in classes[1:] if not rest and _scalar(elements[g])), 0)
    # g -> g z = z g by element index; only a scalar other than the identity reads the right table
    zbar, shift = elements[z].rows[0][0].conjugate(), _times(right, z) if z else range(len(right))
    found = [None] * len(classes)
    for c, members in enumerate(classes):
        if found[c] is None:
            # a monomial member's fullest column holds one entry, the fewest there can be
            walked = next((g for g in members if _monomial(elements[g])), None)
            if walked is None:
                walked = min(
                    members, key=lambda g: max(sum(map(bool, col)) for col in zip(*elements[g].rows)))
            traces = list(_TRACES[group.backend.scalar](elements[walked], ladder))
            for g, inverted in ((members[0], False), (group.inverse_of[members[0]], True)):
                power = group.backend.one
                while found[class_of[g]] is None:
                    found[class_of[g]] = traces, power, inverted
                    g, power = shift[g], power * zbar
        traces, power, inverted = found[c]
        if power != 1 or inverted:
            powers = accumulate([power] * ladder.top, mul, initial=group.backend.one)
            traces = [p * (t.conjugate() if inverted else t) for p, t in zip(powers, traces)]
        yield members, traces


def _scalar(a: SquareMatrix) -> bool:
    """True iff a is z I, z = a[0][0], every entry compared with backend.eq.

    That is the equality close_group identified a's rows with: exact on
    the exact backend, within the tolerance on floats, where closure
    leaves residues of about 1e-16 on D_m's r^(m/2). The shape tests
    (_monomial, the walked member's fullest column) stay exact-zero.
    """
    z, eq, zero = a.rows[0][0], a.backend.eq, a.backend.zero
    return all(eq(b, z if i == j else zero) for i, row in enumerate(a.rows) for j, b in enumerate(row))


def _times(right: tuple, z: int) -> dict:
    """Element index x -> the index of x z, for a central z: x = p s, so x z = (p z) s.

    Every element but the identity is found in a row p before its own,
    so p z is known when row p is read.
    """
    shift = {0: z}
    for p, row in enumerate(right):
        for s, x in enumerate(row):
            shift.setdefault(x, right[shift[p]][s])
    return shift


def _complex_traces(a: SquareMatrix, ladder: _Ladder):
    """Tr rho_d(a) for d = 0..top: the diagonal entries summed in position order."""
    for images in monomial_images(a, ladder, ladder.to_diagonals):
        trace = 0j
        for j, image in enumerate(images):
            if j in image:
                trace = trace + image[j]
        yield trace


def _pair_traces(a: SquareMatrix, ladder: _Ladder):
    """Tr rho_d(a) for d = 0..top: the diagonal pairs of m*a summed, then divided once by m^d."""
    m = a.backend.lift(a.rows)[0]
    for d, images in enumerate(monomial_images(a, ladder, ladder.to_diagonals)):
        diagonal = [image[j] for j, image in enumerate(images) if j in image]
        yield _make(sum(x for x, _ in diagonal), sum(y for _, y in diagonal), m**d)


def _bombieri_weights(n: int, d: int) -> list[float]:
    """sqrt(d!/a!) for each monomial x^a of MonomialBasis(n, d): the diagonal of W.

    The monomials x^a * sqrt(d!/a!) are orthonormal for the Bombieri inner
    product, in which rho_d(g) is unitary for unitary g; so W^-1 rho_d(g) W
    is unitary and W^-1 (rho_d(g) - I) W has entries of absolute value at most 2.
    """
    top = factorial(d)
    return [sqrt(top // prod(map(factorial, a))) for a in MonomialBasis(n, d).monomials]


def _complex_rows(per_generator: list, generators: list, d: int, weights: list, columns: list):
    """The rows of W^-1 (rho_d(h) - I) W V over the generators h, in turn.

    columns holds the W V_c of _complex_orbits, and row q holds at orbit c
    the coefficient of x^q in (rho_d(h) - I) W V_c over w_q.
    """
    one = 1 + 0j
    for images in per_generator:
        rows = [{} for _ in images]
        for c, column in enumerate(columns):
            for j, u in column.items():
                # the diagonal's -1 is -(1+0j), whose imaginary zero is -0.0 (0j - 1 has +0.0)
                for q, x in (*images[j].items(), (j, -one)):
                    rows[q][c] = rows[q][c] + x * u if c in rows[q] else x * u
        for q, row in enumerate(rows):
            # times 1/w_q, not over w_q: complex division would turn a -0.0 into +0.0
            scale = 1 / weights[q]
            yield {c: v * scale for c, v in row.items() if v}


def _pair_rows(per_generator: list, generators: list, d: int, size: int, columns: list):
    """The (re, im) rows of rho_d(m h) - m^d on the columns, over the generators h, m h on ints.

    columns holds the survivors of _orbits, and row q holds at orbit c the
    coefficient of x^q in L_c (rho_d(m h) - m^d) v_c.
    """
    units = [s.backend.lift(s.rows)[0] ** d for s in generators]
    for unit, images in zip(units, per_generator):
        rows = [{} for _ in images]
        for c, column in enumerate(columns):
            for j, (wr, wi) in column.items():
                # where L_c v_c is 1 at j, as on every single-monomial orbit: x^j's image as it is
                image = images[j] if (wr, wi) == (1, 0) else {
                    q: (wr * x - wi * y, wr * y + wi * x) for q, (x, y) in images[j].items()}
                for q, v in (*image.items(), (j, (-unit * wr, -unit * wi))):
                    row = rows[q]
                    row[c] = v = (row[c][0] + v[0], row[c][1] + v[1]) if c in row else v
                    if v == (0, 0):
                        del row[c]
        yield from rows


def _orbits(per_generator: list, generators: list, d: int, size: int, backend) -> list[dict]:
    """The fixed vectors v_c of monomial generators, one per orbit of monomials whose phases agree.

    Generator s sends x^j to phi_s(j) x^pi_s(j), its one-term image over
    m_s^d = scale, so a fixed vector has v at pi_s(j) equal to phi_s(j) v_j.
    Each orbit is walked breadth first from its smallest position, where
    v = 1, and dies if a position it reaches already holds another value.
    Values are unreduced int triples (a, b, e), v = (a + b i)/e, compared
    by cross-multiplying. Each survivor comes as the pairs of L_c v_c by
    position, L_c the lcm of the denominators of v_c's entries, read off
    the triples without building a scalar, so its first entry is (L_c, 0).
    With no generators each monomial is its own orbit, {j: (1, 0)}, as on
    floats.
    """
    values, survivors = {}, []
    scales = [backend.lift(s.rows)[0] ** d for s in generators]
    for start in range(size):
        if start in values:
            continue
        values[start], orbit, alive = (1, 0, 1), [start], True
        for j in orbit:
            a, b, e = values[j]
            for images, scale in zip(per_generator, scales):
                ((t, (re, im)),) = images[j].items()
                x, y, f = v = a * re - b * im, a * im + b * re, e * scale
                if t not in values:
                    orbit.append(t)
                g, h, k = values.setdefault(t, v)
                alive = alive and g * f == x * k and h * f == y * k
        if alive:
            triples = [values[j] for j in orbit]
            # (a + b i)/e has denominator e/gcd(a, b, e), which divides m, so e divides a m and b m
            m = lcm(*[e // gcd(a, b, e) for a, b, e in triples])
            survivors.append({j: (a * m // e, b * m // e) for j, (a, b, e) in zip(orbit, triples)})
    return survivors


def _complex_orbits(per_generator: list, generators: list, d: int, weights: list, backend) -> list[dict]:
    """_orbits on complex floats, whose phases agree within the backend tolerance.

    Each survivor comes as W V_c by position, V_c = v_c / sqrt(|orbit|): W is
    constant on an orbit, so V_c has unit Bombieri norm. With no generators
    each monomial is its own orbit, and the survivors are the columns of W.
    """
    eq = backend.eq
    values, survivors = {}, []
    for start in range(len(weights)):
        if start in values:
            continue
        values[start], orbit, alive = 1 + 0j, [start], True
        for j in orbit:
            for images in per_generator:
                ((t, phase),) = images[j].items()
                v = values[j] * phase
                if t not in values:
                    values[t] = v
                    orbit.append(t)
                alive = alive and eq(values[t], v)
        if alive:
            scale = weights[start] / sqrt(len(orbit))
            survivors.append({j: values[j] * scale for j in orbit})
    return survivors


def _complex_eliminate(rows, backend) -> dict:
    """Pivot column -> the rest of its row over the pivot, by complete pivoting above the tolerance.

    Each step takes the entry of largest magnitude over all rows left, from
    per-row maxima refreshed only where the step touched, and eliminates its
    column from the other rows, so no pivot row holds an earlier pivot column.
    """
    live = dict(enumerate(row for row in rows if row))
    tops = {r: max(map(abs, row.values())) for r, row in live.items()}
    pivots = {}
    while tops:
        r = max(tops, key=tops.__getitem__)
        if tops.pop(r) <= backend.tolerance:
            break
        row = live.pop(r)
        p = max(row, key=lambda k: abs(row[k]))
        scale = 1 / row.pop(p)
        pivots[p] = pivot_row = {k: v * scale for k, v in row.items()}
        for i, other in live.items():
            factor = other.pop(p, None)
            if factor is None:
                continue
            for k, v in pivot_row.items():
                if k in other:
                    w = other[k] - factor * v
                    if w:
                        other[k] = w
                    else:
                        del other[k]
                else:
                    other[k] = -factor * v
            tops[i] = max(map(abs, other.values()), default=0.0)
    return pivots


def _cleared(row: dict, p: int, scale: int, pivot_row: dict) -> tuple:
    """(s, (scale*row - f*pivot_row)/g): row's column p cleared, fraction-free, and s = scale/g.

    The pivot row is the positive int scale at column p and pivot_row
    elsewhere; f is row's entry at p and g = gcd(scale, f), so the result
    is a multiple of row reduced over Q(i). row itself may be changed.
    """
    fr, fi = row.pop(p)
    g = gcd(scale, fr, fi)
    scale, fr, fi = scale // g, fr // g, fi // g
    if scale != 1:
        row = {k: (scale * x, scale * y) for k, (x, y) in row.items()}
    for k, (x, y) in pivot_row.items():
        a, b = row.pop(k, (0, 0))
        a, b = a - fr * x + fi * y, b - fr * y - fi * x
        if a or b:
            row[k] = (a, b)
    return scale, row


def _divided(scale: int, row: dict) -> tuple:
    """(scale, row) divided by the gcd of scale and all the row's parts."""
    g = gcd(scale, *[part for pair in row.values() for part in pair])
    return scale // g, {k: (x // g, y // g) for k, (x, y) in row.items()}


def _pair_eliminate(rows) -> dict:
    """Pivot column -> (P, row) of (re, im) int rows in reduced form: no row holds another pivot column.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968). An incoming row
    is cleared of each pivot column it holds, in one pass, as no pivot row
    brings in another. What is left pivots on its largest column, and is
    multiplied by the pivot's conjugate and divided by the gcd of its parts,
    so P is a positive int; the new pivot row then clears its column from
    every older pivot row, whose P takes the same factor, and each row it
    changes is divided by its gcd again. The reduced rows of a span are
    unique, so each row over its P is the same whatever order clears it.
    """
    pivots = {}
    for row in rows:
        for p in [k for k in row if k in pivots]:
            row = _cleared(row, p, *pivots[p])[1]
        if row:
            top = max(row)
            pr, pi = row.pop(top)
            row = {k: (x * pr + y * pi, y * pr - x * pi) for k, (x, y) in row.items()}
            new = _divided(pr * pr + pi * pi, row)
            for q, (scale, old) in pivots.items():
                if top in old:
                    factor, old = _cleared(old, top, *new)
                    pivots[q] = _divided(scale * factor, old)
            pivots[top] = new
    return pivots


def _kernel(pivots: dict, size: int, backend) -> list[dict]:
    """Per free column f, the kernel vector 1 at f and 0 at the other free columns.

    Back-substitution, newest pivot first, writes every pivot variable in
    terms of the free columns.
    """
    zero, one = backend.zero, backend.one
    vectors = {f: {f: one} for f in range(size) if f not in pivots}
    solved: dict = {}  # pivot column -> {free column: its coefficient}
    for p in reversed(pivots):
        acc: dict = {}
        for k, v in pivots[p].items():
            for f, w in (solved[k].items() if k in pivots else ((k, one),)):
                acc[f] = acc.get(f, zero) - v * w
        solved[p] = coeffs = {f: w for f, w in acc.items() if w}
        for f, w in coeffs.items():
            vectors[f][p] = w
    return list(vectors.values())


def _complex_basis(orbits: list, pivots: dict, basis: MonomialBasis, backend) -> list[dict]:
    """The kernel mapped back through W V, whose columns have disjoint supports, then row-reduced."""
    rows = []
    for vector in _kernel(pivots, len(orbits), backend):
        rows.append(row := [backend.zero] * len(basis))
        for c, y in vector.items():
            for q, u in orbits[c].items():
                row[q] = y * u
    rank, reduced = row_reduce(rows, backend)
    return [dict(enumerate(row)) for row in reduced[:rank]]


def _pair_basis(orbits: list, pivots: dict, basis: MonomialBasis, backend) -> list[dict]:
    """The kernel of the pivot rows each divided by its P, in reduced echelon form.

    Kernel vector c' maps to sum_c c'_c L_c v_c over its first entry L_f,
    f its free column: the orbits are disjoint and ordered by their
    smallest positions, where each v_c is 1, so this is the unique form.
    """
    rows = {t: {k: _make(*v, p) for k, v in row.items()} for t, (p, row) in pivots.items()}
    firsts = [next(iter(orbit.values()))[0] for orbit in orbits]
    return [{q: x * _make(*w, firsts[min(v)]) for c, x in v.items() for q, w in orbits[c].items()}
            for v in _kernel(rows, len(orbits), backend)]


def _fixed_spaces(group: FiniteMatrixGroup, ladder: _Ladder, degrees):
    """Per degree in degrees, the monomial generators' surviving orbits and the others' pivots on them.

    A generator is monomial when each column holds one nonzero entry, as
    for the walk's one-term body and the cycle det (matrices._monomial).
    The backend's bodies give the orbits, the other generators' rows on
    them and their pivots.
    The others keep their order, and are walked only along the ladder
    ancestors of the survivors' support when a generator is monomial.
    """
    backend, generators = group.backend, group.generators()
    frame_of, orbits_of, rows_of, eliminate = _SPACES[backend.scalar]
    monomial = [s for s in generators if _monomial(s)]
    others = [s for s in generators if not _monomial(s)]
    frames, orbits, wanted = {}, {}, None
    for d, *images in zip(range(ladder.top + 1), *(monomial_images(s, ladder) for s in monomial)):
        if d in degrees:
            frames[d] = frame_of(group.n, d)
            orbits[d] = orbits_of(images, monomial, d, frames[d], backend)
    if monomial and others:
        # a monomial walk permutes each degree's monomials, so it has coded every position
        survivors = [ladder.monomial(d, q) for d in degrees for v in orbits[d] for q in v]
        wanted = ladder.ancestors(survivors)[0]
    for d, *images in zip(range(ladder.top + 1), *(monomial_images(s, ladder, wanted) for s in others)):
        if d in degrees:
            yield orbits[d], eliminate(rows_of(images, others, d, frames[d], orbits[d]), backend)


# each backend's bodies, by its scalar type; the fixed-space bodies read one frame per degree,
# built from (n, d): the basis size when exact, the Bombieri weights on floats
_TRACES = {complex: _complex_traces, GaussianRational: _pair_traces}
_SPACES = {
    complex: (_bombieri_weights, _complex_orbits, _complex_rows, _complex_eliminate),
    GaussianRational: (
        lambda n, d: comb(n + d - 1, d), _orbits, _pair_rows, lambda rows, _: _pair_eliminate(rows)
    ),
}
_BASES = {complex: _complex_basis, GaussianRational: _pair_basis}


def fixed_space_dimensions(group: FiniteMatrixGroup, max_degree: int) -> list[int]:
    """Dimensions of the generators' common fixed spaces, degrees 0..max_degree."""
    return _fixed_space_dimensions(group, _Ladder(group.n, max_degree))


def _fixed_space_dimensions(group: FiniteMatrixGroup, ladder: _Ladder) -> list[int]:
    """fixed_space_dimensions on a ladder already built: the number of columns less the pivots."""
    return [len(o) - len(p) for o, p in _fixed_spaces(group, ladder, range(ladder.top + 1))]


def invariant_basis(group: FiniteMatrixGroup, d: int) -> list[SparsePolynomial]:
    """Basis of the degree-d invariants: the reduced echelon basis of the common fixed space.

    Polynomials come back with leading (grlex-first) coefficient 1. Only
    degree d is eliminated. The monomial generators' fixed space is
    spanned by their surviving orbits, disjoint from each other, and the
    other generators are eliminated on those orbit columns. When exact,
    each orbit is 1 at its smallest position and every pivot is the
    largest column of its row, so each kernel vector's free column is its
    first nonzero entry: that is the unique reduced echelon form, the
    basis the paper's averaged monomials row-reduce to. On floats the
    vectors are mapped back through the orbits and W, and row-reduced.
    """
    (space,) = _fixed_spaces(group, _Ladder(group.n, d), (d,))
    basis, backend = MonomialBasis(group.n, d), group.backend
    return [SparsePolynomial(basis.n, {basis.monomials[q]: v[q] for q in sorted(v)}, backend)
            for v in _BASES[backend.scalar](*space, basis, backend)]


def invariant_dimension(reynolds: ReynoldsMatrix) -> int:
    """Dimension of the degree-d invariants: the trace of the Reynolds matrix."""
    trace = reynolds.matrix.trace()
    return reynolds.matrix.backend.count(trace, f"Reynolds trace at degree {reynolds.d}")


def verify_invariant(f: SparsePolynomial, group: FiniteMatrixGroup) -> bool:
    """True iff every generator fixes f (generators suffice for the whole group).

    Each generator acts through the monomial images of molien.action, so
    no coefficient is dropped by the float tolerance while the image is
    built; the image and f are then compared coefficient by coefficient,
    exactly, or on floats within the backend tolerance times the largest
    absolute coefficient of f, at least 1.
    """
    if f.n != group.n:
        raise ShapeError(f"polynomial in {f.n} variables, group acts on {group.n}")
    backend = group.backend
    check_same_backend(f.backend, backend)
    zero, is_zero = backend.zero, backend.is_zero
    scale = 1 if backend.is_exact else 1 / max([1, *map(abs, f.terms.values())])
    for s in group.generators():
        moved = _image_terms(f, s)
        for mono in moved.keys() | f.terms.keys():
            if not is_zero(scale * (moved.get(mono, zero) - f.terms.get(mono, zero))):
                return False
    return True
