"""Finite matrix groups built from generators by breadth-first closure."""

from __future__ import annotations

import math
import re
from operator import mul
from typing import Sequence

from molien.errors import ClosureOverflowError, ValidationError
from molien.matrices import SquareMatrix, _nonzero_terms, _row_product, _trusted
from molien.scalars import EXACT, ScalarBackend, _make, check_same_backend

DEFAULT_MAX_ORDER = 10000


class FiniteMatrixGroup:
    """Closed list of unitary matrices; elements[0] is the identity.

    Element order is the breadth-first discovery order of close_group and
    is part of the contract: float-backend averaging sums over the
    conjugacy classes listed by their first element in this order.
    right[i][s] is the index of elements[i] @ generators()[s], and
    inverse_of[i] the index of the inverse of elements[i], which is its
    conjugate transpose. Elements share one row tuple per (position, row).
    monomial[i] is True iff elements[i] holds one nonzero entry per column
    (matrices._monomial): for an invertible matrix, one per row, read off
    the shared rows with no scan of the elements.
    """

    __slots__ = ("n", "elements", "inverse_of", "generator_indices", "right", "backend", "monomial", "_classes")

    def __init__(self, n, elements, inverse_of, generator_indices, right, backend, monomial):
        self.n = n
        self.elements = tuple(elements)
        self.inverse_of = tuple(inverse_of)
        self.generator_indices = tuple(generator_indices)
        self.right = tuple(right)
        self.backend = backend
        self.monomial = tuple(monomial)
        self._classes = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def generators(self) -> list[SquareMatrix]:
        return [self.elements[i] for i in self.generator_indices]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes as sorted tuples of element indices.

        Classes are listed by their smallest index, which is also each
        class's first element in element order. Each class is the orbit of
        its first element under conjugation by the generators,
        s^-1 g s = inv[right[inv[right[g][s]]][s]]: table lookups, no
        matrix products.
        """
        if self._classes is None:
            right, inv = self.right, self.inverse_of
            moves = range(len(self.generator_indices))
            seen = [False] * len(self.elements)
            classes = []
            for start in range(len(self.elements)):
                if seen[start]:
                    continue
                seen[start] = True
                orbit = [start]
                for g in orbit:
                    for s in moves:
                        h = inv[right[inv[right[g][s]]][s]]
                        if not seen[h]:
                            seen[h] = True
                            orbit.append(h)
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    def __repr__(self):
        return f"FiniteMatrixGroup(n={self.n}, order={self.order}, backend={self.backend!r})"


class _ElementIndex:
    """Identity lookup for row points: a row at a row position j < n.

    Rows at different positions never match, so two rows of one element
    stay apart however coarse the tolerance. Where the backend lifts
    (exact), a dict on (position, key): the key is the row as one reduced
    int tuple (d, a_0, b_0, ..., a_(n-1), b_(n-1)) for the entries
    (a_k + b_k i)/d, with d > 0 and gcd 1, so a step is one int row
    product (_pair_row_product) and a lookup hashes ints. Tolerance 0 on
    floats: a dict on (position, row). Positive tolerance: rows are binned
    per position by the real projection s(r) = sum_k w_k * x_k over the
    real and imaginary parts x_k of the n entries, weights w_k in (0, 1).
    Entrywise equality within the tolerance t moves s by at most t * sum(w);
    the bin pitch is twice that, leaving room for rounding in s, so equal
    rows land in the same or adjacent bins, and find checks those three.
    """

    def __init__(self, backend: ScalarBackend, n: int):
        self.points: list[tuple[int, tuple]] = []
        self.table: dict = {}
        self.backend = backend
        self.lifted = backend.lift is not None
        self.product = _pair_row_product if self.lifted else _row_product
        self.binned = backend.tolerance > 0
        if self.binned:
            # fractional parts of multiples of the golden ratio: distinct,
            # with no small integer relations between them
            golden = (math.sqrt(5) - 1) / 2
            w = [(k * golden) % 1.0 for k in range(1, 2 * n + 1)]
            self.pitch = 2 * backend.tolerance * sum(w)
            # Re(x * conj(w + w'i)) = w * x.real + w' * x.imag
            self.weights = [complex(w[k], -w[k + 1]) for k in range(0, 2 * n, 2)]
        # points 0..n-1 are the identity's rows, as add takes them
        for j, row in enumerate(SquareMatrix.identity(n, backend).rows):
            self.add(j, (1, *[int(k == 2 * j) for k in range(2 * n)]) if self.lifted else row)

    def _bin(self, row: tuple) -> int:
        return math.floor(sum(map(complex.__mul__, row, self.weights)).real / self.pitch)

    def generator(self, g: SquareMatrix, pos: int, max_order: int) -> tuple:
        """g's nonzero terms per row in the form step takes, once g is checked.

        Where the backend lifts: m and the (2j, re, im) of m*g at each
        column j, on ints. g is unitary iff (m g)^H (m g) = m^2 I
        (_pair_unitary), and a trace of finite order is a sum of roots of
        unity, in Q(i) a Gaussian integer, so m must divide the lifted
        trace; else ClosureOverflowError at once. On floats: the (j, entry)
        of g and the zero, once g.is_unitary().
        """
        m, rows = self.backend.lift(g.rows) if self.lifted else (1, g.rows)
        if not (_pair_unitary(m, rows) if self.lifted else g.is_unitary()):
            raise ValidationError(f"generator {pos} is not unitary")
        if not self.lifted:
            return _nonzero_terms(rows), self.backend.zero
        if any(sum(part) % m for part in zip(*[row[k] for k, row in enumerate(rows)])):
            raise ClosureOverflowError(max_order)
        return m, tuple(tuple((2 * j, a, b) for j, (a, b) in enumerate(row) if a or b) for row in rows)

    def rows(self) -> tuple:
        """Per point, its row of scalars and that row conjugated, and find for the conjugated rows.

        find maps (position, a conjugated row) to the smallest index of a
        known point equal to it, or None. Where lifted, one scalar is built
        per distinct entry (a, b) over d, and a row is found by the ids of
        its entries: a row of g^H mixes rows over different denominators,
        and ids spare it an lcm and a gcd. An entry is numbered by its
        reduced triple (a, b, d), its conjugate by (a, -b, d).
        """
        if not self.lifted:
            rows = [row for _, row in self.points]
            conjugated = [tuple([x.conjugate() for x in row]) for row in rows]
            return rows, conjugated, self.find if self.binned else self.table.get
        made, ids, table, rows, conjugated = {}, {}, {}, [], []
        for p, (position, key) in enumerate(self.points):
            entries = list(zip(key[1::2], key[2::2], [key[0]] * (len(key) // 2)))
            for t in entries:
                if t not in made:
                    g = math.gcd(*t)
                    a, b, d = own = (t[0] // g, t[1] // g, t[2] // g)
                    made[t] = _make(a, b, d), ids.setdefault(own, len(ids)), ids.setdefault((a, -b, d), len(ids))
            row, own, conjugate = zip(*map(made.__getitem__, entries))
            table[position, own] = p
            rows.append(row)
            conjugated.append(conjugate)
        return rows, conjugated, table.get

    def find(self, point: tuple) -> int | None:
        """rows's find on binned rows: the smallest index within tolerance of (position, row), or None."""
        position, row = point
        return self._scan(position, row, self._bin(row))

    def _scan(self, position: int, row: tuple, b: int) -> int | None:
        """find on a binned row in bin b: the smallest index within tolerance in bins b - 1..b + 1."""
        eq, points, table, found = self.backend.eq, self.points, self.table, None
        for k in (b - 1, b, b + 1):
            for p in table.get((position, k), ()):
                if all(map(eq, row, points[p][1])):
                    if found is None or p < found:
                        found = p
                    break  # a bin lists its points in index order
        return found

    def add(self, position: int, row: tuple) -> int:
        """Index of the point row at position, added if not known yet; row as a key where lifted."""
        point = len(self.points)
        if self.binned:
            b = self._bin(row)
            found = self._scan(position, row, b)
            if found is not None:
                return found
            self.table.setdefault((position, b), []).append(point)
        else:
            found = self.table.setdefault((position, row), point)
            if found != point:
                return found
        self.points.append((position, row))
        return point

    def step(self, point: int, terms: tuple) -> int:
        """Index of the point's row times a generator, given as generator gives it."""
        position, row = self.points[point]
        return self.add(position, self.product(row, *terms))


def _pair_unitary(m: int, rows: list) -> bool:
    """True iff the int pair matrix B = rows has B B^H = m^2 I, as a square B^H B = m^2 I does.

    With rows i and j flat, u = (a_0, b_0, ...) and v = (c_0, e_0, ...),
    entry (i, j) of B B^H is sum (a + bi)(c - ei) = u.v + (u.v')i, where
    v' = (-e_0, c_0, ...).
    """
    flat = [[x for pair in row for x in pair] for row in rows]
    turned = [[x for c, e in row for x in (-e, c)] for row in rows]
    return all(sum(map(mul, u, v)) == (m * m if i == j else 0) and not sum(map(mul, u, w))
               for i, u in enumerate(flat) for j, (v, w) in enumerate(zip(flat, turned)))


def _pair_row_product(row: tuple, m: int, terms: tuple) -> tuple:
    """The key of the row point row = (d, a_0, b_0, ...) times g, given as m and the terms of m*g.

    The (2j, re, im) terms of each row of m*g are its nonzero entries, so
    a zero entry of the row costs nothing. The product's entries are the
    int pairs over d*m, divided by their one gcd with d*m.
    """
    acc = [0] * (2 * len(terms))
    for a, b, row_terms in zip(row[1::2], row[2::2], terms):
        if a or b:
            for j, x, y in row_terms:
                acc[j] += a * x - b * y
                acc[j + 1] += a * y + b * x
    d = row[0] * m
    g = math.gcd(d, *acc)
    return (d, *acc) if g == 1 else (d // g, *[x // g for x in acc])


def close_group(
    generators: Sequence[SquareMatrix], max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """Close a generator list under multiplication, breadth-first from the identity.

    Generators are applied on the right in input order, which fixes the
    discovery order. Row j of g @ s is (row j of g) @ s, so an element is
    keyed by its n row points (see _ElementIndex), and times generator s
    maps them through a table of s, filled with one row product per (point,
    generator) on first use: on the int pairs of m*s where the backend
    lifts, which then makes no matrix product at all. Each table entry is
    then one int-tuple lookup, and each inverse pair {g, g^H} n row lookups
    (on entry ids, when exact) and one key lookup. Raises ValidationError
    for an empty list, mismatched or non-unitary generators, or an element
    whose conjugate transpose is not in the closure, and
    ClosureOverflowError when the closure would exceed max_order elements:
    at once for an exact generator whose trace is not a Gaussian integer,
    which has infinite order.
    """
    if not generators:
        raise ValidationError("at least one generator is required")
    if max_order < 1:
        raise ValidationError("max_order must be positive")
    n = generators[0].n
    backend = generators[0].backend
    index = _ElementIndex(backend, n)
    steps = []
    for pos, g in enumerate(generators):
        if g.n != n:
            raise ValidationError(f"generator {pos} has dimension {g.n}, expected {n}")
        check_same_backend(g.backend, backend)
        steps.append((index.generator(g, pos, max_order), {}))

    keys = [tuple(range(n))]
    found_at = {keys[0]: 0}
    # elements are visited in index order, so right[i] is filled at visit i
    right = []
    while len(right) < len(keys):
        key = keys[len(right)]
        products = []
        for terms, step in steps:
            image = tuple([step[p] if p in step else step.setdefault(p, index.step(p, terms))
                           for p in key])
            found = found_at.get(image)
            if found is None:
                if len(keys) >= max_order:
                    raise ClosureOverflowError(max_order)
                found = found_at[image] = len(keys)
                keys.append(image)
            products.append(found)
        right.append(tuple(products))

    rows, conj_rows, find = index.rows()
    elements = [_trusted(tuple([rows[p] for p in key]), backend) for key in keys]
    several = {p for p, row in enumerate(rows) if len(row) - row.count(backend.zero) > 1}
    # elements are unitary, so g^-1 = g^H, and (g^H)^H = g makes one lookup serve
    # the pair; a row of g^H that is no known point puts None in the key
    inverse_of = [None] * len(elements)
    for i, key in enumerate(keys):
        if inverse_of[i] is None:
            j = found_at.get(tuple(map(find, enumerate(zip(*[conj_rows[p] for p in key])))))
            if j is None:
                raise ValidationError(f"element {i} has no inverse in the closure")
            inverse_of[i], inverse_of[j] = j, i

    # identity @ g is g, so right[0] holds the generator indices
    monomial = [several.isdisjoint(key) for key in keys]
    return FiniteMatrixGroup(n, elements, inverse_of, right[0], right, backend, monomial)


def from_permutations(
    perms: Sequence[Sequence[int]], backend: ScalarBackend = EXACT
) -> list[SquareMatrix]:
    """Permutation matrices from one-line notation (p[i-1] = image of i, 1-based).

    Column i carries the unit vector e_{p(i)}, so these compose like the
    permutations themselves.
    """
    matrices = []
    for pos, perm in enumerate(perms):
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValidationError(f"permutation {pos} is not a bijection on 1..{n}")
        rows = [[0] * n for _ in range(n)]
        for i, image in enumerate(perm):
            rows[image - 1][i] = 1
        matrices.append(SquareMatrix(rows, backend))
    return matrices


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def permutation_from_cycles(text: str, n: int | None = None) -> tuple[int, ...]:
    """Parse disjoint cycle notation like '(1 2)(3)' into one-line notation.

    Points are 1-based; n defaults to the largest point mentioned.
    Fixed points may be written as singleton cycles.
    """
    stripped = text.strip()
    if not stripped:
        raise ValidationError("empty cycle notation")
    matched = "".join(m.group(0) for m in _CYCLE_RE.finditer(stripped))
    if re.sub(r"\s", "", matched) != re.sub(r"\s", "", stripped):
        raise ValidationError(f"malformed cycle notation {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        points = []
        for token in re.split(r"[,\s]+", body.strip()):
            if not token:
                continue
            if not token.isdigit() or int(token) < 1:
                raise ValidationError(f"bad point {token!r} in cycle notation")
            points.append(int(token))
        if points:
            cycles.append(points)
    seen: set[int] = set()
    for cycle in cycles:
        for p in cycle:
            if p in seen:
                raise ValidationError(f"point {p} repeated in cycle notation")
            seen.add(p)
    size = max(seen) if seen else 0
    if n is not None:
        if size > n:
            raise ValidationError(f"cycle notation mentions point {size} beyond n={n}")
        size = n
    if size == 0:
        raise ValidationError("cycle notation names no points")
    image = list(range(1, size + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return tuple(image)
