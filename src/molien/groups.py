"""Finite matrix groups built from generators by breadth-first closure."""

from __future__ import annotations

import math
import re
from typing import Sequence

from molien.errors import ClosureOverflowError, ValidationError
from molien.matrices import SquareMatrix, _nonzero_terms, _row_product, _trusted
from molien.scalars import EXACT, ScalarBackend, check_same_backend

DEFAULT_MAX_ORDER = 10000


class FiniteMatrixGroup:
    """Closed list of unitary matrices; elements[0] is the identity.

    Element order is the breadth-first discovery order of close_group and
    is part of the contract: float-backend averaging sums over the
    conjugacy classes listed by their first element in this order.
    right[i][s] is the index of elements[i] @ generators()[s], and
    inverse_of[i] the index of the inverse of elements[i], which is its
    conjugate transpose. Elements share one row tuple per (position, row).
    """

    __slots__ = ("n", "elements", "inverse_of", "generator_indices", "right", "backend", "_classes")

    def __init__(self, n, elements, inverse_of, generator_indices, right, backend):
        self.n = n
        self.elements = tuple(elements)
        self.inverse_of = tuple(inverse_of)
        self.generator_indices = tuple(generator_indices)
        self.right = tuple(right)
        self.backend = backend
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
    stay apart however coarse the tolerance. Tolerance 0 (always so on the
    exact backend): a dict on (position, entry ids), each distinct entry
    numbered when first seen, so a lookup hashes ints, not scalars.
    Positive tolerance: rows are binned per position by the real
    projection s(r) = sum_k w_k * x_k over the real and imaginary parts
    x_k of the n entries, weights w_k in (0, 1).
    Entrywise equality within the tolerance t moves s by at most t * sum(w);
    the bin pitch is twice that, leaving room for rounding in s, so equal
    rows land in the same or adjacent bins, and find checks those three.
    """

    def __init__(self, backend: ScalarBackend, n: int):
        self.points: list[tuple[int, tuple]] = []
        self.table: dict = {}
        self.backend = backend
        self.binned = backend.tolerance > 0
        if self.binned:
            # fractional parts of multiples of the golden ratio: distinct,
            # with no small integer relations between them
            golden = (math.sqrt(5) - 1) / 2
            w = [(k * golden) % 1.0 for k in range(1, 2 * n + 1)]
            self.pitch = 2 * backend.tolerance * sum(w)
            # Re(x * conj(w + w'i)) = w * x.real + w' * x.imag
            self.weights = [complex(w[k], -w[k + 1]) for k in range(0, 2 * n, 2)]
        else:
            self.ids: dict = {}

    def _bin(self, row: tuple) -> int:
        return math.floor(sum(map(complex.__mul__, row, self.weights)).real / self.pitch)

    def _ids(self, row: tuple) -> tuple:
        """The entry ids of row, numbering unseen entries."""
        ids = self.ids
        return tuple([ids.setdefault(x, len(ids)) for x in row])

    def conjugates(self) -> list:
        """Per point, its row conjugated, in the form find takes."""
        rows = [tuple([x.conjugate() for x in row]) for _, row in self.points]
        return rows if self.binned else list(map(self._ids, rows))

    def find(self, position: int, row: tuple) -> int | None:
        """Smallest index of a known point equal to row at position, or None.

        The row is given by its entry ids when not binned.
        """
        if not self.binned:
            return self.table.get((position, row))
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
        """Index of the point row at position, added if not known yet."""
        point = len(self.points)
        if self.binned:
            b = self._bin(row)
            found = self._scan(position, row, b)
            if found is not None:
                return found
            self.table.setdefault((position, b), []).append(point)
        else:
            found = self.table.setdefault((position, self._ids(row)), point)
            if found != point:
                return found
        self.points.append((position, row))
        return point

    def step(self, point: int, terms: tuple) -> int:
        """Index of the point's row times a matrix, given its nonzero terms per row."""
        position, row = self.points[point]
        return self.add(position, _row_product(row, terms, self.backend.zero))


def close_group(
    generators: Sequence[SquareMatrix], max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """Close a generator list under multiplication, breadth-first from the identity.

    Generators are applied on the right in input order, which fixes the
    discovery order. Row j of g @ s is (row j of g) @ s, so an element is
    keyed by its n row points (see _ElementIndex), and times generator s
    maps them through a table of s, filled with one row product per (point,
    generator) on first use. Each table entry is then one int-tuple lookup,
    and each inverse pair {g, g^H} n row lookups (on entry ids, when exact)
    and one key lookup. Raises ValidationError for an empty list,
    mismatched or non-unitary generators, or an element whose conjugate
    transpose is not in the closure, and ClosureOverflowError when the
    closure would exceed max_order elements: at once for an exact generator
    whose trace is not a Gaussian integer, which has infinite order.
    """
    if not generators:
        raise ValidationError("at least one generator is required")
    if max_order < 1:
        raise ValidationError("max_order must be positive")
    n = generators[0].n
    backend = generators[0].backend
    for pos, g in enumerate(generators):
        if g.n != n:
            raise ValidationError(f"generator {pos} has dimension {g.n}, expected {n}")
        check_same_backend(g.backend, backend)
        if not g.is_unitary():
            raise ValidationError(f"generator {pos} is not unitary")
        # a trace of finite order is a sum of roots of unity: in Q(i), a Gaussian integer
        if backend.lift and backend.lift([[g.trace()]])[0] != 1:
            raise ClosureOverflowError(max_order)

    index = _ElementIndex(backend, n)
    keys = [tuple(map(index.add, range(n), SquareMatrix.identity(n, backend).rows))]
    found_at = {keys[0]: 0}
    steps = [(_nonzero_terms(g.rows), {}) for g in generators]
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

    elements = [_trusted(tuple([index.points[p][1] for p in key]), backend) for key in keys]
    # elements are unitary, so g^-1 = g^H, and (g^H)^H = g makes one lookup serve
    # the pair; a row of g^H that is no known point puts None in the key
    inverse_of = [None] * len(elements)
    conj_rows = index.conjugates()
    for i, key in enumerate(keys):
        if inverse_of[i] is None:
            columns = enumerate(zip(*[conj_rows[p] for p in key]))
            j = found_at.get(tuple(index.find(k, column) for k, column in columns))
            if j is None:
                raise ValidationError(f"element {i} has no inverse in the closure")
            inverse_of[i], inverse_of[j] = j, i

    # identity @ g is g, so right[0] holds the generator indices
    return FiniteMatrixGroup(n, elements, inverse_of, right[0], right, backend)


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
