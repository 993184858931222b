"""Finite matrix groups built from generators by breadth-first closure."""

from __future__ import annotations

import math
import re
from typing import Sequence

from molien.errors import ClosureOverflowError, ValidationError
from molien.matrices import SquareMatrix
from molien.scalars import EXACT, ScalarBackend, check_same_backend

DEFAULT_MAX_ORDER = 10000


class FiniteMatrixGroup:
    """Closed list of unitary matrices; element 0 is the identity.

    Element order is the breadth-first discovery order of close_group and
    is part of the contract: float-backend averaging sums over the
    conjugacy classes listed by their first element in this order.
    right[i][s] is the index of elements[i] @ generators()[s], and
    inverse_of[i] the index of the inverse of elements[i], which is its
    conjugate transpose.
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

    def identity(self) -> SquareMatrix:
        return self.elements[0]

    def generators(self) -> list[SquareMatrix]:
        return [self.elements[i] for i in self.generator_indices]

    def inverse(self, index: int) -> SquareMatrix:
        return self.elements[self.inverse_of[index]]

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

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteMatrixGroup(n={self.n}, order={self.order}, backend={self.backend!r})"


class _ElementIndex:
    """Identity lookup for discovered elements.

    Tolerance 0 (always so on the exact backend): a dict on the entry
    tuples. Positive tolerance: elements are binned by the fixed real
    projection s(M) = sum_k w_k * x_k over the real and imaginary parts
    x_k of the entries, with weights w_k in (0, 1). Entrywise equality
    within the tolerance t moves s by at most t * sum(w); the bin pitch
    is twice that, leaving room for rounding in s, so equal matrices land
    in the same or adjacent bins, and find checks those three entrywise.
    """

    def __init__(self, backend: ScalarBackend, n: int):
        self.elements: list[SquareMatrix] = []
        self.table: dict = {}
        self.binned = backend.tolerance > 0
        if self.binned:
            # fractional parts of multiples of the golden ratio: distinct,
            # with no small integer relations between them
            golden = (math.sqrt(5) - 1) / 2
            self.weights = [(k * golden) % 1.0 for k in range(1, 2 * n * n + 1)]
            self.pitch = 2 * backend.tolerance * sum(self.weights)

    def _bin(self, matrix: SquareMatrix) -> int:
        parts = (p for row in matrix.rows for x in row for p in (x.real, x.imag))
        return math.floor(sum(w * p for w, p in zip(self.weights, parts)) / self.pitch)

    def find(self, matrix: SquareMatrix) -> int | None:
        """Smallest index of a known element equal to matrix, or None."""
        if not self.binned:
            return self.table.get(matrix.rows)
        b = self._bin(matrix)
        return min(
            (
                i
                for key in (b - 1, b, b + 1)
                for i in self.table.get(key, ())
                if matrix.equals(self.elements[i])
            ),
            default=None,
        )

    def add(self, matrix: SquareMatrix) -> int:
        index = len(self.elements)
        self.elements.append(matrix)
        if self.binned:
            self.table.setdefault(self._bin(matrix), []).append(index)
        else:
            self.table.setdefault(matrix.rows, index)
        return index


def close_group(
    generators: Sequence[SquareMatrix], max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """Close a generator list under multiplication, breadth-first from the identity.

    Generators are applied on the right in input order, which fixes the
    discovery order. Each element times each generator is one product and
    one lookup, recorded in the right-multiplication table. Each inverse
    pair {g, g^H} costs one more lookup and no product. Raises
    ValidationError for an empty list, mismatched or non-unitary
    generators, or an element whose conjugate transpose is not in the
    closure, and ClosureOverflowError when the closure would exceed
    max_order elements.
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

    index = _ElementIndex(backend, n)
    index.add(SquareMatrix.identity(n, backend))
    # elements are visited in index order, so right[i] is filled at visit i
    right = []
    while len(right) < len(index.elements):
        current = index.elements[len(right)]
        row = []
        for g in generators:
            product = current @ g
            found = index.find(product)
            if found is None:
                if len(index.elements) + 1 > max_order:
                    raise ClosureOverflowError(max_order)
                found = index.add(product)
            row.append(found)
        right.append(tuple(row))

    elements = index.elements
    # identity @ g is g
    generator_indices = right[0]
    # every element is unitary, so its inverse is its conjugate transpose,
    # and (g^H)^H = g makes one lookup serve the pair
    inverse_of = [None] * len(elements)
    for i, element in enumerate(elements):
        if inverse_of[i] is not None:
            continue
        j = index.find(element.conj_transpose())
        if j is None:
            raise ValidationError(f"element {i} has no inverse in the closure")
        inverse_of[i] = j
        inverse_of[j] = i

    return FiniteMatrixGroup(n, elements, inverse_of, generator_indices, right, backend)


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
