"""The lifted group action on polynomials: the one kernel that maps monomials.

A group element acting on variables by the unitary matrix A sends the
linear form x_i to L_i = sum_k conj(A[k][i]) x_k, so the first induced
matrix is the entrywise conjugate of A. The walk builds the images of the
wanted monomials degree by degree on raw dicts keyed by basis positions:
image(x^a) = image(x^(a - e_i)) * L_i, with x_i the first variable of x^a,
in complex floats or, exact, in Gaussian-integer (re, im) int pairs of
m*A, m the lcm of its entries' denominators. A monomial A, one nonzero
entry per column, makes every L_i one term, and takes the one-term body
on either backend: each image is its parent's one term times that of
L_i, the single product the general body would make. reynolds_matrix,
the fixed space and induced_matrix want every monomial, the class traces
only the entries that can reach a diagonal, verify_invariant and
substitute_linear the ancestors of f's monomials. The ladder builds
position links only where a walk reads them. Exact pairs are lowered
only where read.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import mul
from typing import Iterator

from molien.errors import ShapeError
from molien.matrices import SquareMatrix, _monomial, _trusted
from molien.polynomials import MonomialBasis, SparsePolynomial
from molien.scalars import GaussianRational, ScalarBackend, _make


class _Ladder:
    """The monomials of degrees 0..top in n variables, built where walks go.

    x^t is its grlex basis position, the sum over k = 1..n-1 of
    C(S_k + n-k-1, n-k), S_k = t_k + ... + t_(n-1). codes[d][q] packs x^q
    into guarded bit fields: t_0..t_(n-1), then P_k = t_0 + ... + t_(k-1)
    for k = 0..n. up[d][q] holds the positions of x_k x^q, k = 0..n-1, for
    q of degree d-1. Both are None until a walk reaches q.
    """

    def __init__(self, n: int, top: int):
        if top < 0:
            raise ShapeError("degree must be nonnegative")
        self.n, self.top = n, top
        self.width = width = top.bit_length() + 1
        self.full = (1 << width - 1) - 1  # the largest value a field holds
        self.units = units = [1 << f * width for f in range(2 * n + 1)]  # a 1 in each field
        self.guard = sum(units) << width - 1
        # x_k raises t_k and every P_j with j > k
        self.raise_by = [units[k] + sum(units[n + k + 1 :]) for k in range(n)]
        self.codes = [[0]] + [[None] * comb(n + d - 1, d) for d in range(1, top + 1)]
        self.up = [None] + [[None] * len(codes) for codes in self.codes[:-1]]
        # steps[k][S] = C(S + n-k-1, n-k-1) for S = 0..top, read by row
        self.steps = [[comb(s + n - k - 1, n - k - 1) for s in range(top + 1)] for k in range(n)]

    def row(self, d: int, q: int) -> tuple:
        """up[d][q], built from the code of q on first use, with the codes of its targets."""
        up = self.up[d]
        if up[q] is None:
            n, code, row, steps, codes = self.n, self.codes[d - 1][q], [q], self.steps, self.codes[d]
            for k in range(1, n):
                # x_k x^q sits steps[k][S_k] positions after x_(k-1) x^q,
                # S_k = d-1 - P_k, and P_k is field n+k of the code of q
                row.append(row[-1] + steps[k][d - 1 - (code >> (n + k) * self.width & self.full)])
            for t, rise in zip(row, self.raise_by):
                codes[t] = code + rise
            up[q] = tuple(row)
        return up[q]

    def monomial(self, d: int, q: int) -> tuple:
        """The exponent tuple of position q of degree d, read off its code."""
        return tuple(self.codes[d][q] >> k * self.width & self.full for k in range(self.n))

    @cached_property
    def every(self) -> list:
        """Per degree 1..top, (j, p, i, None) for each monomial x^j = x_i x^p, x_i its first variable.

        Those with first variable x_i are x_i times the last C(n-i+d-2, d-1) of degree d-1.
        """
        n, out = self.n, [None]
        for d in range(1, self.top + 1):
            size = comb(n + d - 2, d - 1)
            firsts = ((p, i) for i in range(n) for p in range(size - comb(n - i + d - 2, d - 1), size))
            out.append([(j, p, i, None) for j, (p, i) in enumerate(firsts)])
        return out

    @cached_property
    def to_diagonals(self) -> list:
        """every, with each monomial's bound on the entries that can reach a diagonal of degree <= top.

        Monomial c of degree d with first variable x_i has ladder
        descendants c + e, e only on variables <= i, so its image entry at
        t can feed a diagonal only if t_j <= c_j for all j > i and
        max(P_i, P_(i+1) - c_i) <= top - d. The bound packs these limits over
        the guard bits: (bound - code of t) & guard == guard iff none borrowed.
        """
        n, top, full, units = self.n, self.top, self.full, self.units
        # c keeps its own t_j for j > i and its P_(i+1), which is c_i; the
        # slack top - d bounds P_i and is added to P_(i+1); the rest stay full
        keep = [full * (sum(units[i + 1 : n]) + units[n + i + 1]) for i in range(n)]
        rest = [self.guard + full * (sum(units) - units[n + i]) - keep[i] for i in range(n)]
        pinned = [units[n + i] + units[n + i + 1] for i in range(n)]
        out = [None]
        for d in range(1, top + 1):
            codes, before = self.codes[d], self.codes[d - 1]
            base = [rest[i] + (top - d) * pinned[i] for i in range(n)]
            for j, p, i, _ in self.every[d]:
                codes[j] = before[p] + self.raise_by[i]
            out.append([(j, p, i, (codes[j] & keep[i]) + base[i]) for j, p, i, _ in self.every[d]])
        return out

    def ancestors(self, monomials) -> tuple:
        """Per degree 1..top, (j, p, i, None) for the monomials and their ancestors; and their positions.

        The ancestors of x^t lie on the way from 1 that raises x_(n-1), ..., x_0
        in turn, so each is x_i times the one before, x_i its first variable.
        """
        found = [{} for _ in range(self.top + 1)]
        ends = {}
        for t in monomials:
            d = q = 0
            for i in reversed(range(self.n)):
                for _ in range(t[i]):
                    d += 1
                    j = self.row(d, q)[i]
                    found[d][j] = (j, q, i, None)
                    q = j
            ends[t] = q
        return [None] + [sorted(level.values()) for level in found[1:]], ends


def monomial_images(a: SquareMatrix, ladder: _Ladder, wanted=None) -> Iterator[list]:
    """Images of the wanted monomials under a, one degree of the ladder at a time.

    wanted lists per degree 1..top, in position order, the (j, p, i, bound)
    of each wanted x^j = x_i x^p, x^p wanted one degree below: ladder.every
    (the default), ladder.to_diagonals or ladder.ancestors(monomials)[0].
    Yields per degree a list holding at j the image of each wanted x^j, a
    dict from positions to coefficients, and None elsewhere. Only exact
    zeros are skipped, none by the float tolerance. An entry at t is started
    only if bound is None or (bound - code of t) keeps every guard bit, and
    gets the same terms in the same order whatever is wanted. The backend
    picks the body; the exact one's coefficients are the pairs of m*a. A
    monomial a (_monomial: one nonzero entry per column, so every image has
    one term) takes the one-term body on either backend, which makes the
    same one product per entry.
    """
    return (_one_term_images if _monomial(a) else _WALKS[a.backend.scalar])(a, ladder, wanted)


def _pair_product(c: tuple, l: tuple) -> tuple:
    """c times l on Gaussian-integer (re, im) pairs, as the pair body multiplies a term."""
    return c[0] * l[0] - c[1] * l[1], c[0] * l[1] + c[1] * l[0]


def _one_term_images(a: SquareMatrix, ladder: _Ladder, wanted) -> Iterator[list]:
    """monomial_images of a monomial a: each image is its parent's one term times that of L_i."""
    lift, guard, row = a.backend.lift, ladder.guard, ladder.row
    # per column i, the one term (k, conj(a[k][i])) of L_i, as a pair of m*a when exact
    if lift is None:
        times, one = mul, a.backend.one
        terms = [(k, x.conjugate()) for c in zip(*a.rows) for k, x in enumerate(c) if x]
    else:
        times, one = _pair_product, (1, 0)
        terms = [(k, (re, -im)) for c in zip(*lift(a.rows)[1]) for k, (re, im) in enumerate(c) if re or im]
    images = [{0: one}]
    yield images
    for d, step in enumerate((ladder.every if wanted is None else wanted)[1:], 1):
        up, codes = ladder.up[d], ladder.codes[d]
        nxt = [None] * len(codes)
        for j, p, i, bound in step:
            nxt[j] = out = {}
            if images[p]:
                ((q, c),) = images[p].items()
                k, l = terms[i]
                t = (up[q] or row(d, q))[k]
                if (bound is None or (bound - codes[t]) & guard == guard) and (v := times(c, l)):
                    out[t] = v  # a float product may underflow to 0, a pair product cannot
        images = nxt
        yield images


def _complex_images(a: SquareMatrix, ladder: _Ladder, wanted) -> Iterator[list]:
    forms = [
        [(k, row[i].conjugate()) for k, row in enumerate(a.rows) if row[i]]
        for i in range(a.n)
    ]
    guard, row = ladder.guard, ladder.row
    images = [{0: a.backend.one}]
    yield images
    for d, step in enumerate((ladder.every if wanted is None else wanted)[1:], 1):
        up, codes = ladder.up[d], ladder.codes[d]
        nxt = [None] * len(codes)
        for j, p, i, bound in step:
            form = forms[i]
            out: dict = {}
            for q, c in images[p].items():
                targets = up[q] or row(d, q)
                for k, lk in form:
                    t = targets[k]
                    if t in out:
                        out[t] = out[t] + c * lk
                    elif bound is None or (bound - codes[t]) & guard == guard:
                        out[t] = c * lk
            nxt[j] = out if all(out.values()) else {t: v for t, v in out.items() if v}
        images = nxt
        yield images


def _pair_images(a: SquareMatrix, ladder: _Ladder, wanted) -> Iterator[list]:
    # column i of m*a, conjugated: the form m*L_i
    columns = zip(*a.backend.lift(a.rows)[1])
    forms = [[(k, re, -im) for k, (re, im) in enumerate(c) if re or im] for c in columns]
    guard, row = ladder.guard, ladder.row
    images = [{0: (1, 0)}]
    yield images
    for d, step in enumerate((ladder.every if wanted is None else wanted)[1:], 1):
        up, codes = ladder.up[d], ladder.codes[d]
        nxt = [None] * len(codes)
        for j, p, i, bound in step:
            form = forms[i]
            out: dict = {}
            for q, (cr, ci) in images[p].items():
                targets = up[q] or row(d, q)
                for k, lr, li in form:
                    t = targets[k]
                    if t in out:
                        x, y = out[t]
                        out[t] = (x + cr * lr - ci * li, y + cr * li + ci * lr)
                    elif bound is None or (bound - codes[t]) & guard == guard:
                        out[t] = (cr * lr - ci * li, cr * li + ci * lr)
            nxt[j] = {t: v for t, v in out.items() if v[0] or v[1]}
        images = nxt
        yield images


_WALKS = {complex: _complex_images, GaussianRational: _pair_images}


def _lowered(a: SquareMatrix, d: int, images: list) -> list:
    """Degree-d images of a's walk with backend scalars: exact pairs of m*a divided by m^d."""
    lift = a.backend.lift
    if lift is None:
        return images
    scale = lift(a.rows)[0] ** d
    return [image and {q: _make(*v, scale) for q, v in image.items()} for image in images]


def _image_terms(f: SparsePolynomial, a: SquareMatrix) -> dict:
    """The terms of f with every x_i sent to L_i, as {monomial: coefficient}.

    The walk wants only f's monomials and their ancestors. Only f's own
    images are lowered, and summed degree by degree, in the order of f's
    terms within a degree. No coefficient is dropped by the float tolerance.
    """
    ladder = _Ladder(f.n, max(map(sum, f.terms), default=0))
    wanted, positions = ladder.ancestors(f.terms)
    out: dict = {}
    for d, images in enumerate(monomial_images(a, ladder, wanted)):
        terms = [(mono, c) for mono, c in f.terms.items() if sum(mono) == d]
        lowered = _lowered(a, d, [images[positions[mono]] for mono, _ in terms])
        for (_, c), image in zip(terms, lowered):
            for q, v in image.items():
                t = ladder.monomial(d, q)
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
    for images in monomial_images(a, _Ladder(basis.n, basis.d)):
        pass
    return dense_matrix(_lowered(a, basis.d, images), a.backend)
