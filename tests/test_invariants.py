"""Reynolds operators: idempotence, dimensions, explicit invariant bases."""

from __future__ import annotations

import cmath
import functools
import itertools
import json
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest
import sympy as sp

import corpus
from molien import (
    EXACT,
    ConsistencyError,
    MonomialBasis,
    ReynoldsMatrix,
    ShapeError,
    SparsePolynomial,
    SquareMatrix,
    close_group,
    cross_check,
    float_backend,
    format_polynomial,
    from_permutations,
    induced_matrix,
    invariant_basis,
    invariant_dimension,
    molien_series,
    reynolds_matrix,
    row_reduce,
    substitute_linear,
    verify_invariant,
)
from molien.action import _image_terms, _Ladder, monomial_images
from molien.invariants import (
    _TRACES,
    _bombieri_weights,
    _orbit_traces,
    _scalar,
    _times,
    fixed_space_dimensions,
    reynolds_traces,
)
from molien.matrices import _monomial
from oracles import (
    averaged_monomial_basis,
    sympy_fixed_space_dimension,
    sympy_induced,
    sympy_reynolds,
    to_sympy,
)

# Pinned exact bases: the reduced echelon form of a row space is unique, so
# no change in how the Reynolds matrices are built may alter them.
S4_DEGREE_6_BASIS = [
    "x1^6 + x2^6 + x3^6 + x4^6",
    "x1^5*x2 + x1^5*x3 + x1^5*x4 + x1*x2^5 + x1*x3^5 + x1*x4^5 + x2^5*x3 + x2^5*x4"
    " + x2*x3^5 + x2*x4^5 + x3^5*x4 + x3*x4^5",
    "x1^4*x2^2 + x1^4*x3^2 + x1^4*x4^2 + x1^2*x2^4 + x1^2*x3^4 + x1^2*x4^4 + x2^4*x3^2"
    " + x2^4*x4^2 + x2^2*x3^4 + x2^2*x4^4 + x3^4*x4^2 + x3^2*x4^4",
    "x1^4*x2*x3 + x1^4*x2*x4 + x1^4*x3*x4 + x1*x2^4*x3 + x1*x2^4*x4 + x1*x2*x3^4"
    " + x1*x2*x4^4 + x1*x3^4*x4 + x1*x3*x4^4 + x2^4*x3*x4 + x2*x3^4*x4 + x2*x3*x4^4",
    "x1^3*x2^3 + x1^3*x3^3 + x1^3*x4^3 + x2^3*x3^3 + x2^3*x4^3 + x3^3*x4^3",
    "x1^3*x2^2*x3 + x1^3*x2^2*x4 + x1^3*x2*x3^2 + x1^3*x2*x4^2 + x1^3*x3^2*x4"
    " + x1^3*x3*x4^2 + x1^2*x2^3*x3 + x1^2*x2^3*x4 + x1^2*x2*x3^3 + x1^2*x2*x4^3"
    " + x1^2*x3^3*x4 + x1^2*x3*x4^3 + x1*x2^3*x3^2 + x1*x2^3*x4^2 + x1*x2^2*x3^3"
    " + x1*x2^2*x4^3 + x1*x3^3*x4^2 + x1*x3^2*x4^3 + x2^3*x3^2*x4 + x2^3*x3*x4^2"
    " + x2^2*x3^3*x4 + x2^2*x3*x4^3 + x2*x3^3*x4^2 + x2*x3^2*x4^3",
    "x1^3*x2*x3*x4 + x1*x2^3*x3*x4 + x1*x2*x3^3*x4 + x1*x2*x3*x4^3",
    "x1^2*x2^2*x3^2 + x1^2*x2^2*x4^2 + x1^2*x3^2*x4^2 + x2^2*x3^2*x4^2",
    "x1^2*x2^2*x3*x4 + x1^2*x2*x3^2*x4 + x1^2*x2*x3*x4^2 + x1*x2^2*x3^2*x4"
    " + x1*x2^2*x3*x4^2 + x1*x2*x3^2*x4^2",
]
BINARY_TETRAHEDRAL_DEGREE_12_BASIS = [
    "x1^12 - 33*x1^8*x2^4 - 33*x1^4*x2^8 + x2^12",
    "x1^10*x2^2 - 2*x1^6*x2^6 + x1^2*x2^10",
]


def poly(n, terms):
    return SparsePolynomial(n, terms, EXACT)


@functools.lru_cache(maxsize=None)
def sympy_reynolds_sweep(build, max_degree):
    """sympy's Reynolds matrices of degrees 0..max_degree; slow, so computed once per group."""
    group = build()
    mats = [to_sympy(g) for g in group.elements]
    return [
        sympy_reynolds(mats, list(MonomialBasis(group.n, d).monomials), group.n)
        for d in range(max_degree + 1)
    ]


def induced_average(group, d):
    """(1/|G|) times the sum of the degree-d induced matrices, added in element order."""
    basis = MonomialBasis(group.n, d)
    backend = group.backend
    total = [[backend.zero] * len(basis) for _ in range(len(basis))]
    for g in group.elements:
        for row, induced in zip(total, induced_matrix(g, basis).rows):
            row[:] = [a + b for a, b in zip(row, induced)]
    factor = backend.coerce(Fraction(1, group.order))
    return SquareMatrix([[factor * x for x in row] for row in total], backend)


class TestReynoldsMatrix:
    def test_pm_identity_fixes_even_degree(self):
        # oracle: direct summation (I^[2] + (-I)^[2]) / 2 = identity
        reynolds = reynolds_matrix(corpus.plus_minus_i2(), 2)
        assert reynolds.matrix == SquareMatrix.identity(3, EXACT)
        assert reynolds.matrix.trace() == EXACT.coerce(3)

    def test_c4_degree_two_trace(self):
        # element traces at d=2 are 3, -1, 3, -1, averaging to 1
        group = corpus.c4()
        basis = MonomialBasis(2, 2)
        traces = [induced_matrix(g, basis).trace() for g in group.elements]
        assert sorted(str(t.re) for t in traces) == ["-1", "-1", "3", "3"]
        assert invariant_dimension(reynolds_matrix(group, 2)) == 1

    def test_s2_degree_two_trace(self):
        assert invariant_dimension(reynolds_matrix(corpus.s2(), 2)) == 2

    def test_average_against_sympy(self):
        group = corpus.d4()
        basis = MonomialBasis(2, 2)
        ours = to_sympy(reynolds_matrix(group, 2).matrix)
        theirs = sum(
            (sympy_induced(to_sympy(g), list(basis.monomials), 2) for g in group.elements),
            sp.zeros(3, 3),
        ) / group.order
        assert sp.simplify(ours - theirs) == sp.zeros(3, 3)

    @pytest.mark.parametrize("build", [corpus.s2, corpus.c4, corpus.q8, corpus.s3])
    @pytest.mark.parametrize("d", range(5))
    def test_idempotent(self, build, d):
        matrix = reynolds_matrix(build(), d).matrix
        assert matrix @ matrix == matrix

    @pytest.mark.parametrize("build", [corpus.c4, corpus.d4, corpus.s3])
    def test_absorption(self, build):
        group = build()
        for d in (1, 2, 3):
            basis = MonomialBasis(group.n, d)
            reynolds = reynolds_matrix(group, d).matrix
            for element in group.elements:
                assert induced_matrix(element, basis) @ reynolds == reynolds

    def test_float_backend_idempotent_within_tolerance(self):
        import math

        fb = float_backend()
        angle = 2 * math.pi / 3
        rotation = SquareMatrix(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]], fb
        )
        from molien import close_group

        group = close_group([rotation])
        matrix = reynolds_matrix(group, 3).matrix
        assert (matrix @ matrix).equals(matrix)
        assert invariant_dimension(reynolds_matrix(group, 3)) == 2

    def test_annotations_resolve(self):
        import typing

        hints = typing.get_type_hints(ReynoldsMatrix)
        assert hints["matrix"] is SquareMatrix


class TestReynoldsSweep:
    @pytest.mark.parametrize(
        "build, max_degree",
        [(corpus.s4, 5), (corpus.binary_tetrahedral, 10), (corpus.b3, 6)],
    )
    def test_each_degree_matches_reynolds_matrix(self, build, max_degree):
        group = build()
        for d in range(max_degree + 1):
            reynolds = reynolds_matrix(group, d)
            assert reynolds.d == d
            assert reynolds.basis.monomials == MonomialBasis(group.n, d).monomials
            assert reynolds.matrix == induced_average(group, d)

    def test_float_degrees_match_within_tolerance(self):
        group = corpus.dihedral_float(12)
        for d in range(13):
            assert reynolds_matrix(group, d).matrix.equals(induced_average(group, d))

    @pytest.mark.parametrize(
        "build, max_degree", [(corpus.s4, 5), (corpus.binary_tetrahedral, 8)]
    )
    def test_exact_average_against_sympy(self, build, max_degree):
        group = build()
        theirs = sympy_reynolds_sweep(build, max_degree)
        for d in range(max_degree + 1):
            assert to_sympy(reynolds_matrix(group, d).matrix) == theirs[d]

    def test_negative_degree_rejected(self):
        with pytest.raises(ShapeError):
            reynolds_matrix(corpus.s2(), -1)

    def test_pinned_bases(self):
        s4 = [format_polynomial(f) for f in invariant_basis(corpus.s4(), 6)]
        assert s4 == S4_DEGREE_6_BASIS
        tetrahedral = invariant_basis(corpus.binary_tetrahedral(), 12)
        assert [format_polynomial(f) for f in tetrahedral] == BINARY_TETRAHEDRAL_DEGREE_12_BASIS

    def test_entries_are_not_coerced_again(self, monkeypatch):
        from molien.scalars import ScalarBackend

        calls = []
        original = ScalarBackend.coerce

        def counting(self, value):
            calls.append(value)
            return original(self, value)

        monkeypatch.setattr(ScalarBackend, "coerce", counting)
        counts = []
        for d in (2, 5):
            calls.clear()
            reynolds_matrix(corpus.s4(), d)
            counts.append(len(calls))
        # the closure coerces the same few scalars at both degrees; no
        # Reynolds entry (56^2 of them at d=5) passes through coerce
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("m", [30, 60])
    def test_float_dihedral_rank_agrees(self, m):
        # dropping terms below the tolerance mid-expansion used to overcount the rank
        report = cross_check(corpus.dihedral_float(m), 16)
        assert report.all_agree()
        assert report.per_method["rank"] == [1 - d % 2 for d in range(17)]


class TestInvariantDimension:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_trivial_group_fixes_everything(self, n, d):
        group = corpus.trivial(n)
        assert invariant_dimension(reynolds_matrix(group, d)) == comb(n + d - 1, d)

    def test_odd_degrees_of_pm_identity_vanish(self):
        assert invariant_dimension(reynolds_matrix(corpus.plus_minus_i2(), 3)) == 0

    def test_c4_degree_four(self):
        group = corpus.c4()
        assert invariant_dimension(reynolds_matrix(group, 4)) == 3
        # a known spanning set sits inside the computed basis span
        basis = invariant_basis(group, 4)
        spanning = [
            poly(2, {(4, 0): 1, (2, 2): 2, (0, 4): 1}),  # (x^2+y^2)^2
            poly(2, {(3, 1): 1, (1, 3): -1}),  # x^3 y - x y^3
            poly(2, {(4, 0): 1, (0, 4): 1}),  # x^4 + y^4
        ]
        degree_basis = MonomialBasis(2, 4)
        basis_rows = [f.coefficient_vector(degree_basis) for f in basis]
        for candidate in spanning:
            assert verify_invariant(candidate, group)
            rows = basis_rows + [candidate.coefficient_vector(degree_basis)]
            assert row_reduce(rows, EXACT)[0] == len(basis)

    def test_non_integer_trace_raises(self):
        basis = MonomialBasis(1, 1)
        bogus = ReynoldsMatrix(1, basis, SquareMatrix([["1/2"]], EXACT))
        with pytest.raises(ConsistencyError, match="Reynolds trace at degree 1 is not an integer"):
            invariant_dimension(bogus)

    def test_float_trace_far_from_integer_raises(self):
        basis = MonomialBasis(1, 1)
        bogus = ReynoldsMatrix(1, basis, SquareMatrix([[0.4 + 0j]], float_backend()))
        with pytest.raises(ConsistencyError, match="Reynolds trace at degree 1 is .*, not within 1e-06"):
            invariant_dimension(bogus)

    @pytest.mark.parametrize("entry, backend", [("-1", EXACT), (-1 + 0j, float_backend())])
    def test_negative_trace_raises(self, entry, backend):
        basis = MonomialBasis(1, 1)
        bogus = ReynoldsMatrix(1, basis, SquareMatrix([[entry]], backend))
        with pytest.raises(ConsistencyError, match="Reynolds trace at degree 1 is negative: -1"):
            invariant_dimension(bogus)

    @pytest.mark.parametrize("build", [corpus.c4, corpus.d4, corpus.s3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_sympy_nullspace(self, build, d):
        group = build()
        basis = MonomialBasis(group.n, d)
        expected = sympy_fixed_space_dimension(
            [to_sympy(g) for g in group.generators()], list(basis.monomials), group.n
        )
        assert invariant_dimension(reynolds_matrix(group, d)) == expected


class TestInvariantBasis:
    def test_s2_degree_two(self):
        basis = invariant_basis(corpus.s2(), 2)
        assert [format_polynomial(f) for f in basis] == ["x1^2 + x2^2", "x1*x2"]

    def test_c4_degree_two(self):
        basis = invariant_basis(corpus.c4(), 2)
        assert [format_polynomial(f) for f in basis] == ["x1^2 + x2^2"]

    def test_pm_identity_degree_one_empty(self):
        assert invariant_basis(corpus.plus_minus_i2(), 1) == []

    def test_degree_zero_constant(self):
        basis = invariant_basis(corpus.q8(), 0)
        assert [format_polynomial(f) for f in basis] == ["1"]

    def test_leading_coefficients_are_one(self, corpus):
        for group in corpus.values():
            for d in (1, 2, 3):
                for f in invariant_basis(group, d):
                    leading_mono, leading_coeff = f.sorted_terms()[0]
                    assert leading_coeff == EXACT.one

    def test_members_are_invariant_and_independent(self):
        for build in (corpus.s3, corpus.d4, corpus.q8):
            group = build()
            for d in (1, 2, 3, 4):
                basis = invariant_basis(group, d)
                assert len(basis) == invariant_dimension(reynolds_matrix(group, d))
                degree_basis = MonomialBasis(group.n, d)
                rows = [f.coefficient_vector(degree_basis) for f in basis]
                assert row_reduce(rows, EXACT)[0] == len(basis)
                for f in basis:
                    assert f.is_homogeneous()
                    assert f.is_zero() or f.degree() == d
                    assert verify_invariant(f, group)


# (corpus builder, its argument, top degree): the float groups whose
# fixed-space bases are pinned to the averaged monomials
FLOAT_CASES = [("h3_float", None, 8)] + [("dihedral_float", m, 16) for m in (5, 12, 30, 60)]


@functools.lru_cache(maxsize=None)
def float_case(name, m, conjugated):
    group = getattr(corpus, name)(*([] if m is None else [m]))
    return corpus.signed_permutation_conjugate(group, seed=17) if conjugated else group


def max_term_distance(f, g):
    zero = f.backend.zero
    terms = f.terms.keys() | g.terms.keys()
    return max((abs(f.terms.get(t, zero) - g.terms.get(t, zero)) for t in terms), default=0.0)


def refuse_sweep(monkeypatch):
    """Make every molien binding of reynolds_matrix raise."""
    import sys

    def refuse(*args, **kwargs):
        raise AssertionError("the group was swept")

    for name, module in list(sys.modules.items()):
        if name.startswith("molien") and hasattr(module, "reynolds_matrix"):
            monkeypatch.setattr(module, "reynolds_matrix", refuse)


class TestFixedSpace:
    """The routes that never sweep the group, pinned to the paper's averages."""

    @pytest.mark.parametrize(
        "name, max_degree",
        [("corpus", 6), ("s5", 4), ("binary_tetrahedral", 12), ("b3", 8)],
    )
    def test_basis_equals_reynolds_route(self, name, max_degree):
        if name == "corpus":
            groups = corpus.build_corpus().values()
        else:
            groups = [getattr(corpus, name)()]
        for group in groups:
            sizes = []
            for d in range(max_degree + 1):
                ours = invariant_basis(group, d)
                assert ours == averaged_monomial_basis(reynolds_matrix(group, d))
                sizes.append(len(ours))
            assert fixed_space_dimensions(group, max_degree) == sizes

    @pytest.mark.parametrize(
        "build, max_degree", [(corpus.s4, 5), (corpus.binary_tetrahedral, 8)]
    )
    def test_class_traces_against_sympy(self, build, max_degree):
        theirs = sympy_reynolds_sweep(build, max_degree)
        assert reynolds_traces(build(), max_degree) == [int(m.trace()) for m in theirs]

    def test_exact_routes_never_sweep(self, monkeypatch, capsys):
        from molien.cli import main

        refuse_sweep(monkeypatch)
        group = corpus.binary_tetrahedral()
        assert cross_check(group, 12).all_agree()
        assert len(invariant_basis(group, 12)) == 2
        assert main(["verify", "--degree", "6", "--perm", "(1 2)", "--perm", "(1 2 3 4)"]) == 0
        assert main(["invariants", "--degree", "4", "--perm", "(1 2)", "--perm", "(1 2 3 4)"]) == 0
        assert "a_4 = 5" in capsys.readouterr().out

    def test_float_routes_never_sweep(self, monkeypatch, tmp_path, capsys):
        from molien.cli import main

        refuse_sweep(monkeypatch)
        group = corpus.dihedral_float(60)
        assert cross_check(group, 16).all_agree()
        assert len(invariant_basis(group, 16)) == 1
        spec = {"dimension": 2, "backend": "float", "generators": [[[0.0, -1.0], [1.0, 0.0]]]}
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(spec))
        assert main(["verify", "--degree", "6", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("OK")

    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("name, m, max_degree", FLOAT_CASES)
    def test_float_basis_equals_reynolds_route(self, name, m, max_degree, conjugated):
        group = float_case(name, m, conjugated)
        sizes = []
        for d in range(max_degree + 1):
            reynolds = reynolds_matrix(group, d)
            ours = invariant_basis(group, d)
            theirs = averaged_monomial_basis(reynolds)
            assert len(ours) == len(theirs) == invariant_dimension(reynolds)
            for f, g in zip(ours, theirs):
                assert max_term_distance(f, g) <= 1e-9
            sizes.append(len(ours))
        assert fixed_space_dimensions(group, max_degree) == sizes

    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("name, m, max_degree", FLOAT_CASES)
    def test_bombieri_scaled_generators_are_unitary(self, name, m, max_degree, conjugated):
        group = float_case(name, m, conjugated)
        ladder = _Ladder(group.n, max_degree)
        for s in group.generators():
            for d, images in enumerate(monomial_images(s, ladder)):
                basis = MonomialBasis(group.n, d)
                size = len(basis)
                rho = np.zeros((size, size), dtype=complex)
                for j, image in enumerate(images):
                    for q, c in image.items():
                        rho[q, j] = c
                w = np.array(_bombieri_weights(group.n, d))
                scaled = rho * w[np.newaxis, :] / w[:, np.newaxis]
                assert np.abs(scaled.conj().T @ scaled - np.eye(size)).max() <= 1e-12

    def test_wrong_class_partition_is_a_mismatch(self):
        # series and trace read the classes, rank does not: lumping every
        # element into one class must show up as a disagreement
        group = corpus.s4()
        group._classes = (tuple(range(group.order)),)
        report = cross_check(group, 4)
        assert report.per_method["rank"] == [1, 1, 2, 3, 5]
        assert not report.all_agree()


def bombieri_stack(group, d):
    """W^-1 (rho_d(s) - I) W over the generators s, stacked, from induced_matrix and numpy alone."""
    basis = MonomialBasis(group.n, d)
    w = np.sqrt([factorial(d) / prod(map(factorial, a)) for a in basis.monomials])
    blocks = []
    for s in group.generators():
        rho = np.array(induced_matrix(s, basis).rows, dtype=complex)
        blocks.append((rho - np.eye(len(basis))) * w[np.newaxis, :] / w[:, np.newaxis])
    return np.vstack(blocks), w


def g413():
    """G(4,1,3) of order 384: S3's transposition and 3-cycle, and diag(i, 1, 1); its centre holds i I."""
    diagonal = SquareMatrix([["i", 0, 0], [0, 1, 0], [0, 0, 1]], EXACT)
    return close_group(from_permutations([(2, 1, 3), (2, 3, 1)]) + [diagonal])


def scalar_cyclic(backend, m):
    """The cyclic group of order m on C^1, every element a scalar: i or exp(2 pi i/m) generates it."""
    zeta = "i" if backend.is_exact else cmath.exp(2j * cmath.pi / m)
    return close_group([SquareMatrix([[zeta]], backend)])


def counted_orbit_traces(group, top, monkeypatch):
    """_orbit_traces' (members, traces) per class, and the matrices the backend's trace body walked."""
    body, walked = _TRACES[group.backend.scalar], []

    def counting(a, ladder):
        walked.append(a)
        return body(a, ladder)

    monkeypatch.setitem(_TRACES, group.backend.scalar, counting)
    return list(_orbit_traces(group, _Ladder(group.n, top))), walked


class TestOrbitTraces:
    """One walk per orbit of classes under the central scalars z I and inversion.

    A class z g takes conj(z)^d times the walked trace and a class g^-1 its
    conjugate; each must equal a walk of the class's own first element.
    """

    @pytest.mark.parametrize(
        "build",
        [corpus.q8, corpus.binary_tetrahedral, corpus.b3, corpus.g8_type, corpus.wf4, g413,
         corpus.h3_float, corpus.gleason, lambda: corpus.dihedral_float(30),
         lambda: corpus.dihedral_float(60), corpus.h3_dense_conjugate],
        ids=["q8", "2t", "b3", "g8_type", "wf4", "g413", "h3_float", "gleason", "dihedral30_float",
             "dihedral60_float", "h3_dense_conjugate"],
    )
    def test_orbit_values_equal_own_walks(self, build, monkeypatch):
        group, top = build(), 12
        ours, _ = counted_orbit_traces(group, top, monkeypatch)
        monkeypatch.undo()
        ladder, body = _Ladder(group.n, top), _TRACES[group.backend.scalar]
        assert [members for members, _ in ours] == list(group.conjugacy_classes())
        sums = [0] * (top + 1)
        for members, traces in ours:
            own = list(body(group.elements[members[0]], ladder))
            if group.backend.is_exact:
                assert traces == own, members
            else:
                assert max(abs(a - b) for a, b in zip(traces, own)) <= 1e-9, members
            sums = [total + len(members) * t for total, t in zip(sums, own)]
        counts = [group.backend.count(total / group.order, "own walks") for total in sums]
        assert reynolds_traces(group, top) == counts

    @pytest.mark.parametrize(
        "build, walks",
        [(corpus.binary_tetrahedral, 3), (corpus.b3, 5), (corpus.q8, 4), (corpus.s4, 5),
         (corpus.h3_float, 5), (lambda: corpus.dihedral_float(30), 9),
         (lambda: corpus.dihedral_float(60), 18), (corpus.h3_dense_conjugate, 5), (corpus.gleason, 5),
         (lambda: scalar_cyclic(EXACT, 4), 1), (lambda: scalar_cyclic(float_backend(), 600), 1)],
        ids=["2t", "b3", "q8", "s4", "h3_float", "dihedral30_float", "dihedral60_float",
             "h3_dense_conjugate", "gleason", "c4_scalar", "c600_scalar_float"],
    )
    def test_walks_per_group(self, build, walks, monkeypatch):
        # D_30's r^15, D_60's r^30 and the dense H3 conjugate's -I carry rounding residues
        # of about 1e-16, but they equal -I by the tolerance that identified them, so
        # -I and inversion halve the walks; Gleason's zeta_8 I is exact, and its powers
        # merge classes though i I is not
        group = build()
        ours, walked = counted_orbit_traces(group, 8, monkeypatch)
        assert len(walked) == walks
        assert len(ours) == len(group.conjugacy_classes())

    def test_walked_member_has_the_sparsest_fullest_column(self, monkeypatch):
        # per walked class: the smallest index among the members whose fullest column is sparsest
        group = corpus.wf4()
        _, walked = counted_orbit_traces(group, 2, monkeypatch)
        class_of = {g: members for members in group.conjugacy_classes() for g in members}

        def fullest(g):
            return max(sum(map(bool, column)) for column in zip(*group.elements[g].rows))

        firsts = []
        for a in walked:
            g = next(g for g, e in enumerate(group.elements) if e is a)
            members = class_of[g]
            assert g == min(members, key=fullest)
            firsts.append(_monomial(group.elements[members[0]]))
        assert (len(walked), sum(map(_monomial, walked)), sum(firsts)) == (16, 12, 10)

    def test_float_half_turn_is_a_scalar_despite_residues(self):
        # D_60's r^30 is -I within the tolerance, not exactly
        group = corpus.dihedral_float(60)
        (z,) = (g for g, *rest in group.conjugacy_classes()[1:] if not rest)
        a = group.elements[z]
        assert a.equals(SquareMatrix([[-1, 0], [0, -1]], group.backend))
        assert a.rows != ((-1, 0), (0, -1))
        assert _scalar(a)

    @pytest.mark.parametrize("backend", [EXACT, float_backend()], ids=["exact", "float"])
    def test_reflection_is_not_a_scalar(self, backend):
        assert not _scalar(SquareMatrix([[1, 0], [0, -1]], backend))

    @pytest.mark.parametrize("backend", [EXACT, float_backend()], ids=["exact", "float"])
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_entry_off_i_identity_is_not_a_scalar(self, backend, i, j):
        # off by 1e-6, far above the float tolerance
        rows = [["i", 0], [0, "i"]]
        assert _scalar(SquareMatrix(rows, backend))
        rows[i][j] = "1/1000000+i" if i == j else "1/1000000"
        assert not _scalar(SquareMatrix(rows, backend))

    def test_g8_type_i_identity_is_a_scalar(self):
        # the first central scalar, as in test_scalar_shift_is_right_multiplication
        group = corpus.g8_type()
        z = next(g for g, *rest in group.conjugacy_classes()[1:] if not rest)
        assert group.elements[z].rows == SquareMatrix([["i", 0], [0, "i"]], EXACT).rows
        assert _scalar(group.elements[z])

    def test_scalar_shift_is_right_multiplication(self):
        # i I in g8_type: (zeta_8 H)^2; x -> x z is read down the right table
        group = corpus.g8_type()
        z = next(g for g, *rest in group.conjugacy_classes()[1:] if not rest)
        assert group.elements[z].equals(SquareMatrix([["i", 0], [0, "i"]], EXACT))
        shift = _times(group.right, z)
        for x, element in enumerate(group.elements):
            assert group.elements[shift[x]].equals(element @ group.elements[z])


class TestFloatRank:
    """Float rank against the series where stream-order elimination kept false pivots.

    The series and the traces read no elimination, so they are the oracle.
    """

    def test_dihedral60_rank_is_series_to_64(self):
        group = corpus.dihedral_float(60)
        assert fixed_space_dimensions(group, 64) == molien_series(group, 64).coefficients

    @pytest.mark.parametrize("d, size", [(24, 9), (26, 10)])
    def test_h3_basis_sizes_at_high_degree(self, d, size):
        group = corpus.h3_float()
        basis = invariant_basis(group, d)
        assert len(basis) == size == molien_series(group, d).coefficients[d]
        # coefficients reach 3e5 here, so invariance is checked relative to them
        for f in basis:
            largest = max(map(abs, f.terms.values()))
            for s in group.generators():
                moved = _image_terms(f, s)
                for t in moved.keys() | f.terms.keys():
                    assert abs(moved.get(t, 0) - f.terms.get(t, 0)) <= 1e-12 * largest
        # verify_invariant measures a move against the largest coefficient too
        assert all(verify_invariant(f, group) for f in basis)
        f = basis[-1]
        first, largest = next(iter(f.terms)), max(map(abs, f.terms.values()))
        moved = SparsePolynomial(3, {**f.terms, first: f.terms[first] + 1e-6 * largest}, group.backend)
        assert not verify_invariant(moved, group)

    def test_dense_h3_conjugate_rank_is_series_to_12(self):
        # no generator is monomial, so every monomial is its own column
        group = corpus.h3_dense_conjugate()
        assert not any(map(_monomial, group.generators()))
        series = molien_series(group, 12).coefficients
        assert fixed_space_dimensions(group, 12) == series == reynolds_traces(group, 12)


SVD_CASES = [(name, m, top, False) for name, m, top in FLOAT_CASES] + [
    ("h3_float", None, 8, True),
    ("dihedral_float", 30, 16, True),
    ("gleason", None, 48, False),
    ("dihedral_float", 60, 64, False),
    ("h3_dense_conjugate", None, 12, False),
]


class TestSvdOracle:
    """numpy's SVD of the Bombieri-scaled generator rows, built from induced_matrix, as the rank oracle."""

    @pytest.mark.parametrize("name, m, top, conjugated", SVD_CASES)
    def test_nullity_and_basis_span(self, name, m, top, conjugated):
        group = float_case(name, m, conjugated)
        dimensions = fixed_space_dimensions(group, top)
        for d in range(top + 1):
            stack, w = bombieri_stack(group, d)
            _, values, vh = np.linalg.svd(stack)
            # a clear gap: every singular value is at rounding level or of order one
            assert not np.any((values > 1e-9) & (values < 1e-2)), (d, values)
            nullity = int(np.sum(values <= 1e-9))
            assert nullity == dimensions[d], d
            null = vh[len(values) - nullity :]
            basis = MonomialBasis(group.n, d)
            for f in invariant_basis(group, d):
                y = np.array([f.terms.get(a, 0) for a in basis.monomials], dtype=complex) / w
                y /= np.linalg.norm(y)
                assert np.linalg.norm(y - null.conj().T @ (null @ y)) <= 1e-9, d


class TestVerifyInvariant:
    def test_rotation_fixes_sum_of_squares(self):
        f = poly(2, {(2, 0): 1, (0, 2): 1})
        assert verify_invariant(f, corpus.c4())

    def test_sign_flip_moves_linear_form(self):
        f = poly(2, {(1, 0): 1})
        assert not verify_invariant(f, corpus.plus_minus_i2())

    @pytest.mark.parametrize("m, d", [(30, 16), (60, 14), (60, 16)])
    def test_float_dihedral_basis_is_invariant(self, m, d):
        # substituting through SparsePolynomial products dropped terms below
        # the tolerance mid-expansion: verify_invariant rejected, and
        # substitute_linear moved, (x1^2 + x2^2)^(d/2) by 2e-9 to 9e-9
        group = corpus.dihedral_float(m)
        (f,) = invariant_basis(group, d)
        assert verify_invariant(f, group)
        for s in group.generators():
            assert substitute_linear(f, s.entrywise_conj()).equals(f)

    def test_float_dihedral_moved_form_is_not_invariant(self):
        group = corpus.dihedral_float(60)
        f = SparsePolynomial(2, {(16, 0): 1, (0, 16): 1}, group.backend)
        assert not verify_invariant(f, group)

    def test_mixed_degrees_are_checked_per_degree(self):
        group = corpus.c4()
        assert verify_invariant(poly(2, {(0, 0): 5, (2, 0): 1, (0, 2): 1}), group)
        assert not verify_invariant(poly(2, {(2, 0): 1, (0, 2): 1, (1, 0): 1}), group)

    def test_zero_polynomial_is_invariant(self):
        assert verify_invariant(SparsePolynomial.zero(2, EXACT), corpus.c4())

    def test_variable_count_mismatch(self):
        with pytest.raises(ShapeError):
            verify_invariant(poly(3, {(1, 1, 0): 1}), corpus.c4())

    def test_swap_fixes_product(self):
        f = poly(2, {(1, 1): 1})
        assert verify_invariant(f, corpus.s2())

    def test_products_of_invariants_stay_invariant(self):
        # the invariants form a subalgebra
        group = corpus.s3()
        degree_one = invariant_basis(group, 1)
        degree_two = invariant_basis(group, 2)
        for f, g in itertools.product(degree_one, degree_one + degree_two):
            assert verify_invariant(f * g, group)
