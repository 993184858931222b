"""Group closure, element identity, inverse tables, permutation builders."""

from __future__ import annotations

import itertools

import pytest

import corpus
from molien import (
    EXACT,
    ClosureOverflowError,
    SquareMatrix,
    ValidationError,
    close_group,
    float_backend,
    from_permutations,
    permutation_from_cycles,
)
from molien import groups as groups_module
from molien.groups import _ElementIndex
from molien.matrices import _monomial
from oracles import reference_closure

ROTATION = SquareMatrix(corpus.ROTATION, EXACT)


def brute_close(generators):
    """Independent closure: saturate a set of entry tuples pairwise."""
    seen = {SquareMatrix.identity(generators[0].n, generators[0].backend).rows}
    matrices = [SquareMatrix.identity(generators[0].n, generators[0].backend)]
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(matrices), list(matrices) + generators):
            product = a @ b
            if product.rows not in seen:
                seen.add(product.rows)
                matrices.append(product)
                changed = True
    return seen


class TestClosure:
    def test_pm_identity(self):
        group = close_group([SquareMatrix([[-1, 0], [0, -1]], EXACT)])
        assert group.order == 2

    def test_cyclic_four(self):
        group = close_group([ROTATION])
        assert group.order == 4

    def test_quaternion_group_against_brute_force(self):
        generators = [
            SquareMatrix([["i", "0"], ["0", "-i"]], EXACT),
            ROTATION,
        ]
        group = close_group(generators)
        assert group.order == 8
        assert {m.rows for m in group.elements} == brute_close(generators)

    def test_identity_is_element_zero(self):
        group = corpus.s3()
        assert group.elements[0] == SquareMatrix.identity(3, EXACT)

    def test_product_table_total(self):
        group = corpus.s3()
        members = {m.rows for m in group.elements}
        for a, b in itertools.product(group.elements, repeat=2):
            assert (a @ b).rows in members

    def test_inverse_table(self):
        # S5 and 2T are exact, one monomial and one not; D_9 is float
        groups = [corpus.q8(), corpus.s5(), corpus.binary_tetrahedral(), corpus.dihedral_float(9)]
        for group in groups:
            identity = group.elements[0]
            for i in range(group.order):
                j = group.inverse_of[i]
                assert group.inverse_of[j] == i
                assert (group.elements[i] @ group.elements[j]).equals(identity)

    @pytest.mark.parametrize(
        "build",
        [
            corpus.build_corpus,
            corpus.s5,
            corpus.s6,
            corpus.binary_tetrahedral,
            corpus.b3,
            corpus.g423,
            corpus.wf4,
            lambda: corpus.dihedral_float(12),
            lambda: corpus.dihedral_float(30),
            corpus.h3_float,
        ],
        ids=[
            "corpus", "S5", "S6", "2T", "B3", "G(4,2,3)", "W(F4)", "D12-float", "D30-float",
            "H3-float",
        ],
    )
    def test_inverse_table_is_the_conjugate_transpose(self, build):
        # unitary: the inverse is the conjugate transpose, found by rows
        # (exact) or by a linear scan for a tolerance-equal element (float)
        built = build()
        for group in built.values() if isinstance(built, dict) else [built]:
            if group.backend.is_exact:
                position = {g.rows: i for i, g in enumerate(group.elements)}
                expected = [position[g.conj_transpose().rows] for g in group.elements]
            else:
                expected = [
                    next(j for j, h in enumerate(group.elements) if g.conj_transpose().equals(h))
                    for g in group.elements
                ]
            assert list(group.inverse_of) == expected

    def test_products_are_table_entries_and_inverse_pairs(self, monkeypatch):
        generators = from_permutations([(2, 1, 3, 4), (2, 3, 4, 1)])
        group = close_group(generators)
        products, row_products = [], []
        matmul, row_product = SquareMatrix.__matmul__, groups_module._pair_row_product

        def counting_matmul(self, other):
            products.append(1)
            return matmul(self, other)

        def counting_row_product(*args):
            row_products.append(1)
            return row_product(*args)

        monkeypatch.setattr(SquareMatrix, "__matmul__", counting_matmul)
        monkeypatch.setattr(groups_module, "_pair_row_product", counting_row_product)
        close_group(generators)
        # the exact closure makes no matrix product, the unitarity checks
        # included; every (row point, generator) pair is one int row
        # product, made once, and the table entries and inverse pairs are lookups
        row_points = {(j, row) for g in group.elements for j, row in enumerate(g.rows)}
        assert group.order == 24
        assert len(row_points) == 16
        assert len(products) == 0
        assert len(row_products) == len(row_points) * len(generators)

    @pytest.mark.parametrize("build", [corpus.s4, corpus.binary_tetrahedral], ids=["S4", "2T"])
    def test_exact_closure_makes_no_matrix_product(self, build, monkeypatch):
        generators = build().generators()
        products = []
        matmul = SquareMatrix.__matmul__

        def counting_matmul(self, other):
            products.append(1)
            return matmul(self, other)

        monkeypatch.setattr(SquareMatrix, "__matmul__", counting_matmul)
        assert close_group(generators).order == 24
        assert products == []

    @pytest.mark.parametrize(
        "build",
        [
            corpus.build_corpus,
            corpus.binary_tetrahedral,
            corpus.wf4,
            corpus.g8_type,
            lambda: corpus.gaussian_unitary_conjugate(corpus.b3(), 0),
            lambda: corpus.dihedral_float(12),
            corpus.h3_dense_conjugate,
        ],
        ids=["corpus", "2T", "W(F4)", "G8-type", "B3-gaussian", "D12-float", "H3-dense-float"],
    )
    def test_monomial_flags_are_the_column_test(self, build):
        # read off the row points, they agree with matrices._monomial on every element
        built = build()
        kinds = set()
        for group in built.values() if isinstance(built, dict) else [built]:
            assert list(group.monomial) == [_monomial(g) for g in group.elements]
            kinds |= set(group.monomial)
        assert True in kinds

    def test_rows_are_shared_between_elements(self):
        group = corpus.s4()
        rows = {id(row) for g in group.elements for row in g.rows}
        assert len(rows) == 16

    def test_symmetric_seven_closes_at_max_order(self):
        generators = from_permutations([(2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1)])
        assert close_group(generators, max_order=5040).order == 5040
        with pytest.raises(ClosureOverflowError):
            close_group(generators, max_order=5039)

    def test_weyl_f4_order_and_classes(self):
        group = corpus.wf4()
        assert group.order == 1152
        assert len(group.conjugacy_classes()) == 25

    def test_element_whose_conjugate_transpose_is_missing_has_no_inverse(self, monkeypatch):
        # g squares to the identity, but g^H = [[0, 1/2], [2, 0]] is not g
        monkeypatch.setattr(groups_module, "_pair_unitary", lambda m, rows: True)
        generator = SquareMatrix([[0, 2], ["1/2", 0]], EXACT)
        with pytest.raises(ValidationError, match="element 1 has no inverse in the closure"):
            close_group([generator])

    def test_every_element_unitary(self, corpus):
        for group in corpus.values():
            assert all(element.is_unitary() for element in group.elements)

    def test_generator_indices_resolve(self):
        group = corpus.d4()
        generators = group.generators()
        assert generators[0] == ROTATION

    def test_order_independent_of_generator_order(self):
        transposition, cycle = from_permutations([(2, 1, 3), (2, 3, 1)])
        one = close_group([transposition, cycle])
        two = close_group([cycle, transposition])
        assert one.order == two.order == 6
        assert {m.rows for m in one.elements} == {m.rows for m in two.elements}

    def test_non_unitary_generator_named(self):
        good = SquareMatrix.identity(2, EXACT)
        bad = SquareMatrix([[2, 0], [0, 1]], EXACT)
        with pytest.raises(ValidationError, match="generator 1"):
            close_group([good, bad])

    def test_empty_generators_rejected(self):
        with pytest.raises(ValidationError):
            close_group([])

    def test_max_order_overflow(self):
        with pytest.raises(ClosureOverflowError) as err:
            close_group([ROTATION], max_order=3)
        assert "max_order=3" in str(err.value)
        assert err.value.max_order == 3

    def test_zero_max_order_rejected(self):
        with pytest.raises(ValidationError, match="max_order"):
            close_group([ROTATION], max_order=0)

    def test_generators_of_mismatched_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="generator 1 has dimension 3, expected 2"):
            close_group([ROTATION, SquareMatrix.identity(3, EXACT)])

    def test_exact_infinite_order_rotation_overflows_before_closing(self, monkeypatch):
        # unitary, but its trace 6/5 is no Gaussian integer, so it has infinite
        # order; closing it would reach max_order only after minutes
        def step(self, point, terms):
            raise AssertionError("the closure took a step")

        monkeypatch.setattr(_ElementIndex, "step", step)
        rotation = SquareMatrix([["3/5", "4/5"], ["-4/5", "3/5"]], EXACT)
        for generators in ([rotation], [ROTATION, rotation]):
            with pytest.raises(ClosureOverflowError) as err:
                close_group(generators)
            assert err.value.max_order == groups_module.DEFAULT_MAX_ORDER

    @pytest.mark.parametrize(
        "build, order",
        [
            (corpus.s5, 120),
            (corpus.s6, 720),
            (corpus.binary_tetrahedral, 24),
            (corpus.b3, 48),
            (corpus.g423, 192),
            (corpus.g8_type, 96),
            (corpus.wf4, 1152),
            (lambda: corpus.pauli(2), 64),
            (lambda: corpus.signed_permutation_conjugate(corpus.b3(), 3), 48),
            (lambda: corpus.gaussian_unitary_conjugate(corpus.b3(), 0), 48),
            (lambda: corpus.gaussian_unitary_conjugate(corpus.binary_tetrahedral(), 0), 24),
        ],
    )
    def test_exact_finite_groups_pass_the_trace_check(self, build, order):
        assert build().order == order

    def test_corpus_closes_to_its_orders(self, corpus):
        orders = {name: group.order for name, group in corpus.items()}
        assert orders == {
            "trivial1": 1, "trivial2": 1, "trivial3": 1, "pm_i2": 2, "s2": 2,
            "s3": 6, "s4": 24, "c4": 4, "d4": 8, "q8": 8,
        }

    def test_float_runaway_rotation_overflows(self):
        import math

        fb = float_backend()
        irrational = SquareMatrix(
            [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]], fb
        )
        with pytest.raises(ClosureOverflowError):
            close_group([irrational], max_order=64)


def symmetric(n: int):
    """S_n on a transposition and an n-cycle."""
    transposition = (2, 1) + tuple(range(3, n + 1))
    cycle = tuple(range(2, n + 1)) + (1,)
    return close_group(from_permutations([transposition, cycle]))


def as_permutation(matrix) -> tuple[int, ...]:
    """0-based image of each point: the row of the one nonzero entry in each column."""
    return tuple(
        next(k for k in range(matrix.n) if matrix.rows[k][i]) for i in range(matrix.n)
    )


def g414_generators():
    """G(4,1,4) of order 6144: S4's transposition and 4-cycle, and diag(i, 1, 1, 1)."""
    diagonal = [["i", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return from_permutations([(2, 1, 3, 4), (2, 3, 4, 1)]) + [SquareMatrix(diagonal, EXACT)]


def table_groups():
    """The corpus plus S5, 2T, B3 and the float D_12."""
    extra = [corpus.s5(), corpus.binary_tetrahedral(), corpus.b3(), corpus.dihedral_float(12)]
    return [*corpus.build_corpus().values(), *extra]


class TestRightTable:
    def test_entries_index_the_products(self):
        for group in table_groups():
            generators = group.generators()
            assert len(group.right) == group.order
            for i, element in enumerate(group.elements):
                assert len(group.right[i]) == len(generators)
                for s, generator in enumerate(generators):
                    product = element @ generator
                    first = next(j for j, e in enumerate(group.elements) if e.equals(product))
                    assert group.right[i][s] == first

    def test_generator_indices_are_the_identity_row(self):
        # identity @ g is g
        for group in table_groups():
            assert group.generator_indices == group.right[0]


class TestConjugacyClasses:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_partition_matches_sympy(self, n):
        from sympy.combinatorics import Permutation, PermutationGroup

        group = symmetric(n)
        ours = {
            frozenset(as_permutation(group.elements[i]) for i in members)
            for members in group.conjugacy_classes()
        }
        theirs = PermutationGroup(
            [Permutation(list(as_permutation(g))) for g in group.generators()]
        ).conjugacy_classes()
        assert ours == {frozenset(tuple(p.array_form) for p in cls) for cls in theirs}

    def test_classes_partition_the_group_in_element_order(self):
        for group in table_groups():
            classes = group.conjugacy_classes()
            assert sorted(i for members in classes for i in members) == list(range(group.order))
            assert all(list(members) == sorted(members) for members in classes)
            assert [members[0] for members in classes] == sorted(members[0] for members in classes)
            assert classes[0] == (0,)

    @pytest.mark.parametrize("build", [corpus.binary_tetrahedral, corpus.b3, corpus.q8])
    def test_classes_by_matrix_conjugation(self, build):
        # not permutation groups: conjugate every element by every element
        group = build()
        position = {g.rows: i for i, g in enumerate(group.elements)}
        for members in group.conjugacy_classes():
            g = group.elements[members[0]]
            conjugates = {
                position[(group.elements[group.inverse_of[i]] @ g @ h).rows] for i, h in enumerate(group.elements)
            }
            assert conjugates == set(members)

    def test_classes_are_computed_once(self):
        group = corpus.s4()
        assert group.conjugacy_classes() is group.conjugacy_classes()


class TestFloatElementIdentity:
    def test_rotation_closes_at_order(self):
        import math

        fb = float_backend()
        for order in (3, 5, 8, 12):
            angle = 2 * math.pi / order
            rotation = SquareMatrix(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]], fb
            )
            assert close_group([rotation]).order == order

    def test_perturbation_below_tolerance_collides(self):
        import math

        fb = float_backend(1e-9)
        angle = 2 * math.pi / 6
        rotation = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        # same element, drifted well below epsilon/10
        drift = 1e-11
        perturbed = [[x + drift for x in row] for row in rotation]
        group = close_group(
            [SquareMatrix(rotation, fb), SquareMatrix(perturbed, fb)]
        )
        assert group.order == 6

    def test_index_finds_perturbation_across_bin_boundary(self):
        import math

        fb = float_backend(1e-9)
        index = _ElementIndex(fb, 2)
        # every real and imaginary part moves by 0.7 * tolerance / sqrt(2), so
        # each entry moves by 0.7 * tolerance and the projection by 0.35 pitch
        shift = complex(0.7e-9, 0.7e-9) / math.sqrt(2)
        for step in range(200):
            angle = 0.01 * step
            row = (complex(math.cos(angle)), complex(-math.sin(angle)))
            moved = tuple(x + shift for x in row)
            if index._bin(moved) != index._bin(row):
                break
        else:
            pytest.fail("no row in the sweep crosses a bin boundary")
        point = index.add(0, row)
        assert all(fb.eq(a, b) for a, b in zip(moved, row))
        assert index.find((0, moved)) == point
        # the same row at another position is another point
        assert index.find((1, row)) is None
        assert index.find((0, tuple(-x for x in row))) is None

    def test_coarse_tolerance_keeps_the_rows_of_an_element_apart(self):
        # at tolerance 1.5, e1 and e2 are equal entrywise, and so are the
        # rotation and the identity; rows at different positions never
        # merge, so the identity stays exact and the group has order 1
        fb = float_backend(1.5)
        group = close_group([SquareMatrix(corpus.ROTATION, fb)])
        assert group.order == 1
        assert group.elements[0] == SquareMatrix.identity(2, fb)
        assert group.right == ((0,),)
        assert group.inverse_of == (0,)

    def test_separation_above_tolerance_distinguishes(self):
        fb = float_backend(1e-9)
        a = SquareMatrix([[1, 0], [0, 1]], fb)
        b = SquareMatrix([[1, 0], [0, -1]], fb)
        assert close_group([a, b]).order == 2


class ScanningIndex(_ElementIndex):
    """_ElementIndex whose float lookups scan every known point: the smallest index within tolerance."""

    def find(self, point):
        position, row = point
        eq = self.backend.eq
        known = enumerate(self.points)
        return next((p for p, (k, r) in known if k == position and all(map(eq, row, r))), None)

    def add(self, position, row):
        if not self.binned:
            return super().add(position, row)
        found = self.find((position, row))
        if found is None:
            self.points.append((position, row))
            return len(self.points) - 1
        return found


class TestFloatIndexAgainstScan:
    """The binned float index gives close_group the same points as a scan of all of them."""

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda m=m: corpus.dihedral_float(m) for m in (5, 12, 30, 60)),
            corpus.h3_float,
            lambda: corpus.signed_permutation_conjugate(corpus.h3_float(), 17),
            lambda: corpus.signed_permutation_conjugate(corpus.dihedral_float(30), 17),
            corpus.h3_dense_conjugate,
            corpus.gleason,
        ],
        ids=["D5", "D12", "D30", "D60", "H3", "H3-conjugate", "D30-conjugate", "H3-dense", "Gleason"],
    )
    def test_elements_and_tables(self, build, monkeypatch):
        generators = build().generators()
        group = close_group(generators)
        monkeypatch.setattr(groups_module, "_ElementIndex", ScanningIndex)
        scanned = close_group(generators)
        assert [g.rows for g in group.elements] == [g.rows for g in scanned.elements]
        assert group.right == scanned.right
        assert group.inverse_of == scanned.inverse_of


def key(row):
    """The reduced int tuple (d, a_0, b_0, ...) of an exact row, as the closure keys it."""
    m, (pairs,) = EXACT.lift([row])
    return (m, *[part for pair in pairs for part in pair])


class TestExactElementIdentity:
    def test_conjugate_rows_are_found_by_entry_ids(self):
        index = _ElementIndex(EXACT, 2)
        # points 0 and 1 are the identity's rows
        assert index.points == [(0, (1, 1, 0, 0, 0)), (1, (1, 0, 0, 1, 0))]
        half = EXACT.coerce("1/2+1/2i")
        rows_in = [(half, EXACT.coerce("i")), (half.conjugate(), EXACT.coerce("-i")), (EXACT.one, half)]
        keys = [key(row) for row in rows_in]
        # one reduced int tuple (d, a_0, b_0, a_1, b_1) per row
        assert keys == [(2, 1, 1, 0, 2), (2, 1, -1, 0, -2), (2, 2, 0, 1, 1)]
        points = [index.add(0, k) for k in keys]
        assert points == [2, 3, 4]
        assert index.add(0, key((EXACT.coerce("1/2+1/2i"), EXACT.coerce("i")))) == 2
        # a step on the key of [[i, 0], [0, 1]] over m = 1: row 2 becomes (i/2 - 1/2, i)
        assert index.step(2, (1, (((0, 0, 1),), ((2, 1, 0),)))) == 5
        assert index.points[5] == (0, (2, -1, 1, 0, 2))
        rows, conjugates, find = index.rows()
        assert rows[2:] == [*rows_in, (EXACT.coerce("-1/2+1/2i"), EXACT.coerce("i"))]
        # rows 2 and 3 are each other's conjugates; rows 4 and 5 have unknown conjugates
        assert find((0, conjugates[2])) == 3
        assert find((0, conjugates[3])) == 2
        assert find((0, conjugates[4])) is None
        assert find((1, conjugates[2])) is None
        # the identity's rows are real
        assert [find((j, conjugates[j])) for j in (0, 1)] == [0, 1]
        assert all(type(k) is int for row in conjugates for k in row)

    def test_keys_reduce_by_one_gcd_over_the_row(self):
        index = _ElementIndex(EXACT, 2)
        # (1/2, 1/2) times the generator 2 * [[1, 0], [0, 1]] / 2: (2/4, 2/4) reduces to (1, 1, 0, 1, 0) over 2
        point = index.add(0, key((EXACT.coerce("1/2"), EXACT.coerce("1/2"))))
        assert index.points[point][1] == (2, 1, 0, 1, 0)
        assert index.step(point, (2, (((0, 2, 0),), ((2, 2, 0),)))) == point
        # times [[0, 1], [1, 0]] it is the same row again; times [[1, 0], [0, -1]] a new one
        assert index.step(point, (1, (((2, 1, 0),), ((0, 1, 0),)))) == point
        assert index.points[index.step(point, (1, (((0, 1, 0),), ((2, -1, 0),))))] == (0, (2, 1, 0, -1, 0))


class TestReferenceClosure:
    """close_group against the whole-matrix closure of oracles.reference_closure."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: [group.generators() for group in table_groups()],
            lambda: [corpus.s6().generators()],
            lambda: [g414_generators()],
            lambda: [corpus.wf4().generators()],
            lambda: [corpus.g8_type().generators()],
            lambda: [corpus.h3_float().generators()],
            lambda: [corpus.dihedral_float(60).generators()],
        ],
        ids=["table-groups", "S6", "G(4,1,4)", "W(F4)", "G8-type", "H3-float", "D60-float"],
    )
    def test_same_elements_order_and_tables(self, build):
        for generators in build():
            group = close_group(generators)
            elements, right, inverse_of, generator_indices = reference_closure(generators)
            assert group.order == len(elements)
            if group.backend.is_exact:
                assert list(group.elements) == elements
            else:
                assert all(a.equals(b) for a, b in zip(group.elements, elements))
            assert group.right == tuple(right)
            assert group.inverse_of == tuple(inverse_of)
            assert group.generator_indices == generator_indices


class TestPermutations:
    def test_swap(self):
        (matrix,) = from_permutations([(2, 1)])
        assert matrix == SquareMatrix([[0, 1], [1, 0]], EXACT)

    def test_identity(self):
        (matrix,) = from_permutations([(1, 2, 3)])
        assert matrix == SquareMatrix.identity(3, EXACT)

    def test_three_cycle_has_order_three(self):
        (matrix,) = from_permutations([(2, 3, 1)])
        identity = SquareMatrix.identity(3, EXACT)
        assert matrix @ matrix @ matrix == identity
        assert matrix != identity

    def test_columns_carry_images(self):
        # column i holds e_{p(i)}: 1 -> 2 means entry (row 2, col 1)
        (matrix,) = from_permutations([(2, 3, 1)])
        assert matrix.rows[1][0] == EXACT.one

    def test_not_a_bijection(self):
        with pytest.raises(ValidationError, match="permutation 0"):
            from_permutations([(1, 1)])


class TestCycleNotation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(1 2)(3)", (2, 1, 3)),
            ("(1 2 3)", (2, 3, 1)),
            ("(2 3)", (1, 3, 2)),
            ("(1,4)(2,3)", (4, 3, 2, 1)),
            ("(1)", (1,)),
        ],
    )
    def test_parses(self, text, expected):
        assert permutation_from_cycles(text) == expected

    def test_explicit_size(self):
        assert permutation_from_cycles("(1 2)", n=4) == (2, 1, 3, 4)

    @pytest.mark.parametrize("text", ["", "1 2", "(1 2", "(1 2)(2 3)", "(a b)", "(0 1)"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            permutation_from_cycles(text)
