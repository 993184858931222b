"""Acceptance criteria, one test per criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here: exact equality on the exact
backend, 1e-6 integer rounding for float coefficients.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from math import comb

import corpus
import molien
from molien import (
    EXACT,
    MonomialBasis,
    SquareMatrix,
    close_group,
    cross_check,
    det_one_minus_lambda,
    float_backend,
    induced_matrix,
    invariant_basis,
    invariant_dimension,
    molien_series,
    reynolds_matrix,
    series_reciprocal,
    verify_invariant,
)
from oracles import averaged_monomial_basis, brute_monomials

FLOAT_COEFF_TOL = 1e-6


def report(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")

        return wrapper

    return decorate


def rotation_matrix(order, backend):
    angle = 2 * math.pi / order
    return SquareMatrix(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]], backend
    )


@report("criterion 1: three-way agreement across the corpus at D=6")
def test_three_way_agreement(corpus):
    started = time.monotonic()
    for name, group in corpus.items():
        result = cross_check(group, 6)
        assert result.all_agree(), f"{name} disagrees: {result.per_method}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"corpus cross-check took {elapsed:.1f}s"


@report("criterion 2: closed-form coefficient checks")
def test_closed_forms(corpus):
    assert molien_series(corpus["s2"], 5).coefficients == [1, 1, 2, 2, 3, 3]
    assert molien_series(corpus["s3"], 6).coefficients == [1, 1, 2, 3, 4, 5, 7]
    for n in (1, 2, 3):
        expected = [comb(n + d - 1, d) for d in range(9)]
        assert molien_series(corpus[f"trivial{n}"], 8).coefficients == expected
    assert molien_series(corpus["pm_i2"], 4).coefficients == [1, 0, 3, 0, 5]


@report("criterion 3: per-element trace identity up to degree 6")
def test_per_element_trace_identity(corpus):
    for name, group in corpus.items():
        bases = [MonomialBasis(group.n, d) for d in range(7)]
        for element in group.elements:
            expansion = series_reciprocal(det_one_minus_lambda(element.entrywise_conj()), 6)
            for d in range(7):
                trace = induced_matrix(element, bases[d]).trace()
                assert trace == expansion.coeffs[d], (name, d)


@report("criterion 4: Reynolds idempotence, absorption, trace = rank = size")
def test_reynolds_properties(corpus):
    for name, group in corpus.items():
        for d in range(5):
            reynolds = reynolds_matrix(group, d)
            matrix = reynolds.matrix
            assert matrix @ matrix == matrix, (name, d)
            for element in group.elements:
                induced = induced_matrix(element, reynolds.basis)
                assert induced @ matrix == matrix, (name, d)
            trace = invariant_dimension(reynolds)
            basis = invariant_basis(group, d)
            assert trace == len(basis), (name, d)
            assert basis == averaged_monomial_basis(reynolds), (name, d)


@report("criterion 5: emitted invariants are fixed by all generators")
def test_invariant_outputs(corpus):
    for name, group in corpus.items():
        for d in range(5):
            for f in invariant_basis(group, d):
                assert verify_invariant(f, group), (name, d)


@report("criterion 6: float coefficients integral; float C4 matches exact")
def test_float_exact_consistency():
    from molien.series import averaged_reciprocal_series

    for order in (3, 5, 6, 8, 12):
        group = close_group([rotation_matrix(order, float_backend())])
        assert group.order == order
        raw = averaged_reciprocal_series(group, 8)
        for d, coeff in enumerate(raw.coeffs):
            assert abs(coeff - round(coeff.real)) <= FLOAT_COEFF_TOL, (order, d)
    float_c4 = close_group([rotation_matrix(4, float_backend())])
    exact_c4 = close_group([SquareMatrix([[0, -1], [1, 0]], EXACT)])
    assert molien_series(float_c4, 8).coefficients == molien_series(exact_c4, 8).coefficients


@report("criterion 7: structural identities of induced matrices")
def test_structural_identities(corpus):
    for name, group in corpus.items():
        identity = SquareMatrix.identity(group.n, EXACT)
        for i, element in enumerate(group.elements):
            first = element.entrywise_conj()
            expected_rows = tuple(
                tuple(x.conjugate() for x in row) for row in element.rows
            )
            assert first.rows == expected_rows, name
            inverse_first = group.elements[group.inverse_of[i]].entrywise_conj()
            assert inverse_first @ first == identity, name
            assert inverse_first == first.conj_transpose(), name


@report("criterion 8: stars-and-bars dimension formula")
def test_dimension_formula():
    for n, d in itertools.product(range(1, 5), range(9)):
        basis = MonomialBasis(n, d)
        brute = brute_monomials(n, d)
        assert len(basis) == comb(n + d - 1, d) == len(brute)
        assert set(basis.monomials) == brute


@report("criterion 9: CLI determinism and documented exit codes")
def test_cli_contract(tmp_path):
    def run(*argv):
        # the child imports the molien these tests import, from a checkout or installed
        path = [os.path.dirname(os.path.dirname(molien.__file__)), os.environ.get("PYTHONPATH")]
        return subprocess.run(
            [sys.executable, "-m", "molien.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )

    spec = tmp_path / "c4.json"
    spec.write_text(
        json.dumps(
            {"dimension": 2, "backend": "exact", "generators": [[["0", "-1"], ["1", "0"]]]}
        )
    )
    first = run("verify", "--degree", "5", str(spec))
    second = run("verify", "--degree", "5", str(spec))
    assert first.returncode == 0 and first.stdout == second.stdout

    bad_scalar = tmp_path / "bad.json"
    bad_scalar.write_text(
        json.dumps({"dimension": 1, "backend": "exact", "generators": [[["1//2"]]]})
    )
    result = run("series", "--degree", "2", str(bad_scalar))
    assert result.returncode == 1 and result.stderr.startswith("error:parse:")

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(
        json.dumps(
            {
                "dimension": 2,
                "backend": "float",
                "generators": [[[0.0, -1.0], [1.0, 0.0]]],
                "tolerance": 1.5,
            }
        )
    )
    result = run("verify", "--degree", "2", str(mismatch))
    assert result.returncode == 2
    assert result.stderr.startswith("error:mismatch: d=") and result.stderr.count("\n") == 1

    result = run("series", "--degree", "2", "--max-order", "3", str(spec))
    assert result.returncode == 3 and result.stderr.startswith("error:overflow:")

    drifted = tmp_path / "drifted.json"
    drifted.write_text(
        json.dumps(
            {
                "dimension": 2,
                "backend": "float",
                "generators": [[[1e-4, -1.0], [1.0, 0.0]]],
                "tolerance": 1e-3,
            }
        )
    )
    result = run("series", "--degree", "4", str(drifted))
    assert result.returncode == 4 and result.stderr.startswith("error:consistency:")
