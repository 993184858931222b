"""Exact scalar arithmetic, the literal grammar, and backend plumbing."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import pytest

from molien import (
    EXACT,
    BackendError,
    GaussianRational,
    ScalarBackend,
    ScalarParseError,
    ValidationError,
    float_backend,
    format_scalar,
    parse_scalar,
)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def random_scalar(rng, nonzero=False):
    while True:
        value = G(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        )
        if value or not nonzero:
            return value


class TestParse:
    @pytest.mark.parametrize(
        "text,re,im",
        [
            ("1/2", Fraction(1, 2), 0),
            ("-i", 0, -1),
            ("3/4-2/5i", Fraction(3, 4), Fraction(-2, 5)),
            ("i", 0, 1),
            ("2i", 0, 2),
            ("-2/7i", 0, Fraction(-2, 7)),
            ("0", 0, 0),
            ("-6", -6, 0),
            ("5/10", Fraction(1, 2), 0),
            ("1+i", 1, 1),
            ("1-i", 1, -1),
            ("-1/3+i", Fraction(-1, 3), 1),
            ("12+7/3i", 12, Fraction(7, 3)),
            ("1+0i", 1, 0),
        ],
    )
    def test_literals(self, text, re, im):
        value = parse_scalar(text)
        assert value.re == Fraction(re)
        assert value.im == Fraction(im)

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("-", 1),
            ("1//2", 2),
            ("1/0", 2),
            ("1+2", 3),
            ("2.5", 1),
            ("1 + i", 1),
            ("1/2/3", 3),
            ("1i2", 2),
            ("+1", 0),
            ("i3", 1),
            ("3/4-2/0i", 6),
            ("1+2ix", 4),
            (5, 0),
        ],
    )
    def test_rejects_malformed(self, text, offset):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text)
        assert err.value.offset == offset

    def test_seeded_literals_match_fraction_pairs(self):
        # the parser builds the reduced triple directly; the reference goes
        # through GaussianRational(Fraction, Fraction)
        def rational(rng):
            num = rng.choice([0, 1, rng.randint(0, 60)])
            if rng.random() < 0.5:
                return str(num), Fraction(num)
            den = rng.randint(1, 24)
            return f"{num}/{den}", Fraction(num, den)

        rng = random.Random(18)
        cases = [
            ("4/6+2/6i", Fraction(2, 3), Fraction(1, 3)),
            ("i", 0, 1),
            ("-i", 0, -1),
            ("3+i", 3, 1),
            ("-5/10-i", Fraction(-1, 2), -1),
            ("0/7", 0, 0),
            ("-0", 0, 0),
            ("-0/4-0/9i", 0, 0),
        ]
        for _ in range(2000):
            sign = rng.choice([1, -1])
            re_text, re = rational(rng)
            form = rng.choice(["real", "imag", "unit", "both"])
            if form == "real":
                text, value = re_text, (sign * re, 0)
            elif form == "imag":
                text, value = re_text + "i", (0, sign * re)
            else:
                im_sign = rng.choice([1, -1])
                im_text, im = ("", Fraction(1)) if form == "unit" else rational(rng)
                text = f"{re_text}{'+' if im_sign == 1 else '-'}{im_text}i"
                value = (sign * re, im_sign * im)
            cases.append((("-" if sign == -1 else "") + text, *value))
        for text, re, im in cases:
            ours = parse_scalar(text)
            reference = GaussianRational(Fraction(re), Fraction(im))
            assert (ours._a, ours._b, ours._d) == (reference._a, reference._b, reference._d), text

    def test_offset_is_in_bytes(self):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar("1½")
        assert err.value.offset == 1


class TestPrinting:
    @pytest.mark.parametrize(
        "value,text",
        [
            (G(0), "0"),
            (G(Fraction(1, 2)), "1/2"),
            (G(-3), "-3"),
            (G(0, 1), "i"),
            (G(0, -1), "-i"),
            (G(0, Fraction(2, 5)), "2/5i"),
            (G(0, -4), "-4i"),
            (G(1, 1), "1+i"),
            (G(1, -1), "1-i"),
            (G(Fraction(3, 4), Fraction(-2, 5)), "3/4-2/5i"),
            (G(Fraction(-1, 3), Fraction(1, 3)), "-1/3+1/3i"),
            (G(Fraction(1, 2), Fraction(1, 3)), "1/2+1/3i"),
        ],
    )
    def test_canonical_forms(self, value, text):
        assert format_scalar(value) == text

    def test_repr(self):
        assert repr(G(Fraction(1, 2), Fraction(1, 3))) == "GaussianRational(1/2, 1/3)"
        assert repr(G(-3, Fraction(-2, 7))) == "GaussianRational(-3, -2/7)"
        assert repr(G(0)) == "GaussianRational(0, 0)"

    def test_roundtrip_on_random_values(self):
        rng = random.Random(20260810)
        for _ in range(300):
            value = random_scalar(rng)
            assert parse_scalar(format_scalar(value)) == value


class TestArithmetic:
    def test_i_squared(self):
        assert G(0, 1) * G(0, 1) == G(-1)

    def test_rational_addition(self):
        assert G(Fraction(1, 2)) + G(Fraction(1, 3)) == G(Fraction(5, 6))

    def test_division_against_multiplication(self):
        # independent check first: (1, -1) * (0, 1) = (1, 1)
        assert G(1, -1) * G(0, 1) == G(1, 1)
        assert G(1, 1) / G(0, 1) == G(1, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            G(1, 1) / G(0)

    def test_conjugation_examples(self):
        assert G(0, 1).conjugate() == G(0, -1)
        assert G(Fraction(1, 2)).conjugate() == G(Fraction(1, 2))
        assert G(Fraction(3, 4), Fraction(-2, 5)).conjugate() == G(Fraction(3, 4), Fraction(2, 5))

    def test_field_axioms_randomized(self):
        rng = random.Random(1897)
        one = G(1)
        for _ in range(200):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            nz = random_scalar(rng, nonzero=True)
            assert nz * (one / nz) == one
            assert (a / nz) * nz == a

    def test_conj_is_ring_automorphism(self):
        rng = random.Random(42)
        for _ in range(200):
            a, b = random_scalar(rng), random_scalar(rng)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert a.conjugate().conjugate() == a

    def test_results_stay_reduced(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = random_scalar(rng), random_scalar(rng, nonzero=True)
            for value in (a + b, a - b, a * b, a / b):
                assert_canonical(value)

    @pytest.mark.parametrize(
        "value,expected",
        [
            # (1+2i)/2 + (1+2i)/2 = (2+4i)/2: no part-wise gcd of 2, 4 and 2 sees it
            (G(Fraction(1, 2), 1) + G(Fraction(1, 2), 1), G(1, 2)),
            (G(2, 4) / 2, G(1, 2)),
            # (3+2i)/6 * 3 = (9+6i)/6 = (3+2i)/2
            (3 * G(Fraction(1, 2), Fraction(1, 3)), G(Fraction(3, 2), 1)),
        ],
    )
    def test_three_way_gcd_reduces(self, value, expected):
        assert_canonical(value)
        assert value == expected and hash(value) == hash(expected)
        assert (value._a, value._b, value._d) == (expected._a, expected._b, expected._d)

    def test_int_and_fraction_operands(self):
        assert G(Fraction(1, 2)) + 1 == G(Fraction(3, 2))
        assert 2 * G(0, 1) == G(0, 2)
        assert G(1) - Fraction(1, 3) == G(Fraction(2, 3))
        assert 1 / G(0, 1) == G(0, -1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    def test_usable_as_dict_keys(self):
        table = {G(Fraction(1, 2), 1): "a"}
        assert table[G(Fraction(2, 4), 1)] == "a"

    def test_equal_real_values_are_one_dict_key(self):
        # a real value hashes like the equal int or Fraction
        assert len({G(1), 1}) == 1
        assert len({G(Fraction(1, 2)), Fraction(1, 2)}) == 1
        table = {1: "int", Fraction(1, 2): "half", G(1, -1): "complex"}
        assert table[G(1)] == "int"
        assert table[G(Fraction(2, 4))] == "half"
        assert table[G(Fraction(3, 3), Fraction(-2, 2))] == "complex"
        assert G(-1, 0) in {-1}
        assert G(Fraction(-7, 2**61 - 1)) in {Fraction(-7, 2**61 - 1)}


def assert_canonical(value):
    """value's triple (a, b, d), standing for (a + b*i)/d, has d > 0 and gcd(a, b, d) = 1."""
    assert value._d > 0
    assert math.gcd(value._a, value._b, value._d) == 1


def reference(value):
    """The (re, im) pair of Fractions that a scalar's triple stands for."""
    return Fraction(value._a, value._d), Fraction(value._b, value._d)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def assert_stands_for(value, expected):
    """value has the canonical triple, equality and hash of the Fraction pair expected."""
    assert reference(value) == expected
    assert (value.re, value.im) == expected
    assert_canonical(value)
    assert value == G(*expected) and hash(value) == hash(G(*expected))
    if expected[1] == 0:
        assert value == expected[0] and hash(value) == hash(expected[0])


class TestAgainstFractionPairs:
    """The int-triple arithmetic against a reference built from two Fractions."""

    def random_pair(self, rng):
        return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 15)) for _ in range(2))

    def test_random_expressions(self):
        rng = random.Random(2026)
        for _ in range(400):
            x, y = self.random_pair(rng), self.random_pair(rng)
            a, b = G(*x), G(*y)
            cases = [
                (a + b, (x[0] + y[0], x[1] + y[1])),
                (a - b, (x[0] - y[0], x[1] - y[1])),
                (a * b, ref_mul(x, y)),
                (a.conjugate(), (x[0], -x[1])),
                (-a, (-x[0], -x[1])),
            ]
            if b:
                cases.append((a / b, ref_div(x, y)))
            for value, expected in cases:
                assert_stands_for(value, expected)

    def test_unreduced_inputs_compare_and_hash_equal(self):
        a = G(Fraction(2, 4), Fraction(-6, 9))
        b = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "GaussianRational(1/2, -2/3)"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            G(1) / G(0)
        with pytest.raises(ZeroDivisionError):
            G(1) / 0
        with pytest.raises(ZeroDivisionError):
            1 / G(0)

    def test_float_operands_are_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(1, 0.5)
        with pytest.raises(TypeError):
            G(1) + 0.5
        with pytest.raises(TypeError):
            0.5 * G(1)
        assert G(1) != 1.0

    def test_mixed_operands(self):
        assert (G(1, 2) + 1).re == 2
        assert (2 * G(0, 1)).im == 2
        assert (1 / G(0, 1)).im == -1
        assert (Fraction(1, 2) - G(0, 1)) == G(Fraction(1, 2), -1)
        assert G(Fraction(1, 2)) == Fraction(1, 2)
        assert Fraction(1, 2) == G(Fraction(1, 2))
        assert G(3) / 6 == Fraction(1, 2)


def _gaussian_integer(rng):
    return Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6))


def _integer(rng):
    return Fraction(rng.randint(-6, 6)), Fraction(0)


def _real(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 4)), Fraction(0)


def _general(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 4)), Fraction(rng.randint(-12, 12), rng.randint(1, 4))


OPERAND_KINDS = {
    "gaussian_integer": _gaussian_integer,
    "integer": _integer,
    "real": _real,
    "general": _general,
}


class TestFastPaths:
    """Gaussian-integer, integer, real and general operands against Fraction pairs."""

    @pytest.mark.parametrize("left", OPERAND_KINDS)
    @pytest.mark.parametrize("right", OPERAND_KINDS)
    def test_arithmetic(self, left, right):
        rng = random.Random(f"{left}*{right}")
        for _ in range(150):
            x, y = OPERAND_KINDS[left](rng), OPERAND_KINDS[right](rng)
            a, b = G(*x), G(*y)
            cases = [
                (a + b, (x[0] + y[0], x[1] + y[1])),
                (a - b, (x[0] - y[0], x[1] - y[1])),
                (a * b, ref_mul(x, y)),
            ]
            if b:
                cases.append((a / b, ref_div(x, y)))
            for value, expected in cases:
                assert_stands_for(value, expected)
            assert (a == b) == (x == y)
            assert (a != b) == (x != y)
            assert_stands_for(a, x)

    @pytest.mark.parametrize("kind", OPERAND_KINDS)
    def test_int_and_fraction_operands(self, kind):
        rng = random.Random(f"plain:{kind}")
        for _ in range(150):
            x = OPERAND_KINDS[kind](rng)
            a = G(*x)
            c = rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-12, 12), rng.randint(1, 4))])
            y = (Fraction(c), Fraction(0))
            cases = [
                (a + c, (x[0] + c, x[1])),
                (c + a, (x[0] + c, x[1])),
                (a - c, (x[0] - c, x[1])),
                (c - a, (c - x[0], -x[1])),
                (a * c, ref_mul(x, y)),
                (c * a, ref_mul(x, y)),
            ]
            if c:
                cases.append((a / c, ref_div(x, y)))
            if a:
                cases.append((c / a, ref_div(y, x)))
            for value, expected in cases:
                assert_stands_for(value, expected)
            assert (a == c) == (x == y)


class TestBackends:
    def test_exact_coercion(self):
        assert EXACT.coerce("1/2-i") == G(Fraction(1, 2), -1)
        assert EXACT.coerce(3) == G(3)
        assert EXACT.coerce(Fraction(1, 3)) == G(Fraction(1, 3))
        with pytest.raises(BackendError):
            EXACT.coerce(0.5)

    def test_float_coercion(self):
        fb = float_backend()
        assert fb.coerce(1) == 1 + 0j
        assert fb.coerce("0.25") == 0.25 + 0j
        assert fb.coerce("-1e-3") == -0.001 + 0j
        assert fb.coerce(".5") == fb.coerce("5.e-1") == fb.coerce("1/2") == 0.5 + 0j
        assert fb.coerce("1/2-i") == 0.5 - 1j
        assert fb.coerce(G(Fraction(1, 4), -2)) == 0.25 - 2j

    @pytest.mark.parametrize(
        "value",
        [10**400, -(10**400), Fraction(10**400, 3), G(1, Fraction(10**400, 7)), "-1e400"],
        ids=["int", "negative-int", "fraction", "gaussian", "decimal-string"],
    )
    def test_float_coercion_overflow_is_a_backend_error(self, value):
        with pytest.raises(BackendError, match="too large for a float scalar"):
            float_backend().coerce(value)

    def test_float_equality_uses_tolerance(self):
        fb = float_backend(1e-9)
        assert fb.eq(1 + 0j, 1 + 1e-10j)
        assert not fb.eq(1 + 0j, 1 + 1e-8j)
        assert fb.is_zero(1e-12 + 0j)

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf, 1e-310, 5e-324])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValidationError, match="^tolerance"):
            float_backend(tolerance)

    def test_backend_identity(self):
        assert EXACT == EXACT
        assert float_backend(1e-9) == float_backend(1e-9)
        assert float_backend(1e-9) != float_backend(1e-6)
        assert EXACT != float_backend()
        # the default and an explicit 1e-9 are one backend, so a cache keyed
        # on the call arguments would not do
        assert float_backend() == float_backend(1e-9)
        assert hash(float_backend()) == hash(float_backend(1e-9))
        assert EXACT.tolerance == 0.0
        # these reprs appear in "backend mismatch" errors
        assert repr(EXACT) == "ScalarBackend('exact')"
        assert repr(float_backend()) == "ScalarBackend('float', tolerance=1e-09)"
        with pytest.raises(BackendError, match="^cannot coerce bool to an exact scalar$"):
            EXACT.coerce(True)
        with pytest.raises(BackendError, match="^cannot coerce bool to a float scalar$"):
            float_backend().coerce(False)

    def test_exact_backend_takes_no_tolerance(self):
        # an exact backend with a tolerance used to be accepted and then
        # crash in close_group
        with pytest.raises(TypeError):
            type(EXACT)(0.5)
        with pytest.raises(TypeError):
            ScalarBackend("exact", 0.5)
        # the base holds no field's rules, so it cannot be built on its own
        with pytest.raises(TypeError, match="not ScalarBackend"):
            ScalarBackend()

    def test_exact_pivot_through_the_instance(self):
        # no key function and no binding of the backend as an argument
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EXACT.pivot({3: GaussianRational(5), 7: GaussianRational(1)}) == 7
            assert EXACT.pivot({}) is None
