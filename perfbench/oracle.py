"""Closed-form Molien series used as the benchmark's independent oracle.

Nothing here imports molien: every series is built from integer
polynomials with fractions.Fraction arithmetic only.

* Reflection groups have polynomial invariant rings (Chevalley), so their
  Molien series is prod_i 1/(1 - lambda^{d_i}) over the basic degrees d_i
  (Stanley, Bull. AMS 1979). Used for S_n, G(m,p,n), H3 and D_m.
* Q8 and the binary tetrahedral group 2T on C^2 are not reflection
  groups; their series are Sloane's closed forms (Amer. Math. Monthly
  1977): (1 + l^6)/(1 - l^4)^2 and (1 + l^12)/((1 - l^6)(1 - l^8)).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def expand(numerator: dict, denominator_degrees, order: int) -> list[int]:
    """Coefficients a_0..a_order of numerator(l) / prod_i (1 - l^{d_i}).

    numerator maps exponents to integer coefficients.
    """
    coeffs = [Fraction(0)] * (order + 1)
    for k, c in numerator.items():
        if k <= order:
            coeffs[k] += c
    for d in denominator_degrees:
        # multiply by 1/(1 - l^d) = 1 + l^d + l^{2d} + ...: a running sum with stride d
        for k in range(d, order + 1):
            coeffs[k] += coeffs[k - d]
    for k, c in enumerate(coeffs):
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} at degree {k}")
    return [int(c) for c in coeffs]


def expand_fraction(numerator, denominator, order: int) -> list[Fraction]:
    """Power series of numerator/denominator (coefficient lists, denominator[0] != 0)."""
    den = [Fraction(c) for c in denominator]
    num = [Fraction(c) for c in numerator]
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


class ClosedForm:
    """A group's order and Molien series as numerator / prod (1 - l^{d_i})."""

    def __init__(self, name: str, order: int, degrees, numerator=None):
        self.name = name
        self.order = order
        self.degrees = tuple(degrees)
        self.numerator = dict(numerator or {0: 1})

    def series(self, max_degree: int) -> list[int]:
        return expand(self.numerator, self.degrees, max_degree)

    def check_order(self) -> None:
        """|G| from the closed form: prod d_i / numerator(1) (Molien's pole at l = 1)."""
        at_one = sum(self.numerator.values())
        if Fraction(prod(self.degrees), at_one) != self.order:
            raise ArithmeticError(f"{self.name}: closed form does not give |G| = {self.order}")


def symmetric(n: int) -> ClosedForm:
    """S_n permuting coordinates of C^n: degrees 1, 2, ..., n."""
    return ClosedForm(f"S{n}", prod(range(1, n + 1)), range(1, n + 1))


def imprimitive(m: int, p: int, n: int) -> ClosedForm:
    """G(m,p,n): degrees m, 2m, ..., (n-1)m and nm/p; order m^n n!/p."""
    if m % p:
        raise ValueError("p must divide m")
    degrees = [k * m for k in range(1, n)] + [n * m // p]
    order = m**n * prod(range(1, n + 1)) // p
    return ClosedForm(f"G({m},{p},{n})", order, degrees)


def dihedral(m: int) -> ClosedForm:
    """D_m of order 2m acting on R^2: degrees 2 and m."""
    return ClosedForm(f"D{m}", 2 * m, (2, m))


def h3() -> ClosedForm:
    """Icosahedral reflection group H3 of order 120: degrees 2, 6, 10."""
    return ClosedForm("H3", 120, (2, 6, 10))


def q8() -> ClosedForm:
    """Quaternion group Q8 on C^2: (1 + l^6)/(1 - l^4)^2."""
    return ClosedForm("Q8", 8, (4, 4), {0: 1, 6: 1})


def binary_tetrahedral() -> ClosedForm:
    """Binary tetrahedral group 2T on C^2: (1 + l^12)/((1 - l^6)(1 - l^8))."""
    return ClosedForm("2T", 24, (6, 8), {0: 1, 12: 1})
