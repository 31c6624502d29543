"""Degree-<=4 polynomials, binary quartic forms, discriminants and
irreducibility over Q."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from chatelet.numbers import Rational, horner, partial_factorize

__all__ = ["Poly4", "BinaryQuartic", "homogenize", "quartic_disc",
           "quartic_irreducible"]


def _fracs(coeffs) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


@dataclass(frozen=True)
class Poly4:
    """P(x) = sum coeffs[i] * x^i, degree at most 4, not identically 0."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _fracs(self.coeffs))
        if len(self.coeffs) != 5:
            raise ValueError("need exactly 5 coefficients c0..c4")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("polynomial is identically zero")

    def __call__(self, x: Rational) -> Fraction:
        return horner(self.coeffs, x)

    def degree(self) -> int:
        return max(i for i, c in enumerate(self.coeffs) if c != 0)


@dataclass(frozen=True)
class BinaryQuartic:
    """Form sum coeffs[i] * x^i * w^(4-i), not identically 0."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _fracs(self.coeffs))
        if len(self.coeffs) != 5:
            raise ValueError("need exactly 5 coefficients")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("form is identically zero")

    def value(self, w: Rational, x: Rational) -> Fraction:
        w = Fraction(w)
        x = Fraction(x)
        return sum((c * x**i * w ** (4 - i)
                    for i, c in enumerate(self.coeffs)), Fraction(0))

    def dehomogenize(self) -> Poly4:
        """P(x) = form(1, x)."""
        return Poly4(self.coeffs)

    def integer_primitive(self) -> tuple[int, ...]:
        """Integer coefficient vector with content 1 and positive leading
        nonzero coefficient, spanning the same form up to Q* scaling."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        lead = next(c for c in reversed(ints) if c != 0)
        if lead < 0:
            ints = [-c for c in ints]
        return tuple(ints)

    def scale(self, s: Rational) -> "BinaryQuartic":
        return BinaryQuartic(tuple(c * Fraction(s) for c in self.coeffs))

    def integer_square_scaled(self) -> tuple[int, ...]:
        """Integer coefficients obtained by scaling with a rational SQUARE,
        so every value keeps its square class.  The square part of the
        content, as far as `partial_factorize` finds it, is removed to
        keep the numbers small."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den * den) for c in self.coeffs]
        s = 1
        for p, e in partial_factorize(math.gcd(*ints))[0]:
            s *= p ** (e // 2)
        return tuple(c // (s * s) for c in ints)


def homogenize(P: Poly4) -> BinaryQuartic:
    """P~(w, x) = w^4 * P(x/w); satisfies P~(1, x) = P(x)."""
    return BinaryQuartic(P.coeffs)


def quartic_disc(q: BinaryQuartic | Poly4) -> Fraction:
    """Discriminant of the binary quartic form.

    Zero exactly when the form has a repeated root in P^1 over the
    algebraic closure (roots at infinity included).
    """
    return disc_from_coeffs(q.coeffs)


def disc_from_coeffs(coeffs):
    """The standard degree-6 integer polynomial in the coefficients
    c0..c4 of sum c_i x^i w^(4-i).  Ring-agnostic: the coefficients may
    be Fractions or sympy expressions."""
    e, d, c, b, a = coeffs
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
        - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
        + 18 * a * b * c * d**3 + 16 * a * c**4 * e
        - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3
        - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2
    )


_X = sympy.Symbol("x")


def quartic_irreducible(q: BinaryQuartic) -> bool:
    """Is the form irreducible in Q[w, x]?

    w | q (the root at infinity) is checked directly, since the
    dehomogenization drops it; every other factor, linear or quadratic,
    is found by the complete factorization of the integer-scaled
    dehomogenization.
    """
    ints = q.integer_primitive()
    if ints[4] == 0:
        return False  # w divides the form
    poly = sympy.Poly(list(reversed(ints)), _X)
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1

