"""Binary quartic forms over Q: evaluation, the integer model, the
discriminant, irreducibility and the real roots.

A Chatelet surface y^2 - alpha z^2 = P(x) is stored through the binary
quartic P~(w, x) = w^4 P(x / w), whose coefficients are those of P;
`BinaryQuartic` is the package's one quartic type and its affine value
P(x) = P~(1, x) is ``q(x)``.  `evaluate_quartic` is the one formula for
its value: the form's methods call it on Fractions and the fiber scan of
`chatelet._kernel.pure` calls it on the integer model.
`real_root_intervals` is the one real-root isolation and `sign_points`
the one walk over its intervals: one rational point on each piece of the
real line where P has one sign.  The real-place sweep of
`chatelet.surface` certifies one of these points, and the scan's real
sieve reads them through `negative_segments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import sympy

from chatelet.numbers import Rational, partial_factorize

__all__ = ["BinaryQuartic", "evaluate_quartic", "negative_segments",
           "quartic_disc", "quartic_irreducible", "real_root_intervals",
           "sign_points"]


def evaluate_quartic(coeffs, m, n):
    """Binary quartic sum(c_i * x^i * w^(4-i)) at (w, x) = (n, m), by an
    unrolled binary Horner rule.  Integer inputs stay in int arithmetic;
    Fraction inputs give a Fraction."""
    c0, c1, c2, c3, c4 = coeffs
    return (((c4 * m + c3 * n) * m + c2 * n * n) * m
            + c1 * n**3) * m + c0 * n**4


@dataclass(frozen=True)
class BinaryQuartic:
    """Form sum coeffs[i] * x^i * w^(4-i), not identically 0."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(c) for c in self.coeffs))
        if len(self.coeffs) != 5:
            raise ValueError("need exactly 5 coefficients")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("form is identically zero")

    def value(self, w: Rational, x: Rational) -> Fraction:
        return evaluate_quartic(self.coeffs, x, w)

    def __call__(self, x: Rational) -> Fraction:
        """The affine value P(x) = form(1, x)."""
        return evaluate_quartic(self.coeffs, x, 1)

    @cached_property
    def integer_square_scaled(self) -> tuple[int, ...]:
        """Integer coefficients obtained by scaling with a rational SQUARE,
        so every value keeps its square class.  The square part of the
        content, as far as `partial_factorize` finds it, is removed to
        keep the numbers small.  Computed once per form."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den * den) for c in self.coeffs]
        s = 1
        for p, e in partial_factorize(math.gcd(*ints))[0]:
            s *= p ** (e // 2)
        return tuple(c // (s * s) for c in ints)


def quartic_disc(q: BinaryQuartic) -> Fraction:
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


def real_root_intervals(coeffs, eps=None) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of P(x) = form(1, x), by
    sympy's exact isolation: closed intervals [lo, hi] with rational
    ends, in increasing order and pairwise disjoint except that
    neighbours may share an end, each holding exactly one root and
    together all of them.  A rational root may come as [r, r].  With
    eps, each interval is refined to width at most eps."""
    poly = sympy.Poly(list(reversed(coeffs)), _X)
    return sorted((Fraction(lo), Fraction(hi))
                  for (lo, hi), _mult in poly.intervals(eps=eps))


def sign_points(coeffs, eps=None) -> list[tuple[Optional[Fraction],
                                               Fraction,
                                               Optional[Fraction]]]:
    """One rational point on each piece of the real line where
    P(x) = form(1, x) has one sign, as triples (left, x, right) in
    increasing order; None stands for -oo or +oo.

    The pieces come from the intervals of `real_root_intervals(coeffs,
    eps)`: each open segment (left, right) between or beyond them, with
    x inside it, and each end x that two neighbouring intervals share,
    given as (x, x, x).  No root lies on a piece: a segment avoids every
    interval, and a shared end that were a root would be the one root of
    both intervals.  So a shared end lies strictly between its two
    roots, and when the roots of P are simple, so that P changes sign at
    each of them, every region where P has one sign holds a piece.
    """
    ends: list[Optional[Fraction]] = [None]
    for lo, hi in real_root_intervals(coeffs, eps):
        ends += [lo, hi]
    ends.append(None)
    points = []
    for left, right in zip(ends[::2], ends[1::2]):
        if left is None:
            inside = Fraction(0) if right is None else right - 1
        elif right is None:
            inside = left + 1
        else:
            inside = (left + right) / 2
        points.append((left, inside, right))
    return points


def negative_segments(coeffs, eps) -> list[tuple[Optional[Fraction],
                                                 Optional[Fraction]]]:
    """The open segments (left, right) of `sign_points(coeffs, eps)` on
    which P(x) = form(1, x) is negative, in increasing order; None stands
    for -oo or +oo.  P has one sign on a segment, read from one exact
    evaluation at its point; a shared end is not a segment.
    """
    return [(left, right) for left, x, right in sign_points(coeffs, eps)
            if (left is None or right is None or left < right)
            and evaluate_quartic(coeffs, x, 1) < 0]


def quartic_irreducible(q: BinaryQuartic) -> bool:
    """Is the form irreducible in Q[w, x]?

    w | q (the root at infinity) is checked directly, since the
    dehomogenization drops it; every other factor, linear or quadratic,
    is found by the complete factorization of the integer model's
    dehomogenization.  Neither depends on the model's content or sign.
    """
    ints = q.integer_square_scaled
    if ints[4] == 0:
        return False  # w divides the form
    poly = sympy.Poly(list(reversed(ints)), _X)
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1
