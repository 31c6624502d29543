"""Binary quartics: discriminant and irreducibility over Q."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from chatelet.quartic import (
    BinaryQuartic,
    quartic_disc,
    quartic_irreducible,
)

_x = sympy.Symbol("x")
_w = sympy.Symbol("w")


def _sympy_form(coeffs):
    """sympy's expansion of sum c_i x^i w^(4-i), as a Poly in (x, w)."""
    form = sum(sympy.Rational(c.numerator, c.denominator)
               * _x**i * _w ** (4 - i)
               for i, c in enumerate(coeffs))
    return sympy.Poly(sympy.expand(form), _x, _w)


def _random_forms(seed, count=200):
    """`count` seeded nonzero forms with Fraction coefficients, some zero
    (so the degree in x and in w varies)."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        coeffs = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                       if rng.random() < 0.8 else Fraction(0)
                       for _ in range(5))
        if any(coeffs):
            forms.append(BinaryQuartic(coeffs))
    return forms


def _sympy_value(poly, w, x):
    """poly at (x, w), both given as int or Fraction, as a Fraction."""
    w, x = Fraction(w), Fraction(x)
    value = poly(sympy.Rational(x.numerator, x.denominator),
                 sympy.Rational(w.numerator, w.denominator))
    return Fraction(int(value.p), int(value.q))


def _sympy_disc(coeffs):
    form = sum(sympy.Rational(c.numerator, c.denominator)
               * _x**i * _w ** (4 - i)
               for i, c in enumerate(coeffs))
    return sympy.discriminant(sympy.Poly(form.subs(_w, 1), _x))


class TestPoly4:
    """The affine value P(x) = P~(1, x) of a form, ``q(x)``."""

    def test_eval(self):
        P = BinaryQuartic((5916, 0, 985, 0, 41))
        assert P(0) == 5916
        assert P(1) == 6942
        assert P(Fraction(1, 2)) == Fraction(5916) + Fraction(985, 4) \
            + Fraction(41, 16)
        # against sympy's expansion, at integer and rational x
        rng = random.Random(21)
        for q in _random_forms(22):
            poly = _sympy_form(q.coeffs)
            for x in (0, 1, rng.randint(-50, 50),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 50))):
                got = q(x)
                assert isinstance(got, Fraction)
                assert got == _sympy_value(poly, 1, x)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            BinaryQuartic((0, 0, 0, 0, 0))


class TestHomogenize:
    """The projective value P~(w, x) and its affine chart."""

    def test_value_at_affine_chart(self):
        q = BinaryQuartic((-6, 0, 5, 0, -1))
        for x in (0, 1, Fraction(-3, 2)):
            assert q.value(1, x) == q(x) == (x * x - 2) * (3 - x * x)
        # against sympy's expansion, at (1, 0), (0, 1) and integer and
        # rational (w, x)
        rng = random.Random(23)
        for q in _random_forms(24):
            poly = _sympy_form(q.coeffs)
            points = [(1, 0), (0, 1),
                      (rng.randint(-40, 40), rng.randint(-40, 40)),
                      (Fraction(rng.randint(-40, 40), rng.randint(1, 40)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 40)))]
            for w, x in points:
                assert q.value(w, x) == _sympy_value(poly, w, x)

    def test_scaling_homogeneity(self):
        q = BinaryQuartic((1, -2, 0, 7, 3))
        assert q.value(2 * 5, 3 * 5) == 5**4 * q.value(2, 3)


class TestIntegerModels:
    def test_square_scaled_preserves_classes(self):
        q = BinaryQuartic((Fraction(2, 9), 0, 0, 0, Fraction(8)))
        ints = q.integer_square_scaled
        model = BinaryQuartic(ints)
        for (w, x) in ((1, 1), (2, 3), (1, 0), (0, 1)):
            a = q.value(w, x)
            b = model.value(w, x)
            ratio = b / a
            r = Fraction(ratio)
            assert r > 0
            assert math.isqrt(r.numerator) ** 2 == r.numerator
            assert math.isqrt(r.denominator) ** 2 == r.denominator


class TestDiscriminant:
    def test_known_values(self):
        assert quartic_disc(BinaryQuartic((1, 0, 0, 0, 1))) == 256
        assert quartic_disc(BinaryQuartic((5916, 0, 985, 0, 41))) == 3880896
        assert quartic_disc(BinaryQuartic((-6, 0, 5, 0, -1))) == 96

    def test_repeated_root_vanishes(self):
        # (x - w)^2 (x + 2w)(x - 3w)
        e = sympy.expand((_x - _w) ** 2 * (_x + 2 * _w) * (_x - 3 * _w))
        coeffs = [e.coeff(_x, i).coeff(_w, 4 - i) for i in range(5)]
        assert quartic_disc(BinaryQuartic(tuple(int(c) for c in coeffs))) == 0

    def test_matches_sympy_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            coeffs = tuple(Fraction(rng.randint(-30, 30),
                                    rng.randint(1, 9))
                           for _ in range(5))
            if all(c == 0 for c in coeffs):
                continue
            q = BinaryQuartic(coeffs)
            if coeffs[4] != 0:
                expected = Fraction(int(_sympy_disc(coeffs).p),
                                    int(_sympy_disc(coeffs).q))
                assert quartic_disc(q) == expected

    def test_reversal_symmetry(self):
        # disc is invariant under (w, x) swap, covering the deg < 4 case
        rng = random.Random(12)
        for _ in range(100):
            coeffs = tuple(rng.randint(-20, 20) for _ in range(5))
            if all(c == 0 for c in coeffs):
                continue
            q = BinaryQuartic(coeffs)
            r = BinaryQuartic(tuple(reversed(coeffs)))
            assert quartic_disc(q) == quartic_disc(r)


def _divisor_pairs(n):
    """All (d, n // d) with d > 0 over both signs of the cofactor."""
    n = abs(n)
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out.append(d)
    return out


def _bruteforce_irreducible(ints):
    """Independent oracle: search every factorization into two integer
    binary forms of degrees (1,3) or (2,2).

    By Gauss's lemma a primitive integer form reducible over Q factors
    over Z.  The x-extreme coefficients of the factors multiply to
    ints[4] and the w-extreme ones to ints[0], so only divisors need
    enumeration there; middle coefficients are swept over a Mignotte-
    style bound.  Assumes ints[4] != 0 and ints[0] != 0 (degenerate
    forms with a w or x factor are trivially reducible).
    """
    assert ints[4] != 0 and ints[0] != 0
    # linear factor a1 x + b1 w  <=>  root (w : x) = (a1 : -b1)
    for a1 in _divisor_pairs(ints[4]):
        for b1 in _divisor_pairs(ints[0]):
            for s in (1, -1):
                val = sum(c * (-s * b1) ** i * a1 ** (4 - i)
                          for i, c in enumerate(ints))
                if val == 0:
                    return False
    # quadratic split (a x^2 + b x w + c w^2) * (...)
    B = 4 * int(math.isqrt(sum(c * c for c in ints))) + 4
    for a in _divisor_pairs(ints[4]):
        for c0 in _divisor_pairs(ints[0]):
            for sc in (1, -1):
                c = sc * c0
                for b in range(-B, B + 1):
                    if _divides_quadratic(ints, c, b, a):
                        return False
    return True


def _divides_quadratic(ints, c0, c1, c2):
    """Exact division of the quartic form by c2 x^2 + c1 x w + c0 w^2."""
    rem = [Fraction(c) for c in ints]
    for i in (4, 3, 2):
        f = rem[i] / c2
        rem[i] = Fraction(0)
        rem[i - 1] -= f * c1
        rem[i - 2] -= f * c0
    return rem[0] == 0 and rem[1] == 0


class TestIrreducibility:
    def test_examples(self):
        assert quartic_irreducible(BinaryQuartic((1, 0, 0, 0, 1)))
        assert not quartic_irreducible(BinaryQuartic((-1, 0, 0, 0, 1)))
        # the constructed surface's quartic is reducible by design
        assert not quartic_irreducible(
            BinaryQuartic((5916, 0, 985, 0, 41)))

    def test_w_and_x_factors(self):
        assert not quartic_irreducible(BinaryQuartic((1, 1, 1, 1, 0)))
        assert not quartic_irreducible(BinaryQuartic((0, 1, 1, 1, 1)))

    def test_planted_factorizations(self):
        rng = random.Random(13)
        planted = 0
        while planted < 60:
            k = rng.choice([1, 2])
            if k == 1:
                f = [rng.randint(-4, 4), rng.randint(1, 4)]
                g = [rng.randint(-4, 4) for _ in range(3)] + [rng.randint(1, 4)]
            else:
                f = [rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)]
                g = [rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)]
            fe = sum(c * _x**i for i, c in enumerate(f))
            ge = sum(c * _x**i for i, c in enumerate(g))
            e = sympy.expand(fe * ge)
            coeffs = tuple(int(e.coeff(_x, i)) for i in range(5))
            if coeffs[4] == 0:
                continue
            planted += 1
            assert not quartic_irreducible(BinaryQuartic(coeffs))

    def test_against_bruteforce_oracle(self):
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            coeffs = tuple(rng.randint(-3, 3) for _ in range(5))
            if coeffs[4] == 0 or coeffs[0] == 0:
                continue
            q = BinaryQuartic(coeffs)
            assert quartic_irreducible(q) == _bruteforce_irreducible(coeffs)
            checked += 1
