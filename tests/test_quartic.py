"""Binary quartics: discriminant, irreducibility over Q, and the exact
real and rational roots of univariate polynomials, against sympy."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from chatelet import quartic
from chatelet.quartic import (
    BinaryQuartic,
    evaluate_form,
    evaluate_quartic,
    form_resultant,
    quartic_disc,
    quartic_irreducible,
    rational_factors,
    rational_roots,
    real_root_intervals,
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


def _rational(q):
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


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


class TestEvaluateForm:
    """`evaluate_form`, the one Horner rule for binary forms, and at
    w = 1 for polynomials."""

    def test_against_sympy(self):
        rng = random.Random(23)
        for i in range(300):
            d = i % 7
            exact = i % 2 == 0
            coeffs = [rng.randint(-40, 40) if exact else
                      Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                      for _ in range(d + 1)]
            m = rng.randint(-30, 30) if exact else \
                Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            n = rng.choice((0, 1, rng.randint(-30, 30)))
            got = evaluate_form(coeffs, m, n)
            form = sum(_rational(c) * _x**k * _w**(d - k)
                       for k, c in enumerate(coeffs))
            want = sympy.Rational(form.subs({_x: _rational(m),
                                             _w: _rational(n)}))
            assert got == Fraction(int(want.p), int(want.q)), (coeffs, m, n)
            if exact:
                assert type(got) is int
            if d == 4:
                assert got == evaluate_quartic(coeffs, m, n)


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

    def test_against_sympy_factor_list(self):
        # forms built to factor or not in each way the test must see:
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) has no rational root;
        # x^4 - 10x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3, is
        # irreducible over Q but reducible modulo every prime; the
        # surfaces' (x^2 + c)(ax^2 + ac + 1); w | q; and seeded forms
        forms = [(4, 0, 0, 0, 1), (1, 0, -10, 0, 1), (1, 1, 1, 1, 0),
                 (0, 0, 1, 0, 0), (0, 0, 0, 0, 7), (2, 0, 0, 0, 0)]
        forms += [(c * (a * c + 1), 0, 2 * a * c + 1, 0, a)
                  for a in (1, 3, 41) for c in (-12, -2, 1, 12)]
        forms += [tuple(int(e.coeff(_x, i)) for i in range(5))
                  for e in (sympy.expand((_x**2 + 2) * (3 * _x**2 - 5)),
                            sympy.expand((_x**2 + _x + 1) * (_x**2 - 7)),
                            sympy.expand((2 * _x**2 - 1)**2),
                            sympy.expand((_x - 3)**2 * (_x**2 + 1)))]
        rng = random.Random(15)
        forms += [tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                        for _ in range(5)) for _ in range(400)]
        reducible = 0
        for coeffs in forms:
            if not any(coeffs):
                continue
            q = BinaryQuartic(coeffs)
            c = q.coeffs
            expected = False
            if c[4] != 0:
                poly = sympy.Poly([sympy.Rational(str(ci)) for ci in c[::-1]],
                                  _x, domain=sympy.QQ)
                _, factors = poly.factor_list()
                expected = len(factors) == 1 and factors[0][1] == 1
            assert quartic_irreducible(q) == expected, coeffs
            reducible += not expected
        assert 20 < reducible < len(forms) - 100


# primes near 2^40: the quartics (a1 x^2 + Q1)(a2 x^2 + Q2) take values
# past 2^64 at heights of a few dozen
Q1, Q2 = 1099511627791, 1099511627689


def _monic_factors(polys):
    """The univariate polynomials (coefficients low degree first) made
    monic over Q, as sorted strings."""
    return sorted(str(sympy.Poly(list(reversed(f)), _x, domain=sympy.QQ)
                      .monic().as_expr()) for f in polys)


class TestRationalFactors:
    """`rational_factors` against sympy's `factor_list` of the
    dehomogenized form; the form w carries the degree that it drops."""

    def _check(self, ints):
        k, forms = rational_factors(ints)
        for f in forms:
            assert len(f) >= 2 and math.gcd(*f) == 1, f
            assert next(c for c in reversed(f) if c) > 0, f
        assert forms == sorted(forms, key=lambda f: (len(f), f))
        product = [k]
        for f in forms:
            product = _mul(product, f)
        assert tuple(product) == tuple(ints)
        d = max(i for i, c in enumerate(ints) if c)
        assert forms.count((1, 0)) == 4 - d
        _, factors = sympy.Poly(list(reversed(ints[:d + 1])), _x,
                                domain=sympy.QQ).factor_list()
        want = [[int(c) for c in reversed(g.clear_denoms()[1].all_coeffs())]
                for g, e in factors for _ in range(e)]
        got = [f for f in forms if f != (1, 0)]
        assert _monic_factors(got) == _monic_factors(want), ints
        return k, forms

    def test_examples(self):
        assert rational_factors((5916, 0, 985, 0, 41)) == (
            1, [(12, 0, 1), (493, 0, 41)])
        # x^4 + 4 splits into two quadratics without a rational root
        assert rational_factors((4, 0, 0, 0, 1)) == (
            1, [(2, -2, 1), (2, 2, 1)])
        # content, two linear factors and an irreducible quadratic
        assert rational_factors((-6, 0, 0, 0, 6)) == (
            6, [(-1, 1), (1, 1), (1, 0, 1)])
        # w | q: the form w = (1, 0)
        assert rational_factors((1, 1, 1, 1, 0)) == (
            1, [(1, 0), (1, 1), (1, 0, 1)])
        assert rational_factors((1, 0, -10, 0, 1)) == (
            1, [(1, 0, -10, 0, 1)])

    def test_against_sympy_factor_list(self):
        rng = random.Random(16)
        forms = [(4, 0, 0, 0, 1), (1, 0, -10, 0, 1), (1, 1, 1, 1, 0),
                 (0, 0, 1, 0, 0), (0, 0, 0, 0, 7), (2, 0, 0, 0, 0),
                 (-6, 0, 0, 0, 6), (2, 1, 9, 4, 4), (4, 0, -4, 0, 1)]
        # the surfaces past 2^64 of the scan tests
        forms += [(Q1 * Q2, 0, a1 * Q2 + a2 * Q1, 0, a1 * a2)
                  for a1, a2 in ((3, 7), (7, 3), (3, 11))]
        shapes = ((1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1), (4,), (3,),
                  (2,), (1, 2))
        for i in range(240):
            # k times random factors of the given degrees; a product of
            # degree below 4 gets a power of w, so c4 = 0
            f = [rng.choice((1, -1, 2, -3, 6, 12))]
            for d in shapes[i % len(shapes)]:
                g = [rng.randint(-6, 6) for _ in range(d)]
                f = _mul(f, g + [rng.choice((1, 2, 3, 5, -4))])
            forms.append(tuple(f + [0] * (5 - len(f))))
        seen = {"linear": 0, "content": 0, "w": 0, "quadratic-pair": 0}
        for ints in forms:
            k, fs = self._check(ints)
            seen["linear"] += any(len(f) == 2 and f != (1, 0) for f in fs)
            seen["content"] += abs(k) > 1
            seen["w"] += (1, 0) in fs
            seen["quadratic-pair"] += ([len(f) for f in fs] == [3, 3]
                                       and fs[0][2] * fs[1][2] > 1)
        assert min(seen.values()) >= 20, seen


def _sympy_resultant(f, g):
    """Res(f, g) of two binary forms (coefficients low x-degree first),
    from sympy's `resultant` in x.  The substitution w -> w + c x has
    determinant 1, so it leaves the resultant unchanged; c is chosen so
    that both forms keep their full degree in x, where the resultant of
    the forms is that of their values at w = 1.  sympy is given the form
    of larger degree first, and the swap's sign (-1)^(d e) applied: with
    the smaller first it returned -680 for Res(x - 9, 2x^3 - 9x^2 - 6x
    + 5), whose Sylvester determinant is 680."""
    d, e = len(f) - 1, len(g) - 1
    for c in range(d + e + 1):
        F = sympy.Poly(sum(a * _x**k * (1 + c * _x)**(d - k)
                           for k, a in enumerate(f)), _x)
        G = sympy.Poly(sum(b * _x**k * (1 + c * _x)**(e - k)
                           for k, b in enumerate(g)), _x)
        if F.degree() == d and G.degree() == e:
            if d < e:
                return (-1) ** (d * e) * int(sympy.resultant(G, F))
            return int(sympy.resultant(F, G))
    raise AssertionError("no substitution keeps both degrees")


class TestResultant:
    """`form_resultant` and its Bareiss determinant, against sympy; the
    places of the scan's reciprocity rule rest on them."""

    PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2))

    def _form(self, rng, d):
        f = [rng.randint(-9, 9) for _ in range(d)]
        return tuple(f + [rng.choice((-5, -3, -1, 1, 2, 4))])

    def test_against_sympy(self):
        rng = random.Random(24)
        seen = {"content": 0, "negative": 0, "zero": 0, "w | f": 0}
        for i in range(200):
            d, e = self.PAIRS[i % 4]
            f, g = self._form(rng, d), self._form(rng, e)
            if i % 5 == 0:
                f = tuple(6 * c for c in f)
            if i % 5 == 2:
                # w times a form of degree d - 1: the x^d coefficient is
                # 0, so the elimination must swap rows
                f = self._form(rng, d - 1) + (0,)
            if i % 7 == 0:
                # a shared factor h: f = h f', g = h g'
                h = self._form(rng, 1)
                f = tuple(_mul(list(h), list(self._form(rng, d - 1)))) \
                    if d > 1 else h
                g = tuple(_mul(list(h), list(self._form(rng, e - 1))))
            res = form_resultant(f, g)
            assert res == _sympy_resultant(f, g), (f, g)
            seen["content"] += math.gcd(*f) > 1 and res != 0
            seen["negative"] += f[-1] < 0 or g[-1] < 0
            seen["zero"] += res == 0
            seen["w | f"] += f[-1] == 0 and res != 0
        assert min(seen.values()) >= 20, seen

    def test_examples(self):
        w = (1, 0)
        # Res(w, g) = +-g(0, 1), the leading x-coefficient of g
        for g in ((3, 5), (1, 2, -7), (4, 0, 0, 5), (-2, 1, 1)):
            assert form_resultant(w, g) == _sympy_resultant(w, g) != 0
        assert form_resultant((12, 0, 1), (493, 0, 41)) == 1
        # x^2 - w^2 and x - w share x - w
        assert form_resultant((-1, 0, 1), (-1, 1)) == 0

    def test_determinant_against_sympy(self):
        rng = random.Random(25)
        swaps = singular = 0
        for i in range(300):
            n = 1 + i % 6
            rows = [[rng.randint(-20, 20) for _ in range(n)]
                    for _ in range(n)]
            if i % 3 == 0 and n > 1:
                rows[0][0] = 0  # the first pivot needs a row swap
                swaps += 1
            if i % 4 == 0 and n > 1:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
                singular += 1
            want = int(sympy.Matrix(rows).det())
            assert quartic._determinant(rows) == want, rows
        assert swaps >= 20 and singular >= 20
        # one swap, and a zero column
        assert quartic._determinant([[0, 1], [1, 0]]) == -1
        assert quartic._determinant([[0, 2, 1], [0, 3, 4], [0, 5, 6]]) == 0


def _mul(f, g):
    """The product of two polynomials, low degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_polys(rng, count):
    """Seeded integer quartics and sextics, a third of them with planted
    rational roots, some repeated."""
    polys = []
    while len(polys) < count:
        degree = rng.choice((4, 6))
        f = [rng.randint(-20, 20) for _ in range(degree + 1)]
        if rng.random() < 0.35:
            for _ in range(rng.randint(1, 2)):
                p, q = rng.randint(-9, 9), rng.randint(1, 6)
                f = _mul(f[:-1], [-p, q])  # degree stays the same
        if any(f):
            polys.append(f)
    return polys


def _close_roots(H):
    """Polynomials with two roots closer together than 1/H^2: the
    rational 1/(3H^2) and 2/(3H^2), and the irrational roots
    (M +- sqrt 2)/N of (N x - M)^2 - 2 with N = 4 H^2, times other
    factors."""
    N, M = 4 * H * H, 3 * H * H + 1
    close = [M * M - 2, -2 * N * M, N * N]
    rational = _mul(_mul([-2, 0, 1], [-1, 3 * H * H]), [-2, 3 * H * H])
    return [rational, _mul(close, [-1, -2, 3]), _mul(close, [5, 0, -1, 0, 1])]


def _check_isolation(coeffs, intervals, eps=None):
    """The contract of `real_root_intervals`, against sympy: one interval
    per distinct real root (as many as `Poly.intervals` finds), closed
    [lo, hi] in increasing order, disjoint except for shared ends, and
    each holding exactly one root (sympy's Sturm count on the closed
    interval), so together all of them; width at most eps."""
    poly = sympy.Poly(list(reversed(coeffs)), _x).sqf_part()
    assert len(intervals) == len(poly.intervals()), coeffs
    for lo, hi in intervals:
        assert lo <= hi
        if eps is not None:
            assert hi - lo <= eps
        assert poly.count_roots(sympy.Rational(str(lo)),
                                sympy.Rational(str(hi))) == 1, (coeffs, lo)
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi <= lo, coeffs


def _refined(coeffs, eps):
    """The intervals refined to width at most eps, as `rational_roots`
    refines them."""
    return quartic._root_intervals(quartic._squarefree(coeffs), eps)


class TestRealRootIntervals:
    def test_against_sympy(self):
        rng = random.Random(16)
        for i, f in enumerate(_random_polys(rng, 300)):
            _check_isolation(f, real_root_intervals(f))
            eps = Fraction(1, 10**6) if i % 2 else Fraction(1, 7)
            _check_isolation(f, _refined(f, eps), eps)

    def test_fractions_and_low_degree(self):
        # Fraction coefficients, a zero root, leading zeros, constants
        for f in ([Fraction(1, 2), 0, Fraction(-3, 7)], [0, 1, 0, 0, 0],
                  [0, -3, 1, 0, 0], [5], [0, 0, 0, 0, Fraction(1, 3)],
                  [-1, 0, 1, 0, 0, 0, 0]):
            _check_isolation(f, real_root_intervals(f))
        assert real_root_intervals([0, 1, 0]) == [(0, 0)]
        with pytest.raises(ValueError):
            real_root_intervals([0, 0, 0])

    def test_close_roots(self):
        H = 1000
        eps = Fraction(1, (H + 1) ** 2)
        for f in _close_roots(H):
            _check_isolation(f, real_root_intervals(f))
            _check_isolation(f, _refined(f, eps), eps)

    def test_rational_root_may_be_a_point(self):
        # roots met as midpoints of the bisection, and the root 0
        assert real_root_intervals([2, -3, 1]) == [(1, 1), (2, 2)]
        assert real_root_intervals([0, -1, 0, 1]) == [(-1, -1), (0, 0),
                                                      (1, 1)]

    def test_dropped_root_fails(self, monkeypatch):
        # an isolation that drops the first root on each side of 0 must
        # not pass the oracle that the tests above rely on
        real = quartic._unit_intervals
        monkeypatch.setattr(quartic, "_unit_intervals",
                            lambda g: real(g)[1:])
        f = [-6, 0, 5, 0, -1]  # -(x^2 - 2)(x^2 - 3)
        with pytest.raises(AssertionError):
            _check_isolation(f, real_root_intervals(f))


class TestRationalRoots:
    def test_against_sympy(self):
        rng = random.Random(17)
        polys = _random_polys(rng, 300) + _close_roots(1000)
        for f in polys:
            poly = sympy.Poly(list(reversed(f)), _x)
            expected = sorted(Fraction(int(r.p), int(r.q))
                              for r in poly.ground_roots())
            assert rational_roots(f) == expected, f

    def test_large_leading_coefficient(self):
        # roots p/q with q | a for a of 40 digits
        a = 10**40 + 1
        f = _mul(_mul([3, 0, 1], [-7, a]), [5, 1])
        assert rational_roots(f) == [Fraction(-5), Fraction(7, a)]
