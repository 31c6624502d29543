"""Exact integer/rational arithmetic layer."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet import numbers as numbers_mod
from chatelet.numbers import (
    _perfect_power,
    OutOfCertifiedRangeError,
    factorize,
    is_prime,
    legendre,
    partial_factorize,
    sqrt_mod,
    square_class,
    squarefree_part,
    valuation,
)


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
        for n in range(45):
            assert is_prime(n) == (n in primes)

    def test_against_sympy(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randrange(2, 10**12)
            assert is_prime(n) == sympy.isprime(n)

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 1729, 3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)

    def test_beyond_certified_range(self):
        # a composite past 2^64 is proven so by a small prime or a
        # Miller-Rabin witness; only a probable prime raises
        assert not is_prime(2**64)
        assert not is_prime(2**65)
        assert not is_prime((2**61 - 1) * (2**31 - 1))
        with pytest.raises(OutOfCertifiedRangeError):
            is_prime(2**64 + 13)


def _value(pairs):
    return math.prod(p**e for p, e in pairs)


def _proofs(monkeypatch, n):
    """The numbers that `is_prime` is asked about while factoring n."""
    asked = []
    real = numbers_mod.is_prime

    def counting(m):
        asked.append(m)
        return real(m)

    monkeypatch.setattr(numbers_mod, "is_prime", counting)
    factorize(n)
    return asked


class TestFactorize:
    def test_example(self):
        f = factorize(5916)
        assert f == ((2, 2), (3, 1), (17, 1), (29, 1))
        assert _value(f) == 5916

    def test_roundtrip_random(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randrange(2, 10**9)
            f = factorize(n)
            assert _value(f) == n
            primes = [p for p, _ in f]
            assert all(is_prime(p) for p in primes)
            assert primes == sorted(set(primes))
            assert all(e > 0 for _, e in f)

    def test_semiprime_of_large_primes(self):
        p, q = 1000003, 1000033
        f = factorize(p * q)
        assert f == ((p, 1), (q, 1))

    def test_one(self):
        assert factorize(1) == ()

    def test_each_prime_proven_once(self, monkeypatch):
        # rho splits p q after one compositeness proof; each factor is
        # proven prime once, and the result is not checked again
        p, q = 1000003, 1000033
        asked = _proofs(monkeypatch, p * q)
        assert sorted(asked) == [p, q, p * q]
        # trial division proves every prime of 5916 by itself
        assert _proofs(monkeypatch, 5916) == []


class TestPartialFactorize:
    def test_complete_on_smooth(self):
        f, cof = partial_factorize(2**5 * 3**4 * 17)
        assert cof == 1
        assert _value(f) == 2**5 * 3**4 * 17

    def test_cofactor_contract(self):
        n = 7 * (2**89 - 1) * (2**107 - 1)  # two huge Mersenne primes
        f, cof = partial_factorize(n)
        assert _value(f) * cof == n
        assert (7, 1) in f

    def test_cofactor_past_float_range(self):
        n = 2**1279 - 1  # a Mersenne prime, far above 1e308
        f, cof = partial_factorize(n)
        assert f == ()
        assert cof == n

    def test_perfect_power_exact_root(self):
        q = 2**521 - 1
        assert _perfect_power(q**3) == (q, 3)
        assert _perfect_power(q**2 * 7) == (q**2 * 7, 1)
        assert _perfect_power(3**70) == (3, 70)


class TestLegendre:
    def test_examples(self):
        assert legendre(7, 17) == -1
        assert legendre(2, 17) == 1
        assert legendre(0, 17) == 0

    def test_euler_criterion(self):
        rng = random.Random(3)
        for p in (3, 5, 13, 101, 10007):
            for _ in range(20):
                a = rng.randrange(1, p)
                squares = {x * x % p for x in range(1, p)}
                assert legendre(a, p) == (1 if a in squares else -1)


class TestSqrtMod:
    """Tonelli-Shanks against sympy's square root modulo p, which also
    returns the root in [0, p/2]."""

    def test_small_primes(self):
        rng = random.Random(4)
        assert [sqrt_mod(a, 2) for a in range(4)] == [0, 1, 0, 1]
        for p in sympy.primerange(3, 10**4):
            cases = {0, 1, 2, p - 1, p + 3, -5}
            cases |= {rng.randrange(p) for _ in range(6)}
            cases |= {rng.randrange(p) ** 2 for _ in range(3)}
            for a in cases:
                assert sqrt_mod(a, p) == sympy_sqrt_mod(a % p, p), (a, p)

    def test_primes_one_mod_2_to_16(self):
        # p - 1 divisible by 2^16: the loop runs with s >= 16
        rng = random.Random(5)
        primes = []
        while len(primes) < 30:
            p = rng.randrange(1, 2**48) * 2**16 + 1
            if p < 2**64 and sympy.isprime(p):
                primes.append(p)
        for p in primes:
            residues = [pow(rng.randrange(1, p), 2 ** rng.randrange(1, 17), p)
                        for _ in range(4)]
            others = [rng.randrange(1, p) for _ in range(4)]
            for a in residues + others:
                root = sqrt_mod(a, p)
                assert root == sympy_sqrt_mod(a, p), (a, p)
                if root is not None:
                    assert root * root % p == a and 2 * root < p
            assert all(sqrt_mod(a, p) is not None for a in residues)


class TestValuation:
    def test_integers(self):
        assert valuation(48, 2) == 4
        assert valuation(5, 3) == 0

    def test_rationals(self):
        assert valuation(Fraction(1, 4), 2) == -2
        assert valuation(Fraction(9, 5), 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)



class TestSquarefreePart:
    def test_examples(self):
        assert squarefree_part(Fraction(697, 25)) == 697
        assert squarefree_part(12) == 3
        assert squarefree_part(-12) == -3
        assert squarefree_part(1) == 1
        # with its primes
        assert square_class(Fraction(-12, 5)) == (-15, (3, 5))
        assert square_class(1) == (1, ())
        with pytest.raises(ValueError):
            square_class(0)

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_quotient_is_square(self, n, d):
        q = Fraction(n, d)
        s = squarefree_part(q)
        ratio = q / s
        assert ratio > 0
        r = Fraction(ratio)
        import math
        assert math.isqrt(r.numerator) ** 2 == r.numerator
        assert math.isqrt(r.denominator) ** 2 == r.denominator

    @given(st.integers(min_value=1, max_value=10**4),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_square_scaling_invariance(self, n, s):
        assert squarefree_part(n * s * s) == squarefree_part(n)
