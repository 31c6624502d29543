"""Hilbert symbols, local squares and conic solvability."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet import local as local_mod
from chatelet import numbers
from chatelet.local import (
    REAL,
    Place,
    conic_decide,
    conic_solvable_global,
    default_oracle_precision,
    finite_place,
    hilbert_bruteforce_oracle,
    hilbert_symbol,
    inv_from_symbol,
    is_local_square,
    product_formula_check,
    support_places,
)
from chatelet.numbers import (
    OutOfCertifiedRangeError,
    factorize,
    partial_factorize,
    square_class,
    squarefree_part,
)

nonzero = st.integers(min_value=-200, max_value=200).filter(lambda n: n != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])
places = st.sampled_from(
    [REAL] + [finite_place(p) for p in (2, 3, 5, 7, 11, 13, 17)])


class TestPlace:
    def test_ordering(self):
        vs = [finite_place(5), REAL, finite_place(2)]
        assert sorted(vs) == [REAL, finite_place(2), finite_place(5)]

    def test_str(self):
        assert str(REAL) == "oo"
        assert str(finite_place(17)) == "17"

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            finite_place(6)


class TestClosedForm:
    def test_real(self):
        assert hilbert_symbol(-1, -1, REAL) == -1
        assert hilbert_symbol(-1, 2, REAL) == 1
        assert hilbert_symbol(3, 5, REAL) == 1

    def test_derived_values(self):
        v17 = finite_place(17)
        assert hilbert_symbol(697, 41, v17) == -1
        assert hilbert_symbol(697, 12, v17) == -1
        assert hilbert_symbol(2, 7, finite_place(2)) == 1

    def test_rational_arguments(self):
        v = finite_place(3)
        assert hilbert_symbol(Fraction(1, 3), 3, v) == \
            hilbert_symbol(3, 3, v)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 1, REAL)


class TestOracleAgreement:
    @given(nonzero, nonzero, small_primes)
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, a, b, p):
        assert hilbert_symbol(a, b, finite_place(p)) == \
            hilbert_bruteforce_oracle(a, b, p)

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            hilbert_bruteforce_oracle(8, 8, 2, precision=3)
        # Hensel bound: 2v+3 at p = 2 (v = 3 -> 9), 2v+1 at odd p (v = 3 -> 7)
        for a, b, p, bound in ((8, 8, 2, 9), (27, 5, 3, 7)):
            with pytest.raises(ValueError):
                hilbert_bruteforce_oracle(a, b, p, precision=bound - 1)
            assert hilbert_bruteforce_oracle(a, b, p, precision=bound) == \
                hilbert_symbol(a, b, finite_place(p))


class TestSymbolProperties:
    @given(nonzero, nonzero, places)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b, v):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @given(nonzero, nonzero, nonzero, places)
    @settings(max_examples=200, deadline=None)
    def test_bimultiplicative(self, a, b, c, v):
        assert hilbert_symbol(a * b, c, v) == \
            hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)

    @given(nonzero, nonzero, st.integers(min_value=1, max_value=30), places)
    @settings(max_examples=150, deadline=None)
    def test_square_class_invariance(self, a, b, s, v):
        assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)

    @given(nonzero, places)
    @settings(max_examples=100, deadline=None)
    def test_a_minus_a(self, a, v):
        assert hilbert_symbol(a, -a, v) == 1

    @given(nonzero.filter(lambda a: a != 1), places)
    @settings(max_examples=100, deadline=None)
    def test_a_one_minus_a(self, a, v):
        assert hilbert_symbol(a, 1 - a, v) == 1

    @given(nonzero, places)
    @settings(max_examples=100, deadline=None)
    def test_square_second_slot(self, a, v):
        assert hilbert_symbol(a, 1, v) == 1
        assert hilbert_symbol(a, 4, v) == 1


class TestProductFormula:
    @given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                        max_denominator=10**6).filter(lambda q: q != 0),
           st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                        max_denominator=10**6).filter(lambda q: q != 0))
    @settings(max_examples=150, deadline=None)
    def test_holds(self, a, b):
        assert product_formula_check(a, b)

    def test_support(self):
        vs = support_places(697, 41)
        assert vs == [REAL, finite_place(2), finite_place(17),
                      finite_place(41)]


class TestLocalSquare:
    def test_real(self):
        assert is_local_square(4, REAL)
        assert not is_local_square(-4, REAL)

    def test_odd(self):
        v = finite_place(7)
        assert is_local_square(2, v)
        assert not is_local_square(3, v)
        assert not is_local_square(7, v)
        assert is_local_square(Fraction(2, 49), v)

    def test_two(self):
        v = finite_place(2)
        assert is_local_square(17, v)
        assert not is_local_square(3, v)
        assert not is_local_square(2, v)

    @given(nonzero, places)
    @settings(max_examples=100, deadline=None)
    def test_square_characterizes_symbol(self, a, v):
        if is_local_square(a, v):
            for b in (-1, 2, 3, 5):
                assert hilbert_symbol(a, b, v) == 1


class TestInv:
    def test_values(self):
        assert inv_from_symbol(1) == 0
        assert inv_from_symbol(-1) == Fraction(1, 2)
        with pytest.raises(ValueError):
            inv_from_symbol(0)


class TestConic:
    def test_global_examples(self):
        assert conic_solvable_global(697, 0) == (True, (0, 0))
        ok, wit = conic_solvable_global(2, 7, want_witness=True)
        assert ok and wit is not None
        y, z = wit
        assert y * y - 2 * z * z == 7
        assert conic_solvable_global(-1, -1)[0] is False
        # the x = 0 fiber of the constructed surface
        assert conic_solvable_global(697, 5916)[0] is False

    @given(nonzero, nonzero)
    @settings(max_examples=100, deadline=None)
    def test_global_iff_everywhere_local(self, alpha, r):
        ok, _ = conic_solvable_global(alpha, r)
        everywhere = all(
            hilbert_symbol(alpha, r, v) == 1
            for v in support_places(alpha, r))
        assert ok == everywhere


# enumeration moduli up to this size keep the oracle at a few ms per call
ORACLE_MODULUS = 2**12


def _odd_primes(alpha):
    return tuple(p for p, _ in factorize(abs(alpha)) if p != 2)


def _check_decision(alpha, r):
    """The one decision against the closed-form table over the support
    and, where the modulus allows, against the enumeration oracle; a
    solvable conic gives the square class of r."""
    r_class = conic_decide(alpha, _odd_primes(alpha), r)
    decided = r_class is not None
    table = {v: hilbert_symbol(alpha, r, v) for v in support_places(alpha, r)}
    assert decided == all(s == 1 for s in table.values()), (alpha, r)
    assert conic_solvable_global(alpha, r)[0] == decided, (alpha, r)
    if decided:
        assert r_class == square_class(r), (alpha, r)
    for v, s in table.items():
        if v.is_real:
            continue
        if v.p ** default_oracle_precision(alpha, r, v.p) <= ORACLE_MODULUS:
            assert hilbert_bruteforce_oracle(alpha, r, v.p) == s, (alpha, r, v)


class TestConicDecision:
    def test_random_decisions(self):
        rng = random.Random(32)
        for _ in range(800):
            alpha = squarefree_part(rng.choice(
                [n for n in range(-400, 401) if n]))
            r = rng.randint(-10**7, 10**7)
            if r == 0:
                continue
            _check_decision(alpha, r)

    def test_large_prime_cofactors(self):
        # residual parts beyond the trial bound exercise rho + Legendre
        rng = random.Random(33)
        big_primes = [1000003, 1000033, 1000037, 1000039]
        for _ in range(40):
            q1, q2 = rng.sample(big_primes, 2)
            r = q1 * q2 * rng.choice([1, -1, 4, 9])
            _check_decision(rng.choice([2, 3, -1, 697]), r)
        # a prime past the trial bound appearing squared: only the sum of
        # its exponents decides its symbol
        for q in big_primes:
            for k in big_primes:
                if q != k:
                    for alpha in (2, 3, -1, 697):
                        _check_decision(alpha, q * q * k)
        # 1000037 = 5 mod 8 squared, 1000039 = 7 mod 8: (2, r)_v = +1
        # everywhere, though (2/1000037) = -1
        r = 1000037**2 * 1000039
        assert conic_decide(2, (), r) is not None
        assert all(hilbert_symbol(2, r, v) == 1 for v in support_places(2, r))

    def test_past_64_bits_within_trial_range(self):
        # past 2^64, with every prime between 2000 and 10^6: trial division
        # must go on toward 10^6 while the cofactor stays past 2^64
        primes = (100003, 100019, 100043, 100049)
        n = primes[0] * primes[1] * primes[2] * primes[3]
        assert n > 2**64
        assert factorize(n) == tuple((p, 1) for p in primes)
        for alpha in (2, 3, -1, 697, 5):
            _check_decision(alpha, n)

    def test_parts_decide_as_their_product(self):
        # with the odd primes they share checked, parts decide as r
        rng = random.Random(36)
        for _ in range(400):
            alpha = squarefree_part(rng.choice(
                [n for n in range(-60, 61) if n]))
            odd = _odd_primes(alpha)
            common = rng.choice([1, 3, 5, 9, 15, 49])
            parts = [common * rng.choice([-1, 1]) * rng.randint(1, 10**5)
                     for _ in range(rng.randint(1, 3))]
            shared = {p for i, a in enumerate(parts) for b in parts[i + 1:]
                      for p, _ in factorize(math.gcd(a, b))}
            checked = odd + tuple(sorted(shared - {2} - set(odd)))
            assert conic_decide(alpha, checked, *parts) == conic_decide(
                alpha, odd, math.prod(parts)), (alpha, parts)

    def test_parts_find_their_shared_primes(self):
        # with alpha's odd primes alone, the gcd of each part with the
        # parts before it finds the primes they share
        rng = random.Random(37)
        shared = 0
        for _ in range(400):
            alpha = squarefree_part(rng.choice(
                [n for n in range(-60, 61) if n]))
            odd = _odd_primes(alpha)
            common = rng.choice([1, 3, 7, 9, 21, 49, 11 * 13])
            parts = [common * rng.choice([-1, 1]) * rng.randint(1, 10**5)
                     for _ in range(rng.randint(1, 4))]
            want = conic_decide(alpha, odd, math.prod(parts))
            assert conic_decide(alpha, odd, *parts) == want, (alpha, parts)
            shared += len(parts) > 1 and common > 1 and want is not None
        assert shared >= 20, shared
        # a shared factor past 2^64 with no certified prime raises
        U = 2**64 + 13
        with pytest.raises(OutOfCertifiedRangeError):
            conic_decide(5, (5,), U, U)

    def test_uncertified_part_is_read_last(self):
        # U = 2^64 + 13 has no certified factorization.  The part
        # q = 10000121 rejects, with (3/q) = -1, whichever comes first;
        # the product U q is past 2^64 with no prime below 10^6, so it
        # alone cannot be decided
        U, q = 2**64 + 13, 10000121
        assert conic_decide(3, (3,), U, q) is None
        assert conic_decide(3, (3,), q, U) is None
        with pytest.raises(OutOfCertifiedRangeError):
            conic_decide(3, (3,), U * q)
        # no part rejects: the uncertified one raises
        with pytest.raises(OutOfCertifiedRangeError):
            conic_decide(5, (5,), U, 1000151)

    def test_witness_reads_r_once(self, monkeypatch):
        # the witness starts from the square class that the decision read,
        # so r = 6173 * 5840773, prime to 2 * 697, is trial-divided once
        calls = []
        real = numbers._trial_division
        monkeypatch.setattr(numbers, "_trial_division",
                            lambda n: calls.append(n) or real(n))
        r = 36055091729
        assert conic_solvable_global(697, r, want_witness=True)[1]
        assert calls.count(r) == 1

    def test_rational_arguments(self):
        # conic_solvable_global moves (alpha, r) to integers of the same
        # square classes before deciding
        rng = random.Random(35)
        for _ in range(300):
            alpha = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60),
                             rng.randint(1, 60))
            r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4),
                         rng.randint(1, 10**3))
            ok, _ = conic_solvable_global(alpha, r)
            assert ok == all(hilbert_symbol(alpha, r, v) == 1
                             for v in support_places(alpha, r)), (alpha, r)


def _sympy_places(alpha, parts):
    """The finite primes where (alpha, prod(parts)) can be -1: 2 and the
    primes that sympy finds in alpha and in each part."""
    primes = {2, *sympy.factorint(alpha)}
    for part in parts:
        primes.update(sympy.factorint(part))
    primes.discard(-1)
    return primes


def _symbol(alpha, r, p):
    """(alpha, r)_p by the closed form, for any prime p (`finite_place`
    would refuse a prime past the certified range)."""
    return hilbert_symbol(alpha, r, Place((1, p), p))


class TestConicDecideOracle:
    """`conic_decide` on seeded part tuples against sympy's factorint
    and the closed-form symbol at each place it finds.  The parts carry
    inert primes q^1..q^4 below and just past 2000, primes shared by two
    parts, cofactors on both sides of 2003^2 and, in some tuples, a
    prime past 2^64 that nothing certifies."""

    ALPHAS = (-1, 2, -3, 5, 6, -7, 17, 697, -2003, 2 * 2011)
    # below 2000 and just past it, with 2003^2 = 4012009 in between
    PRIMES = (3, 5, 7, 11, 13, 1987, 1993, 1997, 1999, 2003, 2011, 2017,
              2027, 100003, 999983, 4011991, 4012013, 1000000007)
    U = 2**64 + 13

    def _parts(self, rng, alpha):
        inert = [q for q in self.PRIMES
                 if sympy.legendre_symbol(alpha % q, q) == -1]
        parts = []
        for _ in range(rng.randint(1, 3)):
            part, past = rng.choice((1, -1, 2, -4, 8)), 1
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(inert if inert and rng.random() < 0.5
                               else self.PRIMES)
                power = q ** rng.randint(1, 4 if q in inert else 2)
                if q > 10**6:
                    # what trial division leaves must stay below 2^64
                    if past * power >= 2**64:
                        continue
                    past *= power
                part *= power
            parts.append(part)
        if len(parts) > 1 and rng.random() < 0.4:
            # an odd prime that two parts share
            q = rng.choice(self.PRIMES[:9])
            i, j = rng.sample(range(len(parts)), 2)
            parts[i] *= q
            parts[j] *= q ** rng.randint(1, 3)
        return parts

    def _cases(self, count=1500):
        rng = random.Random(2026)
        for _ in range(count):
            alpha = rng.choice(self.ALPHAS)
            yield alpha, self._parts(rng, alpha)

    def _want(self, alpha, parts):
        """Is the symbol +1 at every place but U?"""
        r = math.prod(parts)
        read = [part // self.U if part % self.U == 0 else part
                for part in parts]
        return hilbert_symbol(alpha, r, REAL) == 1 and all(
            _symbol(alpha, r, p) == 1 for p in _sympy_places(alpha, read))

    def test_decisions(self):
        seen = {"solvable": 0, "rejected": 0, "inert past 2000": 0,
                "large cofactor": 0, "shared": 0}
        for alpha, parts in self._cases():
            odd = tuple(p for p in square_class(alpha)[1] if p != 2)
            got = conic_decide(alpha, odd, *parts)
            want = self._want(alpha, parts)
            assert (got is not None) == want, (alpha, parts)
            if want:
                assert got == square_class(math.prod(parts)), (alpha, parts)
            seen["solvable" if want else "rejected"] += 1
            seen["inert past 2000"] += any(
                part % q == 0 and sympy.legendre_symbol(alpha % q, q) == -1
                for part in parts for q in (2003, 2011, 2017, 2027))
            seen["large cofactor"] += any(
                abs(part) % q == 0 for part in parts
                for q in (4012013, 1000000007))
            seen["shared"] += any(
                math.gcd(a, b) % 2 for i, a in enumerate(parts)
                for b in parts[i + 1:] if math.gcd(a, b) > 1)
        assert min(seen.values()) >= 50, seen

    def _uncertified_cases(self, count=400):
        """The cases with a part U s, s small, inserted among the parts."""
        rng = random.Random(2027)
        for alpha, parts in self._cases(count):
            parts.insert(rng.randint(0, len(parts)),
                         self.U * rng.choice((1, -1, 2, 3, -5, 1999)))
            yield alpha, parts

    @staticmethod
    def _outcome(alpha, parts):
        odd = tuple(p for p in square_class(alpha)[1] if p != 2)
        try:
            return conic_decide(alpha, odd, *parts)
        except OutOfCertifiedRangeError:
            return "uncertified"

    def test_uncertified_cofactor_raises_only_when_nothing_rejects(self):
        # U is read last: the decision is None when another place
        # rejects, and raises otherwise, whatever the symbol at U
        outcomes = [self._outcome(alpha, parts) for alpha, parts in
                    self._uncertified_cases()]
        for (alpha, parts), got in zip(self._uncertified_cases(), outcomes):
            want = "uncertified" if self._want(alpha, parts) else None
            assert got == want, (alpha, parts)
        assert min(outcomes.count(None),
                   outcomes.count("uncertified")) >= 20

    def test_prime_factors_without_3_is_caught(self, monkeypatch):
        # By reciprocity a conic fails at an even number of places, so
        # missing one place alone never turns a decision.  Where the
        # other failing place is U, past the certified range, 3 is the
        # one rejection read: with 3 dropped from what `prime_factors`
        # yields, the decision raises instead
        cases = [(alpha, [3**e * k, self.U * s]) for alpha in self.ALPHAS
                 if alpha % 3 == 2 for e in (1, 3) for k in (1, -1, 2, 5, 7)
                 for s in (1, -1, 2)]
        outcomes = [self._outcome(alpha, parts) for alpha, parts in cases]
        real = local_mod.prime_factors
        monkeypatch.setattr(local_mod, "prime_factors", lambda n: (
            (q, e) for q, e in real(n) if q != 3))
        assert any(self._outcome(alpha, parts) != want
                   for (alpha, parts), want in zip(cases, outcomes))

    def test_symbol_at_2_is_read_unless_alpha_is_a_square_there(
            self, monkeypatch):
        # alpha = 1 mod 8 (-7, 17 and 697 here) is a square in Q_2, so
        # every symbol there is +1 and none is evaluated.  For any other
        # alpha, 2 is read: where U is the other failing place, it is the
        # one rejection a decision can see, and without it the decision
        # raises instead
        cases = [(alpha, [k, self.U * s]) for alpha in self.ALPHAS
                 for k in (1, -1, 2, -2, 3, -5, 7, 10) for s in (1, -1, 2)]
        cases += self._cases(300)
        wants, alone = [], 0
        for alpha, parts in cases:
            r = math.prod(parts)
            read = [part // self.U if part % self.U == 0 else part
                    for part in parts]
            failing = {p for p in _sympy_places(alpha, read)
                       if _symbol(alpha, r, p) == -1}
            if hilbert_symbol(alpha, r, REAL) == -1:
                failing.add(REAL)
            alone += failing == {2}
            if failing:
                wants.append(None)
            elif read != parts:
                wants.append("uncertified")
            else:
                wants.append(square_class(r))
        # 2 is the only place that a decision can certify and that rejects
        assert alone >= 10
        at_2 = set()
        real = local_mod._hilbert_int

        def spy(a, b, p):
            if p == 2:
                at_2.add(a)
            return real(a, b, p)

        monkeypatch.setattr(local_mod, "_hilbert_int", spy)
        for (alpha, parts), want in zip(cases, wants):
            assert self._outcome(alpha, parts) == want, (alpha, parts)
        assert at_2 == {a for a in self.ALPHAS if a % 8 != 1}


def _assert_witness(alpha, r):
    ok, wit = conic_solvable_global(alpha, r, want_witness=True)
    assert ok and wit is not None, (alpha, r)
    y, z = wit
    assert y * y - Fraction(alpha) * z * z == r, (alpha, r)
    return wit


class TestConicWitness:
    def test_random_solvable(self):
        # r = y0^2 - alpha z0^2 has a point by construction; the descent
        # must find one of its own on every such conic
        rng = random.Random(36)
        for i in range(120):
            num = rng.randint(1, 1000)
            den = rng.randint(1, 6)
            kind = i % 3
            if kind == 1:  # alpha a square
                num, den = num * num, den * den
            elif kind == 2:  # alpha even
                num *= 2
            alpha = Fraction(rng.choice([-1, 1]) * num, den)
            y0 = rng.randint(0, 10**7)
            z0 = rng.randint(1, 10**5)
            r = (y0 * y0 - alpha * z0 * z0) / rng.randint(1, 4) ** 2
            if r == 0:
                continue
            assert abs(r.numerator * r.denominator) < 2**63
            _assert_witness(alpha, r)

    def test_bundle_fiber_conic(self):
        # the t = +-2 fibers of `chatelet bundle`: the bounded search
        # that preceded the descent found no point here
        _assert_witness(697, 36055091729)
        _assert_witness(Fraction(697, 4), Fraction(36055091729, 9))

    def test_square_r_keeps_trivial_point(self):
        assert conic_solvable_global(2, 1, want_witness=True) == \
            (True, (Fraction(1), Fraction(0)))
        assert conic_solvable_global(Fraction(9, 4), Fraction(25, 49),
                                     want_witness=True)[1] == \
            (Fraction(5, 7), Fraction(0))

    def test_small_cases(self):
        # alpha or r a unit, alpha = +-r, alpha a square with r not
        for alpha, r in [(-1, 2), (2, 2), (2, -2), (-2, 3), (1, -3),
                         (4, 7), (Fraction(1, 9), 5), (-1, 5), (3, -2)]:
            _assert_witness(alpha, r)

    def test_large_prime_shared_with_alpha(self):
        # r = q s^2 with q | alpha: the integer r is past 2^64, but its
        # square class is found without factoring q s^2 as a whole
        q, s = 1099511627873, 1073741827  # q = 1 mod 4, both prime
        _assert_witness(q, q * s * s)

    def test_prime_square_past_certified_range(self):
        # q^2 is past 2^64 but its root q (prime, near 2^40) is not: both
        # factoring exits split it, and (q, 0) is a point of the conic
        q = 1099511627791
        assert partial_factorize(q**2) == (((q, 2),), 1)
        assert factorize(q**2) == ((q, 2),)
        assert conic_decide(2, (), q**2) == (1, ())
        assert conic_solvable_global(697, q**2, want_witness=True) == \
            (True, (Fraction(q), Fraction(0)))

    def test_past_certified_range_raises(self):
        # q1 q2 with q1, q2 = 1 mod 4 primes near 2^40: a sum of two
        # squares, but its cofactor is past 2^64 and cannot be certified
        r = 1099511627873 * 1099511627917
        for want in (False, True):
            with pytest.raises(OutOfCertifiedRangeError):
                conic_solvable_global(-1, r, want_witness=want)
