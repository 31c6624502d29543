"""Exact integer and rational arithmetic primitives.

Everything downstream of this module is exact: integers are Python ints,
rationals are :class:`fractions.Fraction`.  The routines here supply the
elementary number theory the rest of the package leans on — certified
primality, factorization, Legendre symbols, square roots modulo a
prime, p-adic valuations and square-class reduction.

Primality is Miller-Rabin with a fixed witness set proven deterministic
below 2**64.  Factoring strips the primes below 2000 by gcds with their
product (`strip_primes`), then splits the cofactor by Miller-Rabin and
Pollard rho; the 2,3,5 wheel runs on toward 10**6 only for a cofactor
past 2**64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Generator, Iterator, Optional, Union

Rational = Union[int, Fraction]

#: Largest n for which the fixed Miller-Rabin witness set is proven
#: deterministic.
_CERTIFIED_PRIME_BOUND = 2**64

# Deterministic for all n < 3.18 * 10^23, in particular for n < 2^64
# (Sorenson & Webster, psi_12).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division covers the primes below 2000 by gcds, and goes on
# toward 10**6 by the wheel only while the cofactor is at least 2**64
# (see `_trial_division`).
_SMALL_TRIAL_BOUND = 2000
_TRIAL_DIVISION_BOUND = 10**6

# Steps of the 2,3,5 wheel from 7: the integers prime to 30.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _wheel_from(bound: int) -> tuple[int, int]:
    """(d, i): the wheel's first candidate d >= bound and the index i of
    the step that leaves it."""
    d, i = 7, 0
    while d < bound:
        d += _WHEEL[i]
        i = (i + 1) % 8
    return d, i


# Where the wheel resumes past the gcd stage (2003, the least prime past
# 2000): a cofactor below its square with no prime below 2000 is prime.
_WHEEL_START, _WHEEL_START_STEP = _wheel_from(_SMALL_TRIAL_BOUND)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


# The primes below 2000 and their product, a 2,799-bit integer: one gcd
# with it is the product of the distinct ones dividing n.
_TRIAL_PRIMES = tuple(_primes_below(_SMALL_TRIAL_BOUND))
_TRIAL_PRIMORIAL = math.prod(_TRIAL_PRIMES)


def strip_primes(n: int, product: int) -> tuple[int, int]:
    """(g, c) for n >= 1 and a squarefree product: g = gcd(n, product),
    the product of its primes that divide n, and c, n with each of them
    divided out to its full power.  Each further gcd of c with the last
    one holds the primes of higher exponent, so the loop runs once per
    exponent, not once per prime."""
    g = math.gcd(n, product)
    c, h = n, g
    while h > 1:
        c //= h
        h = math.gcd(c, h)
    return g, c


class OutOfCertifiedRangeError(ValueError):
    """Primality was requested beyond the deterministically certified
    range, or a residue walk at a prime past its bound (`chatelet.surface`)."""


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test, certified for n < 2**64.

    A larger n is proven composite by a small prime factor or a
    Miller-Rabin witness, and then the answer is False.  One that passes
    every witness raises :class:`OutOfCertifiedRangeError` rather than
    returning a probabilistic answer.
    """
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if not _miller_rabin(n, _MR_WITNESSES):
        return False
    if n >= _CERTIFIED_PRIME_BOUND:
        raise OutOfCertifiedRangeError(
            f"primality of {n} is outside the certified 64-bit range")
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic restart schedule: constants c = 1, 2, 3, ... are tried
    in order, so repeated runs agree.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed to split {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def _trial_division(n: int) -> Generator[tuple[int, int], None, int]:
    """Yield (p, e) for the primes of n >= 1 that trial division finds, in
    increasing order, and return the cofactor left over.

    `strip_primes` with the product of the primes below 2000 gives the
    product g of those dividing n and the cofactor without them; the
    prime table is walked only until g is used up, and once p^2 > g what
    is left of g is one prime.  A cofactor below 2003^2 with no prime
    below 2000 is then prime.  Past 2000 the 2,3,5 wheel runs toward
    10**6, but only while the cofactor is at least 2**64, where
    Miller-Rabin and rho cannot take over.  So the cofactor returned is
    1, below 2**64 with no prime factor below 2000, or at least 2**64
    with no prime factor below 10**6 -- exactly the inputs that full
    trial division to 10**6 leaves uncertifiable.
    """
    g, rest = strip_primes(n, _TRIAL_PRIMORIAL)
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            yield p, split_valuation(n, p)[0]
            g //= p
    if g > 1:
        # no prime of g below p, and p^2 > g: g is one prime
        yield g, split_valuation(n, g)[0]
    n = rest
    # The wheel runs only while n >= 2**64 > d^2, so d^2 <= n needs no
    # test.
    d, i = _WHEEL_START, _WHEEL_START_STEP
    bound = _TRIAL_DIVISION_BOUND if n >= _CERTIFIED_PRIME_BOUND else d
    while d < bound:
        if n % d == 0:
            e, n = split_valuation(n, d)
            yield d, e
            if n < _CERTIFIED_PRIME_BOUND:
                bound = d
        d += _WHEEL[i]
        i = (i + 1) % 8
    if 1 < n < d * d:
        # no prime factor below d: n is prime
        yield n, 1
        return 1
    return n


def _split_cofactor(rest: int) -> tuple[list[tuple[int, int]], int]:
    """The stage after `_trial_division`, shared by both factoring exits:
    (primes of rest with exponents, uncertified cofactor).

    A cofactor below 2**64 is split completely by Miller-Rabin
    certification and Pollard rho.  One at or past 2**64 has no prime
    factor below 10**6; it is tested once for a perfect power, and a
    root below 2**64 is split the same way.  Otherwise it comes back
    whole as the cofactor, which is 1 when the factorization is complete.
    """
    k = 1
    if rest >= _CERTIFIED_PRIME_BOUND:
        root, k = _perfect_power(rest)
        if root >= _CERTIFIED_PRIME_BOUND:
            return [], rest
        rest = root
    found: dict[int, int] = {}
    _factor_into(rest, found)
    return sorted((p, e * k) for p, e in found.items()), 1


def prime_factors(n: int) -> Iterator[tuple[int, int]]:
    """The prime factorization of the integer n >= 1, lazily: (p, e) pairs
    with each prime once and its full exponent, in increasing order.

    Small primes come from `_trial_division` as it finds them, so a
    caller that stops early (`chatelet.local.conic_decide` stops at the
    first prime that rejects) does no further work.  The cofactor left
    over goes through `_split_cofactor`; the part of it that cannot be
    certified raises :class:`OutOfCertifiedRangeError`.
    """
    rest = yield from _trial_division(n)
    if rest > 1:
        found, cofactor = _split_cofactor(rest)
        if cofactor > 1:
            raise OutOfCertifiedRangeError(
                f"primality of {cofactor} is outside the certified 64-bit "
                "range")
        yield from found


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Full prime factorization of |n|, collected from `prime_factors`:
    (p, e) pairs with strictly increasing primes, each proven prime once.

    Fails with :class:`OutOfCertifiedRangeError` if a factor cannot be
    certified prime (beyond 2**64); see :func:`partial_factorize` for the
    bounded-effort variant.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    return tuple(prime_factors(abs(n)))


def partial_factorize(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Bounded-effort factorization: (certified (p, e) pairs, unfactored
    cofactor), the pairs as `factorize` gives them.

    Runs the two stages of `prime_factors`, `_trial_division` and
    `_split_cofactor`, but returns the cofactor that cannot be certified
    where `prime_factors` raises: it is coprime to every certified
    prime, and 1 when the factorization is complete.  Never raises
    :class:`OutOfCertifiedRangeError`.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    found: list[tuple[int, int]] = []
    trial = _trial_division(abs(n))
    while True:
        try:
            found.append(next(trial))
        except StopIteration as stop:
            rest = stop.value
            break
    large, cofactor = _split_cofactor(rest)
    return tuple(found + large), cofactor


def _perfect_power(n: int) -> tuple[int, int]:
    """Return (r, k) with r**k == n and k maximal (k = 1 if no power)."""
    for k in (2, 3, 5, 7):
        r = _iroot(n, k)
        if r > 1 and r**k == n:
            root, j = _perfect_power(r)
            return root, j * k
    return n, 1


def _iroot(n: int, k: int) -> int:
    """Exact floor of the k-th root of n >= 1 (integer Newton from above)."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x**(k - 1)) // k
        if y >= x:
            return x
        x = y


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion.  p must be an odd
    prime; unchecked, since every caller passes a certified one."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """The root t of t^2 = a mod p with 0 <= t <= p/2, or None when a is
    not a square modulo p.  p must be prime; unchecked, like `legendre`.

    Tonelli-Shanks: write p - 1 = q 2^s with q odd and take the least
    non-residue z.  Start from t = a^((q+1)/2) and b = a^q, so that
    t^2 = a b and b has order 2^i for some i < s.  While b != 1, multiply
    t by e = c^(2^(m-i-1)), where c, a power of z^q, has order 2^m: then
    t^2 = a b still holds for b e^2, whose order is smaller than 2^i.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    if legendre(a, p) == -1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, b = s, pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % p
            i += 1
        e = pow(c, 1 << (m - i - 1), p)
        m, c = i, e * e % p
        t, b = t * e % p, b * c % p
    return min(t, p - t)


def valuation(q: Rational, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q (may be negative).

    The valuation of 0 would be +infinity; that case is an error here,
    never a sentinel value.
    """
    if q == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2 or not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    q = Fraction(q)
    return (split_valuation(q.numerator, p)[0]
            - split_valuation(q.denominator, p)[0])


def split_valuation(n: int, p: int) -> tuple[int, int]:
    """(e, u) with n = p**e * u and p not dividing u, for a nonzero
    integer n (sign kept in u) and p >= 2.  Unchecked: the hot loops
    call it with known primes."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def clear_denominators(coeffs) -> tuple[int, list[int]]:
    """The common denominator L of the rationals c_i and the integers
    L c_i."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def square_class(q: Rational) -> tuple[int, tuple[int, ...]]:
    """(d, primes): the squarefree integer d (sign preserved) with
    q = d * (square), and the primes of d in increasing order.

    Two nonzero rationals lie in the same square class of Q*/Q*^2 exactly
    when their squarefree parts coincide.
    """
    if q == 0:
        raise ValueError("0 has no square class")
    odd = tuple(p for p, e in factorize(q.numerator * q.denominator)
                if e % 2)
    return (1 if q > 0 else -1) * math.prod(odd), odd


def squarefree_part(q: Rational) -> int:
    """The squarefree integer d with q = d * (square); see `square_class`."""
    return square_class(q)[0]
