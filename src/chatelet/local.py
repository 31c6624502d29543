"""Places of Q, Hilbert symbols, local squares and conic solvability.

The Hilbert symbol is computed by the classical closed form (sign rule at
the real place, valuations and Legendre symbols at odd p, the epsilon/omega
congruence formula at 2), written once for integers in `_hilbert_int`;
rational arguments are first moved to an integer of the same square class.
`conic_decide` is the package's one Hasse-Minkowski decision for
y^2 - alpha z^2 = r, with r given as a product of parts: on every call
it evaluates that formula on r at 2 and at the primes of alpha, and at
the primes that two parts share, which it finds by a gcd.  Each part's
other primes can only reject where alpha is inert and their exponent
odd: those below 2000 are read by gcds with the product of the inert
ones, and what is left past them costs one Legendre symbol, or the
package's one factoring routine `chatelet.numbers.prime_factors` for a
cofactor past 2003^2, which stops at the first prime that rejects.
It returns None for an unsolvable conic and the square class of r for
a solvable one, so the cofactors' primes are read once.
This module does no factoring of its own.  The fiber scan of
`chatelet._kernel.pure` and `conic_solvable_global` both call it.  A
rational point of a solvable conic is found exactly by Legendre's
descent from that square class and checked by substitution.  An
independent exhaustive-enumeration oracle is provided for testing the
closed form.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from chatelet.numbers import (
    PRIME_COFACTOR_BOUND,
    TRIAL_PRIMES,
    TRIAL_PRIMORIAL,
    OutOfCertifiedRangeError,
    Rational,
    factorize,
    is_prime,
    legendre,
    prime_factors,
    split_valuation,
    sqrt_mod,
    square_class,
    strip_primes,
)

__all__ = [
    "Place", "REAL", "finite_place",
    "hilbert_symbol", "hilbert_bruteforce_oracle", "product_formula_check",
    "is_local_square", "inv_from_symbol",
    "conic_decide", "conic_solvable_global", "support_places",
]

INV_ZERO = Fraction(0)
INV_HALF = Fraction(1, 2)


class Place(NamedTuple):
    """The real place (p is None) or the p-adic place of a prime p.

    Ordering puts the real place first, then primes ascending, so that
    reports enumerate places deterministically.
    """

    sort_key: tuple[int, int]
    p: Optional[int] = None

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "oo" if self.p is None else str(self.p)

    def __repr__(self) -> str:
        return f"Place({self})"


REAL = Place(sort_key=(0, 0))


def finite_place(p: int) -> Place:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Place(sort_key=(1, p), p=p)


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """Hilbert symbol (a, b)_v in {+1, -1}.

    Depends only on the square classes of a and b.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    return _hilbert_int(_integral(a), _integral(b), v.p)


def _integral(q: Rational) -> int:
    """The integer n*d in the square class of q = n/d."""
    return q.numerator * q.denominator


def _hilbert_int(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b and a prime p (unchecked).

    With a = p^s u and b = p^t w, u and w prime to p: at odd p the symbol
    is (-1)^(s t eps(p)) (u/p)^t (w/p)^s; at 2 it is
    (-1)^(eps(u) eps(w) + s omega(w) + t omega(u)), where
    eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8.
    """
    s, u = split_valuation(a, p)
    t, w = split_valuation(b, p)
    if p == 2:
        exponent = ((u - 1) // 2 * ((w - 1) // 2)
                    + s * ((w * w - 1) // 8) + t * ((u * u - 1) // 8))
        return -1 if exponent % 2 else 1
    sym = -1 if s * t * ((p - 1) // 2) % 2 else 1
    if t % 2:
        sym *= legendre(u, p)
    if s % 2:
        sym *= legendre(w, p)
    return sym


def default_oracle_precision(a: int, b: int, p: int) -> int:
    """Enumeration depth N at which Q_p-solvability of z^2 = ax^2 + by^2
    is decided by its primitive solutions mod p^N.

    N = 2v + 1 at odd p and N = 2v + 3 at p = 2, where
    v = max(v_p(a), v_p(b)).  Proof (Hensel's lemma):

    * A Q_p-point scales to a primitive Z_p-point, whose reduction is a
      primitive solution mod p^N for every N.
    * Conversely, let (x, y, z) be primitive mod p^N and let F be
      ax^2 + by^2 - z^2.  One coordinate is a unit; the partial
      derivative of F with respect to it is 2ax, 2by or -2z, of
      valuation d <= v + v_p(2).
    * Vary that coordinate alone.  Hensel's lemma in one variable lifts
      a root mod p^N with derivative of valuation d to a Z_p-root
      congruent mod p^(N-d) as soon as N >= 2d + 1; the coordinate stays
      a unit, so the lift is a nonzero Q_p-point.
    * d <= v at odd p and d <= v + 1 at p = 2, so N = 2v + 1 and
      N = 2v + 3 suffice.
    """
    vmax = max(split_valuation(a, p)[0], split_valuation(b, p)[0])
    return 2 * vmax + (3 if p == 2 else 1)


def hilbert_bruteforce_oracle(a: Rational, b: Rational, p: int,
                              precision: Optional[int] = None) -> int:
    """Independent test oracle for the Hilbert symbol at a finite prime.

    Scales a and b to integers (a square-class operation) and decides by
    exhaustive enumeration whether z^2 = a x^2 + b y^2 has a primitive
    solution mod p^precision.  The default precision is the Hensel bound
    proven in `default_oracle_precision` (2v+1 at odd p, 2v+3 at 2); a
    smaller precision is refused with ValueError.
    """
    if a == 0 or b == 0:
        raise ValueError("oracle requires nonzero arguments")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ia = _integral(a)
    ib = _integral(b)
    minimum = default_oracle_precision(ia, ib, p)
    if precision is None:
        precision = minimum
    elif precision < minimum:
        raise ValueError(
            f"precision {precision} below the Hensel bound {minimum}")
    if p**precision > 2**26:
        raise ValueError("enumeration modulus too large for the oracle")
    return oracle_symbol(ia, ib, p, precision)


def oracle_symbol(a: int, b: int, p: int, precision: int) -> int:
    """Hilbert symbol at p by exhaustive search mod p**precision.

    Decides whether z^2 = a*x^2 + b*y^2 has a primitive solution modulo
    p**precision.  A primitive triple has x, y or z a unit; scaling by its
    inverse reduces to the three one-variable sweeps below.
    """
    M = p**precision
    a %= M
    b %= M
    squares = bytearray(M)
    b_squares = bytearray(M)
    for t in range(M // 2 + 1):
        t2 = t * t % M
        squares[t2] = 1
        b_squares[b * t2 % M] = 1
    for y in range(M // 2 + 1):
        # x = 1: z^2 = a + b y^2
        if squares[(a + b * y * y) % M]:
            return 1
    for x in range(M // 2 + 1):
        ax2 = a * x * x
        # y = 1: z^2 = a x^2 + b
        if squares[(ax2 + b) % M]:
            return 1
        # z = 1: 1 - a x^2 = b y^2
        if b_squares[(1 - ax2) % M]:
            return 1
    return -1


def support_places(a: Rational, b: Rational) -> list[Place]:
    """Finite support of (a, b): real, 2, and primes dividing either."""
    primes = {2}
    for q in (a, b):
        primes.update(p for p, _ in factorize(_integral(q)))
    return [REAL] + [finite_place(p) for p in sorted(primes)]


def product_formula_check(a: Rational, b: Rational) -> bool:
    """Product of (a, b)_v over the support; must be +1 for a correct
    symbol implementation (symbols are +1 off the support)."""
    prod = 1
    for v in support_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1


def is_local_square(t: Rational, v: Place) -> bool:
    """Membership in Q_v^x2."""
    if t == 0:
        raise ValueError("0 is not in the unit square class group")
    if v.is_real:
        return t > 0
    p = v.p
    e, u = split_valuation(_integral(t), p)
    if e % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def inv_from_symbol(s: int) -> Fraction:
    """Local invariant in Q/Z of a quaternion class: +1 -> 0, -1 -> 1/2."""
    if s == 1:
        return INV_ZERO
    if s == -1:
        return INV_HALF
    raise ValueError(f"not a symbol value: {s}")


def conic_solvable_global(
    alpha: Rational, r: Rational, want_witness: bool = False,
) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """Hasse-Minkowski decision for y^2 - alpha z^2 = r over Q.

    Exact: alpha and r are moved to integers of the same square classes
    (alpha squarefree) and decided by `conic_decide`.  With want_witness,
    a solvable conic also returns a rational point (y, z), found by
    Legendre descent from the square class of r that the decision read
    and checked by substitution (`_conic_point`).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if r == 0:
        return True, (Fraction(0), Fraction(0))
    alpha_sf, alpha_primes = square_class(alpha)
    odd_primes = tuple(p for p in alpha_primes if p != 2)
    r_class = conic_decide(alpha_sf, odd_primes, _integral(r))
    if r_class is None:
        return False, None
    if not want_witness:
        return True, None
    return True, _conic_point(Fraction(alpha), alpha_sf, alpha_primes,
                              Fraction(r), *r_class)


def conic_decide(alpha: int, alpha_primes: tuple[int, ...], *parts: int
                 ) -> Optional[tuple[int, tuple[int, ...]]]:
    """Exact Hasse-Minkowski decision for y^2 - alpha*z^2 = r over Q,
    where r is the product of the nonzero integers ``parts``: None when
    a place rejects, and otherwise the square class (R, primes of R) of
    r, as `chatelet.numbers.square_class` gives it.

    ``alpha`` must be a squarefree integer and ``alpha_primes`` its odd
    primes, each once.  The conic is solvable iff (alpha, r)_v = +1 at
    every place v.  Places are checked cheapest first so that unsolvable
    inputs exit early: the real place, 2 and alpha's primes on r (2 is
    passed over when alpha = 1 mod 8, a square in Q_2, where every
    symbol is +1); then on r the shared primes, the odd primes prime to
    alpha that divide two parts; then the remaining primes of each
    part.  A part's gcd with the product of the parts before it, with 2
    and the primes already checked divided out, holds the shared primes
    that part adds; it is factored (and raises at once if it cannot
    be).

    Every other prime q of a part is odd, prime to alpha and divides
    that part alone, so the symbol there is (alpha/q)^{v_q(part)}, and
    only an inert q, (alpha/q) = -1, of odd exponent rejects.  With 2
    and the checked primes divided out, a part is read by gcds: one with
    the product of the inert primes below 2000 (`_inert_product`) and
    its repeats give the inert primes of each exponent, and
    `chatelet.numbers.strip_primes` removes every prime below 2000.  A
    cofactor below 2003^2 is then 1 or prime, one Legendre symbol; a
    larger one goes through `chatelet.numbers.prime_factors`, which
    stops at the first prime that rejects.  A part whose primes cannot
    all be certified is passed over until the other parts are read, and
    raises only if none of them rejects.  The square class of a
    solvable conic is the cofactors' primes of odd exponent, those of
    the parts' primes below 2000, and 2, alpha's primes and the shared
    primes of odd valuation on r.
    """
    r = math.prod(parts)
    if alpha < 0 and r < 0:
        return None
    for p in alpha_primes if alpha % 8 == 1 else (2, *alpha_primes):
        if _hilbert_int(alpha, r, p) != 1:
            return None
    checked, before = alpha_primes, parts[0]
    for part in parts[1:]:
        g = math.gcd(part, before)
        before *= part
        if g > 1:
            for p in (2, *checked):
                g = split_valuation(g, p)[1]
            for q, _ in prime_factors(g):
                if _hilbert_int(alpha, r, q) != 1:
                    return None
                checked += (q,)
    inert, known = _inert_product(alpha), math.prod(checked)
    odd, smooth = [], []
    uncertified = None
    for part in parts:
        m = strip_primes(abs(part), known)[1]
        g, k, rest = math.gcd(m, inert), 1, m
        while g > 1:
            # g: the inert primes of exponent >= k in the part
            rest //= g
            h = math.gcd(rest, g)
            if k % 2 and h != g:
                return None
            g, k = h, k + 1
        c = strip_primes(m, TRIAL_PRIMORIAL)[1]
        smooth.append(m // c)
        if c < PRIME_COFACTOR_BOUND:
            if c > 1:
                if legendre(alpha, c) == -1:
                    return None
                odd.append(c)
            continue
        try:
            for q, e in prime_factors(c):
                if e % 2:
                    if legendre(alpha, q) == -1:
                        return None
                    odd.append(q)
        except OutOfCertifiedRangeError as err:
            uncertified = err
    if uncertified is not None:
        raise uncertified
    known_primes = (2, *checked)
    odd += [q for s in smooth if s > 1 for q, e in prime_factors(s)
            if e % 2 and q not in known_primes]
    odd += [p for p in known_primes if split_valuation(r, p)[0] % 2]
    odd.sort()
    R = math.prod(odd)
    return (R if r > 0 else -R), tuple(odd)


@functools.cache
def _inert_product(alpha: int) -> int:
    """The product of the odd primes q < 2000 with (alpha/q) = -1."""
    return math.prod(q for q in TRIAL_PRIMES[1:] if legendre(alpha, q) == -1)


def _conic_point(alpha: Fraction, A: int, A_primes: tuple[int, ...],
                 r: Fraction, R: int, R_primes: tuple[int, ...]
                 ) -> tuple[Fraction, Fraction]:
    """A rational point (y, z), y, z >= 0, of y^2 - alpha z^2 = r for a
    conic already decided solvable, with r != 0.

    A and R are the squarefree parts of alpha and r, listed with their
    primes.  Write alpha = A a^2 and r = R s^2 with a, s > 0 rational.
    A nontrivial integer point (x, u, w) of x^2 - A u^2 = R w^2 from
    `_legendre_descent` gives (y, z) = (s x / w, s u / (a w)).  Only
    A = 1 allows w = 0; then alpha = a^2 and the factorization
    (y - a z)(y + a z) = r gives y = (r + 1)/2, z = (r - 1)/(2a).
    The point is checked by substitution before it is returned.
    """
    s = Fraction(math.isqrt(_integral(r) // R), r.denominator)
    a = Fraction(math.isqrt(_integral(alpha) // A), alpha.denominator)
    x, u, w = _legendre_descent(A, A_primes, R, R_primes)
    if w:
        y, z = s * x / w, s * u / (a * w)
    else:
        y, z = (r + 1) / 2, (r - 1) / (2 * a)
    y, z = abs(y), abs(z)
    if y * y - alpha * z * z != r:
        raise ArithmeticError(
            f"({y}, {z}) is not a point of y^2 - ({alpha}) z^2 = {r}")
    return y, z


def _legendre_descent(A: int, A_primes: tuple[int, ...], R: int,
                      R_primes: tuple[int, ...]) -> tuple[int, int, int]:
    """A nontrivial integer point (x, u, w) of x^2 - A u^2 = R w^2.

    A and R are squarefree integers, listed with their primes, and the
    conic must have a rational point.  Lagrange's descent, as made
    effective by Cremona and Rusin (Math. Comp. 72, 2003):

    * base cases: A = 1 gives (1, 1, 0), R = 1 gives (1, 0, 1);
    * otherwise swap so that |A| <= |R| (x^2 - R w^2 = A u^2 is the same
      conic), take t = sqrt(A) mod |R| with |t| <= |R|/2 (A is a square
      modulo each prime of R because the conic is solvable there) and
      write (t^2 - A)/R = c s^2 with c squarefree;
    * R c s^2 = N(t + sqrt A), so the conic x^2 - A u^2 = c w^2 is
      solvable too; from its point (x1, u1, w1) the product
      (x1 + u1 sqrt A)(t + sqrt A) has norm R (c s w1)^2.

    A = R needs no base case of its own: there t = 0 and c = -1.
    |c| <= |t^2 - A|/|R| <= |R|/4 + 1 < |R| once |R| >= 2, so |A| + |R|
    falls at every step.  A point with (x, u) = (0, 0) would force w = 0;
    for A != 1 the product of two nonzero elements of Q(sqrt A) is
    nonzero, so the point stays nontrivial.
    """
    if R == 1:
        return 1, 0, 1
    if A == 1:
        return 1, 1, 0
    if abs(A) > abs(R):
        x, w, u = _legendre_descent(R, R_primes, A, A_primes)
        return x, u, w
    if R == -1:  # then A = -1: x^2 + u^2 = -w^2 has no point
        raise ArithmeticError("x^2 + u^2 = -w^2 has no rational point")
    t = _sqrt_mod_squarefree(A, R_primes)
    m = (t * t - A) // R
    c, c_primes = square_class(m)
    s = math.isqrt(m // c)
    x1, u1, w1 = _legendre_descent(A, A_primes, c, c_primes)
    return x1 * t + A * u1, x1 + t * u1, c * s * w1


def _sqrt_mod_squarefree(a: int, primes: tuple[int, ...]) -> int:
    """t with t^2 = a modulo the product M of the distinct primes and
    |t| <= M/2, by the root modulo each prime of
    `chatelet.numbers.sqrt_mod` and the Chinese remainder theorem."""
    t, M = 0, 1
    for p in primes:
        root = sqrt_mod(a, p)
        if root is None:
            raise ArithmeticError(f"{a} is not a square modulo {p}")
        t += M * ((root - t) * pow(M, -1, p) % p)
        M *= p
    return t - M if 2 * t > M else t

