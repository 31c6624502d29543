"""Binary quartic forms over Q: evaluation, the integer model, the
discriminant, the factorization over Q and the real roots.

A Chatelet surface y^2 - alpha z^2 = P(x) is stored through the binary
quartic P~(w, x) = w^4 P(x / w), whose coefficients are those of P;
`BinaryQuartic` is the package's one quartic type and its affine value
P(x) = P~(1, x) is ``q(x)``.  `evaluate_quartic` is the one formula for
its value: the form's methods call it on Fractions and the fiber scan of
`chatelet._kernel.pure` calls it on the integer model.  `evaluate_form`
is the same Horner rule for binary forms of any degree, and at w = 1
for polynomials in one variable.
`rational_factors` splits the integer model into k f_1 f_2 ... over Q,
with primitive irreducible f_i; `BinaryQuartic.factors` folds k into
f_1, once per form.  Its parts are what `quartic_irreducible` counts,
what the fiber scan decides each fiber from, and what the reciprocity
bits and sampled invariants of the class (alpha, k f_1) read;
`form_resultant` bounds the primes that two parts share, for the bits.
`real_root_intervals` is the one real-root isolation, for univariate
polynomials of any degree: Descartes' rule of signs with bisection on
the squarefree part, in exact integer arithmetic.  `rational_roots`
bisects each interval over the integers y, for a root y / a with a the
leading coefficient; `rational_factors` and the bad fibers of
`chatelet.bundle` use them.  `sign_points` is the one walk over its
intervals: one rational point on each piece of the real line where P
has one sign.  `residue_discs` is the one p-adic walk:
residue discs that tile P^1(Z_p), each of one square class
(`one_square_class`), centred at a root, holding one by Newton's
criterion, or left open at a given depth.  These points and discs are
the one tiling of each place that `chatelet.surface` walks, for its
local table and its reciprocity bits alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Optional

from chatelet.numbers import (
    Rational,
    clear_denominators,
    partial_factorize,
    split_valuation,
)

__all__ = ["BinaryQuartic", "evaluate_form", "evaluate_quartic",
           "form_resultant", "one_square_class", "quartic_disc",
           "quartic_irreducible", "rational_factors", "rational_roots",
           "real_root_intervals", "residue_discs", "sign_points"]


def evaluate_quartic(coeffs, m, n):
    """Binary quartic sum(c_i * x^i * w^(4-i)) at (w, x) = (n, m), by an
    unrolled binary Horner rule.  Integer inputs stay in int arithmetic;
    Fraction inputs give a Fraction."""
    c0, c1, c2, c3, c4 = coeffs
    return (((c4 * m + c3 * n) * m + c2 * n * n) * m
            + c1 * n**3) * m + c0 * n**4


class BinaryQuartic(namedtuple("BinaryQuartic", "coeffs")):
    """Form sum coeffs[i] * x^i * w^(4-i), not identically 0; coeffs is
    a tuple of five Fractions.  No __slots__: the cached properties live
    in the instance __dict__."""

    def __new__(cls, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != 5:
            raise ValueError("need exactly 5 coefficients")
        if all(c == 0 for c in coeffs):
            raise ValueError("form is identically zero")
        return super().__new__(cls, coeffs)

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
        den, ints = clear_denominators(self.coeffs)
        ints = [c * den for c in ints]
        s = 1
        for p, e in partial_factorize(math.gcd(*ints))[0]:
            s *= p ** (e // 2)
        return tuple(c // (s * s) for c in ints)

    @cached_property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        """The one split of the form over Q: the parts k f_1, f_2, ... of
        the `rational_factors` (k, [f_1, f_2, ...]) of
        `integer_square_scaled`, whose product is that model.  Only here
        is k folded into a factor; every reader reads these parts."""
        k, (first, *rest) = rational_factors(self.integer_square_scaled)
        return (tuple(k * c for c in first), *rest)


def quartic_disc(q: BinaryQuartic) -> Fraction:
    """Discriminant of the binary quartic form.

    Zero exactly when the form has a repeated root in P^1 over the
    algebraic closure (roots at infinity included).
    """
    den, ints = clear_denominators(q.coeffs)
    return Fraction(disc_from_coeffs(ints), den**6)


def disc_from_coeffs(coeffs):
    """The standard degree-6 integer polynomial in the coefficients
    c0..c4 of sum c_i x^i w^(4-i).  Ring-agnostic: the coefficients may
    be ints or Fractions."""
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


def _primitive(f: list[int]) -> list[int]:
    """The integer polynomial f (low degree first) divided by its content
    and sign, so that its leading coefficient is positive, with high zero
    coefficients dropped; [] for the zero polynomial."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return []
    g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """The remainder of lc(g)^k f on division by g != 0, for integer
    polynomials, with the least k that keeps it integral."""
    f = list(f)
    while len(f) >= len(g):
        c, shift = f[-1], len(f) - len(g)
        f = [g[-1] * a for a in f]
        for i, b in enumerate(g):
            f[shift + i] -= c * b
        while f and f[-1] == 0:
            f.pop()
    return f


def _squarefree(coeffs) -> list[int]:
    """The squarefree part f / gcd(f, f') of f = sum c_i x^i (ints or
    Fractions), as a primitive integer polynomial with positive leading
    coefficient: the same distinct roots, each simple."""
    f = _primitive(clear_denominators(coeffs)[1])
    if not f:
        raise ValueError("the zero polynomial has no isolated roots")
    g, h = f, _primitive(_derivative(f))
    while h:  # Euclid on primitive parts: g ends as gcd(f, f')
        g, h = h, _primitive(_pseudo_remainder(g, h))
    return _exact_quotient(f, g)


def _exact_quotient(f: list[int], g: list[int]) -> list[int]:
    """f / g for integer polynomials where g divides f with an integral
    quotient, as it does when g is primitive (Gauss's lemma)."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in reversed(range(len(q))):
        q[k] = f[k + len(g) - 1] // g[-1]
        for i, b in enumerate(g):
            f[k + i] -= q[k] * b
    return q


def evaluate_form(coeffs, m, n):
    """The binary form sum(c_i * x^i * w^(d-i)) of degree d =
    len(coeffs) - 1 at (w, x) = (n, m), by the homogeneous Horner rule;
    at n = 1 it is the polynomial sum(c_i * m^i).  `evaluate_quartic` is
    its unrolled case d = 4."""
    acc, nk = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        nk *= n
        acc = acc * m + c * nk
    return acc


def _sign_at(f: list[int], m: int, n: int) -> int:
    """The sign of f(m/n), n > 0, for an integer polynomial f, from the
    integer n^deg(f) f(m/n) (`evaluate_form` at (w, x) = (n, m))."""
    acc = evaluate_form(f, m, n)
    return (acc > 0) - (acc < 0)


def _taylor_shift(f: list[int]) -> list[int]:
    """f(y + 1), by n(n+1)/2 additions."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += f[j + 1]
    return f


def _sign_changes(f: list[int]) -> int:
    signs = [c > 0 for c in f if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _unit_intervals(g: list[int]) -> list[tuple[Fraction, Fraction]]:
    """The roots of the squarefree integer polynomial g in the open unit
    interval (0, 1), by Descartes' rule of signs with bisection
    (Collins and Akritas, SYMSAC 1976).

    A dyadic interval I = (c/2^k, (c+1)/2^k) is carried as the
    polynomial h(y) = 2^(kn) g((c + y)/2^k), whose roots in (0, 1) are
    those of g in I.  The sign changes of (y+1)^n h(1/(y+1)) bound their
    number and have its parity: none means no root, one means exactly
    one.  I is kept when it holds one root and neither end is a root
    (h(0), h(1) != 0); otherwise it is halved, and a root at its
    midpoint is kept as [m, m].  The halves of I are carried by
    2^n h(y/2) and its shift by 1.  Bisection ends because g is
    squarefree: a small enough interval has no root nearby, or one root
    away from its ends.
    """
    n = len(g) - 1
    out = []
    stack = [(g, 0, 0)]
    while stack:
        h, c, k = stack.pop()
        count = _sign_changes(_taylor_shift(h[::-1]))
        if count == 0:
            continue
        if count == 1 and h[0] and sum(h):
            out.append((Fraction(c, 1 << k), Fraction(c + 1, 1 << k)))
            continue
        left = [a << (n - i) for i, a in enumerate(h)]
        right = _taylor_shift(left)
        if right[0] == 0:
            mid = Fraction(2 * c + 1, 1 << (k + 1))
            out.append((mid, mid))
        stack += [(right, 2 * c + 1, k + 1), (left, 2 * c, k + 1)]
    return out


def _root_intervals(f: list[int]) -> list[tuple[Fraction, Fraction]]:
    """`real_root_intervals` of the squarefree primitive f."""
    n = len(f) - 1
    if n == 0:
        return []
    # Fujiwara's bound: every root has |x| <= 2 max_i |f_(n-i) / f_n|^(1/i),
    # and each term is below 2^e when 2^(e i) f_n > |f_(n-i)|
    e = 0
    for i in range(1, n + 1):
        while f[-1] << (e * i) <= abs(f[n - i]):
            e += 1
    B = 2 << e
    intervals = [(Fraction(0), Fraction(0))] if f[0] == 0 else []
    for side in (B, -B):
        # the roots of f(side * y) in (0, 1) are those of f in (0, B),
        # or in (-B, 0)
        g = [c * side**i for i, c in enumerate(f)]
        intervals += [tuple(sorted((side * lo, side * hi)))
                      for lo, hi in _unit_intervals(g)]
    return sorted(intervals)


def real_root_intervals(coeffs) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of P(x) = sum c_i x^i, of
    any degree, by Descartes' rule of signs with bisection on its
    squarefree part: closed intervals [lo, hi] with rational
    ends, in increasing order and pairwise disjoint except that
    neighbours may share an end, each holding exactly one root and
    together all of them.  A rational root may come as [r, r]."""
    return _root_intervals(_squarefree(coeffs))


def rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots of P(x) = sum c_i x^i, in increasing
    order.

    Let f be the squarefree primitive integer part of P, with leading
    coefficient a > 0.  A root p/q in lowest terms has q | a, so it is
    y / a for an integer y.  On each isolating interval [lo, hi],
    bisection over the integers y in [ceil(a lo), floor(a hi)] finds the
    least y / a past the sign change of f, each sign read from the
    integer `evaluate_form`(f, y, a); y is kept when f(y / a) = 0 and
    y <= floor(a hi), so that no root of the next interval is taken.
    """
    f = _squarefree(coeffs)
    a = f[-1]
    roots = []
    for lo, hi in _root_intervals(f):
        s = _sign_at(f, lo.numerator, lo.denominator)
        y = -(-a * lo.numerator // lo.denominator)  # ceil(a lo)
        top = end = a * hi.numerator // hi.denominator + 1  # floor(a hi) + 1
        while y < end:
            mid = (y + end) // 2
            if s * _sign_at(f, mid, a) > 0:
                y = mid + 1
            else:
                end = mid
        if y < top and _sign_at(f, y, a) == 0:
            roots.append(Fraction(y, a))
    return roots


def sign_points(coeffs) -> list[tuple[Optional[Fraction], Fraction,
                                      Optional[Fraction]]]:
    """One rational point on each piece of the real line where
    P(x) = form(1, x) has one sign, as triples (left, x, right) in
    increasing order; None stands for -oo or +oo.

    The pieces come from the intervals of `real_root_intervals`: each
    open segment (left, right) between or beyond them, with x inside it,
    and each end x that two neighbouring intervals share, given as
    (x, x, x).  No root lies on a piece: a segment avoids every
    interval, and a shared end that were a root would be the one root of
    both intervals.  So a shared end lies strictly between its two
    roots, and when the roots of P are simple, so that P changes sign at
    each of them, every region where P has one sign holds a piece.
    """
    ends: list[Optional[Fraction]] = [None]
    for lo, hi in real_root_intervals(coeffs):
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


def residue_discs(coeffs, p: int, depth: int):
    """The residue discs that tile P^1(Z_p) for the integer binary
    quartic P~ = sum c_i x^i w^(4-i), as (centre, k, kind) in depth-first
    order.

    A disc is a projective point centre = (m, n) and a depth k >= 1: the
    affine disc x = m mod p^k, from the centres (x0, 1) with
    x0 = 0..p-1, or the disc at infinity (1, w) with w = n mod p^k, from
    the centre (1, 0) with w = 0 mod p.  Its kind is
    * "root": P~(centre) = 0;
    * "class": P~ has one square class on the disc, that of P~(centre):
      every value on the disc is P~(centre) + p^k t with t in Z_p, so
      this holds when `one_square_class` holds for e = v_p(P~(centre));
    * "newton": Newton's criterion e > 2 v_p(P~'(centre)) holds in the
      disc's chart, so the disc holds a Q_p-root of P~;
    * "open": none of these by depth k = `depth`.
    Any other disc is split into its p children, the affine ones
    m + j p^k or those at infinity n + j p^k, j = 0..p-1.  The walk ends:
    off the roots of P~ the valuations are bounded, and at a simple root
    Newton's criterion holds on a small enough disc.
    """
    # the derivatives of P~(1, x) and P~(w, 1), for the Newton criterion
    df_x, df_w = _derivative(coeffs), _derivative(coeffs[::-1])
    # one iterator of sibling centres per depth, so memory stays
    # O(depth) however large p is
    stack = [(chain(zip(range(p), repeat(1)), [(1, 0)]), 1)]
    while stack:
        centres, k = stack[-1]
        centre = next(centres, None)
        if centre is None:
            stack.pop()
            continue
        m, n = centre
        value = evaluate_quartic(coeffs, m, n)
        if value == 0:
            yield centre, k, "root"
            continue
        e = split_valuation(value, p)[0]
        if one_square_class(e, k, p):
            yield centre, k, "class"
            continue
        affine = n == 1
        deriv = (evaluate_form(df_x, m, 1) if affine
                 else evaluate_form(df_w, n, 1))
        if deriv and e > 2 * split_valuation(deriv, p)[0]:
            yield centre, k, "newton"
        elif k >= depth:
            yield centre, k, "open"
        else:
            step = p**k
            children = (zip(range(m, m + p * step, step), repeat(1))
                        if affine else
                        zip(repeat(1), range(n, n + p * step, step)))
            stack.append((children, k + 1))


def one_square_class(e: int, k: int, p: int) -> bool:
    """Whether every u + p^k t, t in Z_p, has the square class of u, for
    a nonzero p-adic u of valuation e: it does when e <= k - 1 at odd p
    and e <= k - 3 at p = 2.  The rule of the class discs of
    `residue_discs` and of the reciprocity bits of `chatelet.surface`.

    Write u = p^e u0 with u0 a unit: u + p^k t = u (1 + p^j t') with
    j = k - e and t' = t / u0 in Z_p, and by Hensel's lemma 1 + p^j t'
    is a square in Z_p once j >= 1 at odd p and j >= 3 at 2.
    """
    return e <= k - (3 if p == 2 else 1)


def _derivative(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0,)


def rational_factors(ints) -> tuple[int, list[tuple[int, ...]]]:
    """The factorization of the integer binary quartic
    sum c_i x^i w^(4-i) over Q: (k, forms) with an integer k and
    primitive, irreducible integer binary forms f_i (coefficient tuples,
    low x-degree first, of length degree + 1, with a positive last
    nonzero coefficient) such that k * prod(f_i) is the quartic.  The
    forms are listed by degree, then by coefficients.

    If the dehomogenization f has degree d < 4, the form is w^(4-d)
    times f, and w is the form (1, 0).  Linear factors of f come from
    its rational roots: the root p/q in lowest terms gives q x - p.  The
    part g left without a rational root is irreducible unless it is a
    quartic that splits into two quadratics.  That happens iff the
    resolvent cubic of its monic transform
    e^3 g(y/e) = y^4 + a y^3 + b y^2 + c y + d, e the leading
    coefficient of g,
    R(r) = r^3 - b r^2 + (ac - 4d) r - (a^2 d - 4bd + c^2), has a
    rational root r for which r^2 - 4d and a^2 - 4(b - r) are both
    squares (Kappe and Warren, Amer. Math. Monthly 96, 1989): for the
    split (y^2 + s y + u)(y^2 + s' y + u'), r = u + u' is the root, and
    u, u' and s, s' are the roots of t^2 - r t + d and t^2 - a t + (b - r).
    Which s goes with which u is settled by multiplying out; y = e x
    then gives the two quadratics in x.
    """
    d = max(i for i, c in enumerate(ints) if c)
    f = list(ints[:d + 1])
    factors = []
    for root in rational_roots(f):
        linear = (-root.numerator, root.denominator)
        while _sign_at(f, root.numerator, root.denominator) == 0:
            f = _exact_quotient(f, linear)
            factors.append(linear)
    if len(f) == 5:
        factors += _quadratic_pair(f) or [tuple(_primitive(f))]
    elif len(f) > 1:
        factors.append(tuple(_primitive(f)))
    k = ints[d] // math.prod(g[-1] for g in factors)
    return k, sorted([(1, 0)] * (4 - d) + factors,
                     key=lambda g: (len(g), g))


def _quadratic_pair(f: list[int]) -> Optional[list[tuple[int, ...]]]:
    """The two primitive quadratic factors of the integer quartic f with
    no rational root, or None when it is irreducible; see
    `rational_factors`."""
    c0, c1, c2, c3, c4 = f
    a, b, c, d = c3, c2 * c4, c1 * c4**2, c0 * c4**3
    # R is monic with integer coefficients, so its rational roots are
    # integers, and so are u, u', s and s'
    for r in rational_roots([-(a * a * d - 4 * b * d + c * c),
                             a * c - 4 * d, -b, 1]):
        r = r.numerator
        du, ds = r * r - 4 * d, a * a - 4 * (b - r)
        if not (_is_square(du) and _is_square(ds)):
            continue
        u, s = (r + math.isqrt(du)) // 2, (a + math.isqrt(ds)) // 2
        for u1 in (u, r - u):
            pair = [(u1, s, 1), (r - u1, a - s, 1)]
            if _times(*pair) == [d, c, b, a, 1]:
                # y = c4 x: y^2 + s y + u is c4^2 x^2 + s c4 x + u
                return [tuple(_primitive([u0, s0 * c4, c4 * c4]))
                        for u0, s0, _ in pair]
    return None


def _times(f, g) -> list[int]:
    """The product of two polynomials, low degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def form_resultant(f, g) -> int:
    """The resultant of two integer binary forms of degrees >= 1, given
    as in `rational_factors`: the determinant of their Sylvester matrix
    in the coefficients of x^d, ..., w^d.  A prime that divides f(w, x)
    and g(w, x) at coprime integers w, x divides it."""
    d, e = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(f[::-1]) + [0] * (e - 1 - i) for i in range(e)]
    rows += [[0] * i + list(g[::-1]) + [0] * (d - 1 - i) for i in range(d)]
    return _determinant(rows)


def _determinant(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss's
    fraction-free elimination: every division is exact."""
    rows = [list(row) for row in rows]
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


def quartic_irreducible(q: BinaryQuartic) -> bool:
    """Is the form irreducible in Q[w, x]?  It is when its split
    `BinaryQuartic.factors` has one part; none of this depends on the
    integer model's content or sign."""
    return len(q.factors) == 1


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n
