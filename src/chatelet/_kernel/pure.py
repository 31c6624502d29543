"""The fiber-scan kernel: the hot loop of the rational point search.

``conic_scan`` enumerates x in P^1(Q) by height, evaluates the integer
binary quartic at each point and decides the fiber conic with
:func:`chatelet.local.conic_decide`, the package's one Hasse-Minkowski
decision.  Everything here is exact integer arithmetic.

The quartic is split once per scan by
:func:`chatelet.quartic.rational_factors` into k * f_1 * ... * f_s, and
each fiber is decided from the parts k * f_1(m, n), f_2(m, n), ...
rather than from their product.  `conic_decide` checks the real place,
2 and a set of checked primes on the product, and reads the remaining
primes of each part on its own; that is exact when no prime outside the
checked set divides two parts.  So the checked primes are the odd
primes of alpha, of k and of each resultant Res(f_i, f_j): a prime
that divides f_i(m, n) and f_j(m, n) at coprime (m, n) divides
Res(f_i, f_j).  An irreducible quartic is one part, its value by
:func:`chatelet.quartic.evaluate_quartic`, with the odd primes of alpha
checked.  So is a split quartic whose k or resultants cannot be
factored with certified primes, or have a zero resultant (a repeated
factor).

Two rules skip fibers before any evaluation, and neither changes the
first hit:

* *Real sieve.*  For alpha < 0 the conic y^2 - alpha z^2 = r has no real
  point when r < 0.  At x = m/n, n >= 1, the value n^4 P(m/n) has the
  sign of P(m/n), so every m with m/n strictly inside a segment of
  :func:`chatelet.quartic.negative_segments` is rejected at the real
  place.  Its integer bounds come from exact floor and ceiling of
  Fractions; a zero value can only sit at a root, which lies in an
  isolating interval and never inside a segment.
* *Symmetry.*  When c1 = c3 = 0 the form is even in x, so m and -m give
  the same value.  The full loop takes m = -H..H in increasing order,
  so its first hit at each n is the most negative solvable m, which is
  <= 0; the scan stops at m = 0.

Every fiber that is not skipped is evaluated and decided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from chatelet.local import conic_decide
from chatelet.numbers import OutOfCertifiedRangeError, factorize
from chatelet.quartic import (
    evaluate_form,
    evaluate_quartic,
    form_resultant,
    negative_segments,
    rational_factors,
)


def conic_scan(coeffs, alpha: int, alpha_odd_primes,
               H: int) -> Optional[tuple[int, int]]:
    """The first x = (m : n) in P^1(Q) of height <= H whose fiber conic
    y^2 - alpha*z^2 = value-of-quartic is solvable over Q, or None.

    Enumerates n = 0 (only (1, 0), i.e. x = infinity) then n = 1..H with
    m = -H..H coprime to n, less the m that the real sieve and the
    symmetry of the module docstring skip.  A zero quartic value counts
    as solvable (the degenerate fiber carries the point (x, 0, 0)).
    """
    top = 0 if coeffs[1] == coeffs[3] == 0 else H
    # two x of height <= H lie more than 1/(H+1)^2 apart, so an interval
    # this narrow keeps at most one of them from the sieve
    segments = (negative_segments(coeffs, Fraction(1, (H + 1) ** 2))
                if alpha < 0 else [])
    checked, parts = _fiber_parts(coeffs, alpha_odd_primes)
    for n in range(H + 1):
        for m in (_unsieved(segments, n, H, top) if n else (1,)):
            if math.gcd(m, n) == 1:
                values = parts(m, n)
                if 0 in values or conic_decide(alpha, checked, *values):
                    return m, n
    return None


def _fiber_parts(coeffs, alpha_odd_primes):
    """(checked primes, parts): the primes that `conic_decide` checks on
    the product, and the function of (m, n) that gives the parts of the
    quartic's value, as the module docstring sets out."""
    k, forms = rational_factors(coeffs)
    whole = (alpha_odd_primes,
             lambda m, n: [evaluate_quartic(coeffs, m, n)])
    if len(forms) == 1:
        return whole
    # every prime that two parts can share divides one of these
    suspects = [k] + [form_resultant(f, g) for i, f in enumerate(forms)
                      for g in forms[i + 1:]]
    if 0 in suspects:
        return whole
    try:
        extra = {p for b in suspects for p in factorize(b).primes()}
    except OutOfCertifiedRangeError:
        return whole
    checked = alpha_odd_primes + tuple(
        sorted(extra - {2} - set(alpha_odd_primes)))
    evaluators = [_evaluator(tuple(k * c for c in forms[0]))]
    evaluators += [_evaluator(f) for f in forms[1:]]
    return checked, lambda m, n: [e(m, n) for e in evaluators]


def _evaluator(f):
    """The function (m, n) -> f(m, n) of a factor f of degree 1, 2 or 3:
    `evaluate_form`, unrolled for the degrees that the surfaces' split
    quartics have, since the scan calls it at every fiber."""
    if len(f) == 2:
        c0, c1 = f
        return lambda m, n: c1 * m + c0 * n
    if len(f) == 3:
        c0, c1, c2 = f
        return lambda m, n: (c2 * m + c1 * n) * m + c0 * n * n
    return lambda m, n: evaluate_form(f, m, n)


def _unsieved(segments, n: int, H: int, top: int):
    """The m in -H..top, in increasing order, with m/n in no segment.

    m/n lies in the open segment (left, right) iff
    floor(left*n) < m < ceil(right*n); the segments are disjoint and
    increasing, so these ranges are too.
    """
    start = -H
    for left, right in segments:
        stop = -H if left is None else math.floor(left * n) + 1
        yield from range(start, min(stop, top + 1))
        if right is None:
            return
        start = max(start, math.ceil(right * n))
    yield from range(start, top + 1)
