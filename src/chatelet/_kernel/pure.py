"""The fiber-scan kernel: the hot loop of the rational point search.

``conic_scan`` enumerates x in P^1(Q) by height, evaluates the integer
binary quartic at each point with :func:`chatelet.quartic.evaluate_quartic`,
the package's one quartic formula, and decides the fiber conic with
:func:`chatelet.local.conic_decide`, the package's one Hasse-Minkowski
decision.  Everything here is exact integer arithmetic.

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
from chatelet.quartic import evaluate_quartic, negative_segments


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
    for n in range(H + 1):
        for m in (_unsieved(segments, n, H, top) if n else (1,)):
            if math.gcd(m, n) == 1:
                r = evaluate_quartic(coeffs, m, n)
                if r == 0 or conic_decide(alpha, alpha_odd_primes, r):
                    return m, n
    return None


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
