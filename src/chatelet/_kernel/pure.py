"""The fiber-scan kernel: the hot loop of the rational point search.

``conic_scan`` enumerates x in P^1(Q) by height, evaluates the integer
binary quartic at each point and decides the fiber conic with
:func:`chatelet.local.conic_decide`, the package's one Hasse-Minkowski
decision.  Everything here is exact integer arithmetic.

The scan reads the quartic's one split over Q,
:attr:`chatelet.quartic.BinaryQuartic.factors`, the parts k f_1, f_2,
..., f_s of its integer model, and decides each fiber from their values
rather than from their product, with the odd primes of alpha.
`conic_decide` finds the primes that two parts
share by a gcd and checks them on the product, so every split is
decided the same way.  An irreducible quartic is one part, its value by
:func:`chatelet.quartic.evaluate_quartic`.

*Symmetry.*  When c1 = c3 = 0 the form is even in x, so m and -m give
the same value.  The full loop takes m = -H..H in increasing order, so
its first hit at each n is the most negative solvable m, which is
<= 0; the scan stops at m = 0.  No other fiber is skipped: surfaces
whose fibers all fail a place are settled before the scan, by
`chatelet.surface.rational_point_search`.
"""

from __future__ import annotations

import math
from typing import Optional

from chatelet.local import conic_decide
from chatelet.quartic import BinaryQuartic, evaluate_form, evaluate_quartic


def conic_scan(quartic: BinaryQuartic, alpha: int, alpha_odd_primes,
               H: int) -> Optional[tuple[int, int]]:
    """The first x = (m : n) in P^1(Q) of height <= H whose fiber conic
    y^2 - alpha*z^2 = value-of-quartic is solvable over Q, or None; the
    values are those of the quartic's integer model.

    Enumerates n = 0 (only (1, 0), i.e. x = infinity) then n = 1..H with
    the m in -H..H coprime to n, less the m > 0 that the symmetry of the
    module docstring skips.  A zero quartic value counts as solvable
    (the degenerate fiber carries the point (x, 0, 0)).  Each fiber is
    decided from its parts with the odd primes of alpha,
    ``alpha_odd_primes``.
    """
    coeffs = quartic.integer_square_scaled
    top = 0 if coeffs[1] == coeffs[3] == 0 else H
    parts = _fiber_parts(quartic)
    for n in range(H + 1):
        for m in range(-H, top + 1) if n else (1,):
            if math.gcd(m, n) == 1:
                values = parts(m, n)
                if 0 in values or conic_decide(alpha, alpha_odd_primes,
                                               *values):
                    return m, n
    return None


def _fiber_parts(quartic: BinaryQuartic):
    """The function of (m, n) that gives the values of the parts
    k f_1, f_2, ... of `BinaryQuartic.factors`, read as they are."""
    evaluators = [_evaluator(f) for f in quartic.factors]
    return lambda m, n: [e(m, n) for e in evaluators]


def _evaluator(f):
    """The function (m, n) -> f(m, n) of a factor f of degree 1 to 4:
    `evaluate_form`, unrolled for all but degree 3, since the scan calls
    it at every fiber."""
    if len(f) == 2:
        c0, c1 = f
        return lambda m, n: c1 * m + c0 * n
    if len(f) == 3:
        c0, c1, c2 = f
        return lambda m, n: (c2 * m + c1 * n) * m + c0 * n * n
    if len(f) == 5:
        return lambda m, n: evaluate_quartic(f, m, n)
    return lambda m, n: evaluate_form(f, m, n)
