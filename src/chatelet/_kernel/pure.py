"""The fiber-scan kernel: the hot loop of the rational point search.

``conic_scan`` enumerates x in P^1(Q) by height, evaluates the integer
binary quartic at each point with :func:`chatelet.quartic.evaluate_quartic`,
the package's one quartic formula, and decides the fiber conic with
:func:`chatelet.local.conic_decide`, the package's one Hasse-Minkowski
decision.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Optional

from chatelet.local import conic_decide
from chatelet.quartic import evaluate_quartic


def conic_scan(coeffs, alpha: int, alpha_odd_primes,
               H: int) -> Optional[tuple[int, int]]:
    """The first x = (m : n) in P^1(Q) of height <= H whose fiber conic
    y^2 - alpha*z^2 = value-of-quartic is solvable over Q, or None.

    Enumerates n = 0 (only (1, 0), i.e. x = infinity) then n = 1..H with
    m = -H..H coprime to n.  A zero quartic value counts as solvable
    (the degenerate fiber carries the point (x, 0, 0)).
    """
    for n in range(H + 1):
        for m in (range(-H, H + 1) if n else (1,)):
            if math.gcd(m, n) == 1:
                r = evaluate_quartic(coeffs, m, n)
                if r == 0 or conic_decide(alpha, alpha_odd_primes, r):
                    return m, n
    return None
