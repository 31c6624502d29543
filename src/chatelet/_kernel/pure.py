"""The fiber-scan kernel: the hot loop of the rational point search.

``conic_scan`` enumerates x in P^1(Q) by height, evaluates the integer
binary quartic at each point and decides the fiber conic with
:func:`chatelet.local.conic_decide`, the package's one Hasse-Minkowski
decision.  Everything here is exact integer arithmetic.

The scan reads the quartic's one split over Q,
:attr:`chatelet.quartic.BinaryQuartic.factors`: its integer model is
k * f_1 * ... * f_s, and each fiber is decided from the parts
k * f_1(m, n), f_2(m, n), ... rather than from their product, with the
odd primes of alpha.  `conic_decide` finds the primes that two parts
share by a gcd and checks them on the product, so every split is
decided the same way.  An irreducible quartic is one part, its value by
:func:`chatelet.quartic.evaluate_quartic`.

These rules skip fibers before any evaluation, and none changes the
first hit:

* *Real sieve.*  For alpha < 0 the conic y^2 - alpha z^2 = r has no real
  point when r < 0.  At x = m/n, n >= 1, the value n^4 P(m/n) has the
  sign of P(m/n), so every m with m/n strictly inside a segment of
  :func:`chatelet.quartic.negative_segments` is rejected at the real
  place.  Its integer bounds come from exact floor and ceiling of
  Fractions; a zero value can only sit at a root, which lies in an
  isolating interval and never inside a segment.
* *Disc sieve.*  At 2 and at each odd prime p of alpha the scan walks
  the residue discs of :func:`chatelet.quartic.residue_discs` once, to
  the largest depth whose p-power is at most the number of pairs (m, n)
  it visits, about 2H^2, and keeps the discs of constant square class on
  which the symbol (alpha, P~)_p is -1.  On such a disc,
  x = x0 mod p^k with e = v_p(P~(x0)) < k at odd p and e <= k - 3 at
  2, every value is P~(x0)(1 + p^(k-e) t) with t in Z_p, and
  1 + p^(k-e) t is a square in Z_p; so the symbol of the centre holds
  on the whole disc, a fiber there has no Q_p-point, and by
  Hasse-Minkowski no rational one.  A point (m : n) with
  gcd(m, n) = 1 lies at x = m n^-1 in Z_p when p does not divide n,
  and at w = n m^-1 in pZ_p otherwise.  So one `bytes` table of the
  residues of the kept affine discs modulo p^K, K the depth of the
  deepest, and one of the kept discs at infinity reject it by one
  lookup.  Discs with a root, Newton discs and discs still open at the
  walk's depth are never skipped, and a kept disc holds no zero value,
  so no zero fiber is skipped.  The walk may take no more discs than a
  row of the scan has pairs, 2H + 1, so that a scan that stops early
  pays little for it: a p above that, or a walk that needs more, gives
  no table.
* *Closed walk.*  When every disc of the walk at p is a class disc of
  symbol -1, with no root, Newton or open disc, the walk is closed.
  Its discs tile P^1(Z_p), so every point of P^1(Q) lies in one of
  them: every fiber has symbol -1 at p, and none is a zero value, which
  a class disc does not hold.  No fiber of any height has a Q_p-point,
  and the scan returns None before any row.
* *Reciprocity.*  Let P~ = k f_1 f_2 with two irreducible quadratic
  factors, P = k f_1, and let T be oo, 2, the primes of alpha and the
  odd primes of Res(P, f_2) (`chatelet.quartic.form_resultant`).  A
  prime that divides P(m, n) and f_2(m, n) at coprime m, n divides the
  resultant, so every place v outside T is an odd prime, prime to
  alpha, that divides at most one of them, and there
  (alpha, r)_v = (alpha, P)_v for the value r = P f_2.  A fiber with a
  point has (alpha, r)_v = +1 everywhere, so (alpha, P)_v = +1 outside
  T and, by Hilbert reciprocity for (alpha, P), the product of
  (alpha, P)_v over T is +1.  The scan reads one bit of (alpha, P)_v
  at each place of T on the fibers its sieves let through.  At oo it is
  the sign of P on the pieces of `sign_points` where P~ > 0 (for
  alpha < 0; +1 for alpha > 0): P divides P~ over Q, so it has one
  sign on each piece.  It is +1 at 2 when alpha = 1 mod 8 and at the
  split primes of the resultant.  At 2 and alpha's primes it comes from
  the walks of the tables, and at the inert primes of the resultant
  from the same walk there, disc by disc: P has the class of its
  centre on a disc where v_p(P(centre)) < k (<= k - 3 at 2), as on
  every class disc, since v_p(P) <= v_p(P~); otherwise, where f_2 has
  it, (alpha, P)_p equals (alpha, f_2(centre))_p on the fibers of
  symbol +1.  A prime of T without a walk, a disc without a bit or two
  bits at one place leave the scan as it was.  When the bits are known
  and their product is -1, no fiber of any height has a point, and
  none is a zero of P~, which has no rational root: the scan returns
  None before any row.  This is the Brauer-Manin obstruction of the
  class (alpha, f_1) on Iskovskikh's surface and on the constructed
  ones, read off the scan's own walks.
* *Symmetry.*  When c1 = c3 = 0 the form is even in x, so m and -m give
  the same value.  The full loop takes m = -H..H in increasing order,
  so its first hit at each n is the most negative solvable m, which is
  <= 0; the scan stops at m = 0.

Every fiber that is not skipped is evaluated and decided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Optional

from chatelet.local import conic_decide, finite_place, hilbert_symbol
from chatelet.numbers import (
    OutOfCertifiedRangeError,
    legendre,
    prime_factors,
    split_valuation,
)
from chatelet.quartic import (
    BinaryQuartic,
    evaluate_form,
    evaluate_quartic,
    _unit_square_depth,
    form_resultant,
    negative_segments,
    residue_discs,
    sign_points,
)


def conic_scan(quartic: BinaryQuartic, alpha: int, alpha_odd_primes,
               H: int) -> Optional[tuple[int, int]]:
    """The first x = (m : n) in P^1(Q) of height <= H whose fiber conic
    y^2 - alpha*z^2 = value-of-quartic is solvable over Q, or None; the
    values are those of the quartic's integer model.

    Enumerates n = 0 (only (1, 0), i.e. x = infinity) then n = 1..H with
    m = -H..H coprime to n, less the m that the real sieve, the disc
    sieve and the symmetry of the module docstring skip.  A zero quartic
    value counts as solvable (the degenerate fiber carries the point
    (x, 0, 0)).  Each fiber is decided from its parts with the odd
    primes of alpha, ``alpha_odd_primes``.  When the reciprocity rule or
    a closed walk proves that no fiber is solvable, the scan returns
    None before it builds any row.
    """
    coeffs = quartic.integer_square_scaled
    top = 0 if coeffs[1] == coeffs[3] == 0 else H
    # two x of height <= H lie more than 1/(H+1)^2 apart, so an interval
    # this narrow keeps at most one of them from the sieve
    pieces = (sign_points(coeffs, Fraction(1, (H + 1) ** 2))
              if alpha < 0 else [])
    walked, obstructed = _reciprocity(quartic, alpha, alpha_odd_primes, H,
                                      pieces)
    if obstructed:
        return None
    sieves = _disc_sieves(coeffs, alpha, alpha_odd_primes, H, walked)
    if any(sieve[3] for sieve in sieves):
        return None
    segments = (negative_segments(coeffs, pieces=pieces)
                if alpha < 0 else [])
    parts = _fiber_parts(quartic)
    for n in range(H + 1):
        spans = _unsieved(segments, n, H, top) if n else [range(1, 2)]
        row = [m for span in spans for m in span if math.gcd(m, n) == 1]
        for sieve in sieves:
            row = _survivors(sieve, n, row)
        for m in row:
            values = parts(m, n)
            if 0 in values or conic_decide(alpha, alpha_odd_primes, *values):
                return m, n
    return None


def _reciprocity(quartic: BinaryQuartic, alpha: int, alpha_odd_primes,
                 H: int, pieces) -> tuple[dict, bool]:
    """(walked, obstructed): the `_disc_sieve`s made at the finite places
    of T, by prime, and whether the reciprocity rule of the module
    docstring proves that no fiber is solvable.

    The rule needs P~ = k f_1 f_2 with two quadratic factors.  Its bits
    at 2 and alpha's primes come from the scan's own walks, the one at
    oo from `pieces`, those at the split primes of the resultant are
    +1, and those at its inert primes come from their walks.  The
    resultant is computed and factored only when every other bit is
    known; the rule is off when it is 0 or cannot be factored.
    """
    k, forms = quartic.factors
    if len(forms[0]) != 3 or len(forms) != 2:
        return {}, False
    coeffs = quartic.integer_square_scaled
    split = (tuple(k * c for c in forms[0]), forms[1])
    walked = {p: _disc_sieve(coeffs, alpha, p, H, split)
              for p in (2, *alpha_odd_primes)}
    bits = [_real_bit(coeffs, split[0], pieces) if alpha < 0 else 1]
    bits += [_place_bit(alpha, p, walk) for p, walk in walked.items()]
    if 0 in bits:
        return walked, False
    resultant = form_resultant(*split)
    if resultant == 0:
        return walked, False
    try:
        for q, _ in prime_factors(abs(resultant)):
            if q != 2 and q not in walked and legendre(alpha, q) == -1:
                walked[q] = _disc_sieve(coeffs, alpha, q, H, split)
                bits.append(_place_bit(alpha, q, walked[q]))
    except OutOfCertifiedRangeError:
        return walked, False
    return walked, 0 not in bits and math.prod(bits) == -1


def _place_bit(alpha: int, p: int, walk) -> int:
    """The bit of the reciprocity rule at the finite place p: +1 at 2
    when alpha = 1 mod 8, a square in Q_2, so that every symbol there is
    +1; otherwise the bit of p's walk, and 0 without one."""
    if p == 2 and alpha % 8 == 1:
        return 1
    return walk[4] if walk else 0


def _real_bit(coeffs, first, pieces) -> int:
    """(alpha, k f_1)_oo for alpha < 0 at every x where P~ > 0: -1 when
    k f_1 is negative on each piece of `sign_points` where P~ is
    positive, +1 when it is positive on each (or there is no such
    piece), and 0 when it takes both signs.  k f_1 divides P~ over Q, so
    it has no root on a piece and one sign on each."""
    signs = {evaluate_form(first, x, 1) > 0 for _, x, _ in pieces
             if evaluate_quartic(coeffs, x, 1) > 0}
    return 0 if len(signs) > 1 else -1 if False in signs else 1


def _disc_sieves(coeffs, alpha: int, alpha_odd_primes, H: int,
                 walked=None) -> list:
    """The `_disc_sieve`s of a scan of height H at 2 and at the odd
    primes of alpha that have a table, in that order.  A walk already
    made is taken from ``walked``, by prime."""
    walked = walked or {}
    sieves = [walked[p] if p in walked else _disc_sieve(coeffs, alpha, p, H)
              for p in (2, *alpha_odd_primes)]
    return [sieve for sieve in sieves if sieve and (sieve[1] or sieve[2])]


def _depth(p: int, bound: int) -> int:
    """The largest K >= 1 with p^K <= bound, or 1."""
    depth = 1
    while p ** (depth + 1) <= bound:
        depth += 1
    return depth


def _disc_sieve(coeffs, alpha: int, p: int, H: int, split=None):
    """(p, affine, at_infinity, closed, bit): the residue discs of
    `residue_discs` at p on which the symbol (alpha, P~)_p is -1,
    whether they are every disc of the walk, and the bit of the
    reciprocity rule at p; None when p gets no walk.  The affine discs
    make a table read at x = m/n in Z_p and those at infinity one read
    at w = n/m in pZ_p; each is the `_table` of its discs, or None.

    A scan of height H visits 1 + H(2H + 1) pairs (m, n), 2H + 1 to a
    row, and the walk goes to the largest depth K with p^K at most the
    number of pairs.  It must cost no more than a row, so it gets no
    more than 2H + 1 discs: a p above that gets no walk, and a walk that
    needs more is dropped.  A scan that stops early then pays little
    for its tables.

    When every disc is a class disc of symbol -1 the walk is closed,
    and no fiber has a Q_p-point (module docstring).

    With the factors ``split`` = (k f_1, f_2) of the reciprocity rule,
    the bit is the `_split_bit` that every disc outside the tables
    shares (+1 when there is no such disc), and 0 when one of them has
    none or two of them differ, or without ``split``.
    """
    pairs, row = 1 + H * (2 * H + 1), 2 * H + 1
    if p > row:
        return None
    discs = list(islice(residue_discs(coeffs, p, _depth(p, pairs)),
                        row + 1))
    if len(discs) > row:
        return None
    place = finite_place(p)
    affine, at_infinity, bits = [], [], set()
    for (m, n), k, kind in discs:
        if kind == "class" and hilbert_symbol(
                alpha, evaluate_quartic(coeffs, m, n), place) == -1:
            # the disc is the residues of m, or at infinity of n, mod p^k
            if n == 1:
                affine.append((m, p**k))
            else:
                at_infinity.append((n, p**k))
        elif split:
            bits.add(_split_bit(alpha, split, (m, n), k, place))
    bit = 0
    if split and 0 not in bits and len(bits) < 2:
        bit = bits.pop() if bits else 1
    closed = len(affine) + len(at_infinity) == len(discs)
    return p, _table(affine), _table(at_infinity), closed, bit


def _split_bit(alpha: int, split, centre, k: int, place) -> int:
    """The symbol (alpha, k f_1)_p at every fiber of the disc (centre, k)
    whose symbol (alpha, P~)_p is +1, or 0 when the rule below does not
    give it.

    When v_p(k f_1(centre)) < k (<= k - 3 at 2), k f_1 has the square
    class of its centre on the disc, by the rule of `residue_discs`'
    class discs; this holds on every class disc of P~.  Otherwise, when
    f_2 has it, (alpha, k f_1)_p = (alpha, P~)_p (alpha, f_2)_p is
    (alpha, f_2(centre))_p at those fibers.  So a Newton disc or an open
    one gets a bit when it is about a root of one factor, away from the
    roots of the other.
    """
    p, low = place.p, _unit_square_depth(place.p)
    for f in split:
        value = evaluate_form(f, *centre)
        if value and split_valuation(value, p)[0] <= k - low:
            return hilbert_symbol(alpha, value, place)
    return 0


def _table(discs):
    """(p^K, bytes) with entry 1 on the residues start mod step of each
    disc (start, step), K the depth of the deepest; None for no disc."""
    if not discs:
        return None
    modulus = max(step for _, step in discs)
    table = bytearray(modulus)
    for start, step in discs:
        table[start::step] = b"\x01" * (modulus // step)
    return modulus, bytes(table)


def _survivors(sieve, n: int, row: list[int]) -> list[int]:
    """The m of the row whose point (m : n), gcd(m, n) = 1, lies in no
    disc of the sieve: its tables are read at x = m n^-1 mod p^K when p
    does not divide n, and otherwise at w = n m^-1 mod p^K, m being a
    unit at p."""
    p, affine, at_infinity = sieve[:3]
    if n % p:
        if affine is None or not row:
            return row
        modulus, table = affine
        u = pow(n, -1, modulus)
        return [m for m in row if not table[m * u % modulus]]
    if at_infinity is None or not row:
        return row
    modulus, table = at_infinity
    return [m for m in row if not table[n * pow(m, -1, modulus) % modulus]]


def _fiber_parts(quartic: BinaryQuartic):
    """The function of (m, n) that gives the parts k * f_1(m, n),
    f_2(m, n), ... of the value of the quartic's integer model."""
    k, forms = quartic.factors
    evaluators = [_evaluator(tuple(k * c for c in forms[0]))]
    evaluators += [_evaluator(f) for f in forms[1:]]
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


def _unsieved(segments, n: int, H: int, top: int) -> list[range]:
    """The ranges of the m in -H..top, in increasing order, with m/n in
    no segment.

    m/n lies in the open segment (left, right) iff
    floor(left*n) < m < ceil(right*n), both read in integers from the
    ends' numerators and denominators; the segments are disjoint and
    increasing, so these ranges are too.
    """
    spans, start = [], -H
    for left, right in segments:
        stop = -H if left is None else \
            left.numerator * n // left.denominator + 1
        if start < stop:
            spans.append(range(start, min(stop, top + 1)))
        if right is None:
            return spans
        start = max(start, -(-right.numerator * n // right.denominator))
        if start > top:
            return spans
    spans.append(range(start, top + 1))
    return spans
