"""Chatelet surfaces y^2 - alpha z^2 = P(x): construction, exact local
solvability, the quaternion Brauer class and its obstruction, proved
from the class's reciprocity bits, and height-bounded global point
search.

The central construction takes primes a, b = 1 mod 8 with a a non-square
mod b and c with b | ac+1, and builds the surface

    y^2 - ab z^2 = (x^2 + c)(a x^2 + ac + 1),

which has points over every completion of Q but no rational point.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional, Union

from chatelet._kernel.pure import conic_scan
from chatelet.local import (
    REAL,
    Place,
    conic_point,
    finite_place,
    hilbert_symbol,
    inv_from_symbol,
    is_local_square,
)
from chatelet.numbers import (
    OutOfCertifiedRangeError,
    Rational,
    factorize,
    is_prime,
    legendre,
    partial_factorize,
    prime_factors,
    split_valuation,
    square_class,
    valuation,
)
from chatelet.quartic import (
    BinaryQuartic,
    disc_from_coeffs,
    evaluate_form,
    evaluate_quartic,
    form_resultant,
    one_square_class,
    quartic_disc,
    residue_discs,
    sign_points,
)

__all__ = [
    "ChateletParams", "ChateletSurface", "CertifiedLocalX",
    "LocalPlaceResult", "LocalReport", "ObstructionReport", "SearchResult",
    "find_params", "build_surface", "iskovskikh", "bad_places",
    "local_solvable_surface", "verify_local_everywhere",
    "eval_invariant_all_reps", "sample_certified_points", "obstruction_report",
    "rational_point_search", "surface_to_json", "surface_from_json",
    "ParamSearchError", "InsufficientPointsError",
]

ProjectivePoint = tuple[int, int]  # x = (m : n) in P^1(Q); (1, 0) is infinity

INFINITY: ProjectivePoint = (1, 0)


class ParamSearchError(ValueError):
    """No admissible (a, b, c) below the requested bound."""


class InsufficientPointsError(RuntimeError):
    """Fewer certified local points exist in range than were requested."""


class ChateletParams(namedtuple("ChateletParams", "a b c")):
    """Parameters (a, b, c) of the Hasse-principle counterexample.

    a, b are primes = 1 mod 8 exceeding 5, a is not a square mod b,
    and b divides ac + 1.  Its surface's quaternion Brauer class
    (alpha, k f_1) = (ab, x^2 + c) is read from the split of P~
    (`BinaryQuartic.factors`), not from these parameters.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if not (is_prime(a) and is_prime(b)):
            raise ValueError("a and b must be prime")
        if a <= 5 or b <= 5:
            raise ValueError("a and b must exceed 5")
        if a % 8 != 1 or b % 8 != 1:
            raise ValueError("a and b must be = 1 mod 8")
        if a == b:
            raise ValueError("a and b must be distinct")
        if legendre(a % b, b) != -1:
            raise ValueError("a must be a non-square mod b")
        if (a * c + 1) % b != 0:
            raise ValueError("b must divide a*c + 1")
        return super().__new__(cls, a, b, c)


class ChateletSurface(namedtuple("ChateletSurface",
                                 "alpha Ptilde provenance params")):
    """y^2 - alpha z^2 = P(x), stored as the Fraction alpha and the
    binary quartic P~(w, x) = w^4 P(x / w), whose coefficients are those
    of P.  provenance is "constructed", "iskovskikh", "fiber" or "user";
    params are the `ChateletParams` of a constructed surface, else None.

    The facts derived from the surface are computed once and cached on
    it (in the instance __dict__, so no __slots__): `disc`, the
    discriminant of P~; `model_disc`, that of its integer model;
    `real_pieces`, the `sign_points` of that model; `local`, its local
    table (`verify_local_everywhere`), which the obstruction and the
    search read; and `brauer`, the reciprocity bits of its quaternion
    class, which the obstruction and the search read too.  The table and
    the bits walk one tiling of P^1(Q_v) at each place v, that of
    `_pieces`.
    """

    def __new__(cls, alpha: Rational, Ptilde: BinaryQuartic,
                provenance: str, params: Optional[ChateletParams] = None):
        alpha = Fraction(alpha)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        return super().__new__(cls, alpha, Ptilde, provenance, params)

    @cached_property
    def disc(self) -> Fraction:
        """disc(P~); the surface is smooth iff it is nonzero."""
        return quartic_disc(self.Ptilde)

    @cached_property
    def model_disc(self) -> int:
        """disc of `BinaryQuartic.integer_square_scaled`, the model that
        every local decision reads: its primes, not those of `disc`,
        bound the places where a decision is needed."""
        return disc_from_coeffs(self.Ptilde.integer_square_scaled)

    @cached_property
    def real_pieces(self) -> list:
        """`sign_points` of the integer model: one point on each piece of
        the real line where P has one sign, the tiling that `_pieces`
        gives `local` and `brauer` at the real place."""
        return sign_points(self.Ptilde.integer_square_scaled)

    @cached_property
    def local(self) -> "LocalReport":
        """`verify_local_everywhere` of this surface."""
        return verify_local_everywhere(self)

    @cached_property
    def brauer(self) -> Optional[dict[Place, int]]:
        """The bit of (alpha, k f_1)_v at each place v of T, or None when
        the rule below does not apply or cannot decide.

        Let P~ split into two quadratic parts P = k f_1 and f_2
        (`BinaryQuartic.factors`), and T be oo, 2 and the primes of
        alpha and of Res(P, f_2).  A prime that divides P(m, n)
        and f_2(m, n) at coprime m, n divides the resultant, so at a
        place v outside T, an odd prime prime to alpha that divides at
        most one of them, (alpha, r)_v = (alpha, P)_v for r = P f_2.  A
        fiber with a point has (alpha, r)_v = +1 everywhere, so by
        Hilbert reciprocity for (alpha, P) the product of (alpha, P)_v
        over T is +1.  The bit at v is the one value of (alpha, P)_v on
        the fibers with a Q_v-point (`_place_bit`), read on the pieces
        of `_pieces` that the local table walks too: the real pieces,
        and the discs where P or f_2 has one square class
        (`_split_bit`).  When the bits multiply to -1, no fiber has a
        point, and none is a zero of P~, which has no rational root: the
        surface has no rational point, by the Brauer-Manin obstruction
        of the class (alpha, k f_1): its invariant at v is that of the
        bit, and `obstruction_report` reads it from here.  The first
        place without a bit ends the rule, and the resultant is factored
        only when oo, 2 and the primes of alpha have bits.
        """
        self.require_smooth()
        split = self.Ptilde.factors
        if len(split) != 2 or len(split[0]) != 3:
            return None
        alpha, alpha_primes = square_class(self.alpha)
        resultant_primes = (q for q, _ in
                            prime_factors(abs(form_resultant(*split))))
        bits = {}
        try:
            for v in chain([REAL], map(finite_place, chain(
                    [2], alpha_primes, resultant_primes))):
                if v not in bits:
                    bits[v] = _place_bit(self, alpha, v, split)
                    if bits[v] == 0:
                        return None
        except OutOfCertifiedRangeError:
            return None
        return bits

    def require_smooth(self) -> None:
        if self.disc == 0:
            raise ValueError("surface is not smooth (repeated quartic root)")

    def surface_id(self) -> str:
        if self.params is not None:
            p = self.params
            return f"constructed(a={p.a},b={p.b},c={p.c})"
        coeffs = ",".join(str(c) for c in self.Ptilde.coeffs)
        return f"{self.provenance}(alpha={self.alpha};P={coeffs})"


class CertifiedLocalX(NamedTuple):
    """An x in P^1(Q) whose fiber conic provably has a Q_v-point.

    certificate is +1 (Hilbert symbol of (alpha, P~(x)) at the place) or
    the string "degenerate" when P~(x) = 0 there (the fiber then contains
    the point (x, 0, 0), possibly after a v-adic Hensel lift).
    """

    x: ProjectivePoint
    place: Place
    certificate: Union[int, str]


# ---------------------------------------------------------------------------
# construction


def find_params(bound: int) -> ChateletParams:
    """Lexicographically least admissible (b, a, c), all below bound."""
    b = next((q for q in range(7, bound + 1)
              if q % 8 == 1 and is_prime(q)), None)
    if b is None:
        raise ParamSearchError(f"not found below bound {bound}")
    a = next((q for q in range(7, bound + 1)
              if q % 8 == 1 and q != b and is_prime(q)
              and legendre(q % b, b) == -1), None)
    if a is None:
        raise ParamSearchError(f"not found below bound {bound}")
    c = -pow(a, -1, b) % b
    if c > bound:
        raise ParamSearchError(f"not found below bound {bound}")
    return ChateletParams(a=a, b=b, c=c)


def build_surface(params: ChateletParams) -> ChateletSurface:
    """The surface y^2 - ab z^2 = (x^2 + c)(a x^2 + ac + 1)."""
    a, c = params.a, params.c
    # expand (x^2 + c)(a x^2 + (ac+1))
    coeffs = (c * (a * c + 1), 0, a * c + (a * c + 1), 0, a)
    surface = ChateletSurface(
        alpha=Fraction(params.a * params.b),
        Ptilde=BinaryQuartic(coeffs),
        provenance="constructed",
        params=params,
    )
    surface.require_smooth()
    return surface


def iskovskikh() -> ChateletSurface:
    """Iskovskikh's surface y^2 + z^2 = (x^2 - 2)(3 - x^2)."""
    return ChateletSurface(
        alpha=Fraction(-1),
        Ptilde=BinaryQuartic((-6, 0, 5, 0, -1)),
        provenance="iskovskikh",
    )


# ---------------------------------------------------------------------------
# bad places


def bad_places(S: ChateletSurface) -> tuple[list[Place], int]:
    """(places, cofactor): the places where local solvability is not
    forced by the unramified-norm argument -- the real place, 2, the
    primes of alpha and the primes of the discriminant of the integer
    model (`ChateletSurface.model_disc`) -- and the part of that
    discriminant left unsplit.

    The discriminant goes through `partial_factorize`, so the list is
    complete unless a part past 2**64 is left; the cofactor collects that
    part less the places already listed.  Its primes all exceed 10^6 and
    are provably good places (see _unit_value_places: one of _SIX_POINTS
    certifies each of them), unless it shares a prime with the content
    of the integer model: that prime is a bad place which cannot be
    certified, and :class:`OutOfCertifiedRangeError` is raised.
    """
    S.require_smooth()
    primes = {2}
    primes.update(
        p for p, _ in factorize(S.alpha.numerator * S.alpha.denominator))
    disc_certified, cofactor = partial_factorize(S.model_disc)
    primes.update(p for p, _ in disc_certified)
    for p in primes:
        cofactor = split_valuation(cofactor, p)[1]
    if cofactor != 1 and not _unit_value_places(S, cofactor):
        raise OutOfCertifiedRangeError(
            "cannot certify large discriminant factors as good places")
    places = [REAL] + [finite_place(p) for p in sorted(primes)]
    return places, cofactor


def _unit_value_places(S: ChateletSurface, n: int) -> bool:
    """The unit-value argument for a number n whose primes all exceed 5:
    true when n is coprime to alpha and to the content of the integer
    model of P~, and then every prime q | n is a place where the surface
    has points.

    Such q is odd, and the points of _SIX_POINTS stay distinct in
    P^1(F_q).  At most four of them are roots of P~ mod q, so one gives a
    q-adic unit value P~(x) and (alpha, P~(x))_q = +1.
    """
    content = math.gcd(*S.Ptilde.integer_square_scaled)
    alpha_support = S.alpha.numerator * S.alpha.denominator
    return math.gcd(n, alpha_support * content) == 1


# ---------------------------------------------------------------------------
# local solvability


# points of P^1(Q) that stay distinct modulo every prime q >= 5
_SIX_POINTS: tuple[ProjectivePoint, ...] = (
    (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), INFINITY)


def _certify(S: ChateletSurface, x: ProjectivePoint,
             v: Place) -> Optional[CertifiedLocalX]:
    """The rule behind every local point: x certifies V(Q_v) != 0 when
    P~(x) = 0 or (alpha, P~(x))_v = +1.  P~(x) is read from the integer
    model, which differs from it by a nonzero rational square."""
    value = evaluate_quartic(S.Ptilde.integer_square_scaled, *x)
    if value == 0:
        return CertifiedLocalX(x, v, "degenerate")
    if hilbert_symbol(S.alpha, value, v) == 1:
        return CertifiedLocalX(x, v, 1)
    return None


# the largest prime at which a walk of `residue_discs` runs
_WALK_PRIME_BOUND = 10**5


def _walk_depth(S: ChateletSurface, p: int) -> int:
    """The depth to which a walk of `residue_discs` at p runs on S:
    beyond the valuations of 4 alpha and of the discriminant of the
    integer model, where the walk of a smooth surface has ended."""
    base = valuation(4 * S.alpha, p) + valuation(S.model_disc, p)
    return abs(base) + 3 + 64


def _pieces(S: ChateletSurface, v: Place):
    """The tiling of P^1(Q_v) that every reader of a place walks, as
    (centre, k, kind).  At oo it is the points of `real_pieces` as
    (centre, None, "class"), since P~ has one sign on each piece; at p
    the discs of `residue_discs` to `_walk_depth`, and past
    `_WALK_PRIME_BOUND` an `OutOfCertifiedRangeError`, with no walk."""
    if v.is_real:
        return [((x.numerator, x.denominator), None, "class")
                for _left, x, _right in S.real_pieces]
    if v.p > _WALK_PRIME_BOUND:
        raise OutOfCertifiedRangeError(
            f"place {v} too large for exact residue enumeration")
    return residue_discs(S.Ptilde.integer_square_scaled, v.p,
                         _walk_depth(S, v.p))


def _sweep(S: ChateletSurface, v: Place) -> Optional[CertifiedLocalX]:
    """Exact decision of V(Q_v) != 0 over the tiling of `_pieces`: the
    first piece whose kind certifies a point.

    A class piece certifies when `_certify` accepts its centre; a root
    or a Newton disc holds a Q_p-root of P~, a degenerate fiber with an
    obvious point.  The pieces tile P^1(Q_v), so when none certifies,
    V(Q_v) is empty.  The walk ends for smooth surfaces; one still open
    at `_walk_depth` is an error.
    """
    for x, k, kind in _pieces(S, v):
        if kind == "class":
            found = _certify(S, x, v)
            if found is not None:
                return found
        elif kind == "open":
            raise ArithmeticError(
                f"local decision at p={v.p} did not stabilize by depth {k}")
        else:
            return CertifiedLocalX(x, v, "degenerate")
    return None


def local_solvable_surface(
    S: ChateletSurface, v: Place,
) -> tuple[bool, Optional[CertifiedLocalX]]:
    """Exact decision of V(Q_v) != 0, with a certified x-coordinate when
    solvable.

    V(Q_v) is nonempty iff some x in P^1(Q_v) has P~(x) = 0 or
    (alpha, P~(x))_v = +1.  Every place first tries _SIX_POINTS.  This
    always succeeds where alpha is a square in Q_v (alpha > 0 at
    infinity): there every nonzero value gives the symbol +1, and at
    most four of the six points are roots of P~.  It also succeeds at
    the places of `_unit_value_places`.  Otherwise it runs `_sweep`,
    whose `_pieces` raises at a prime past `_WALK_PRIME_BOUND`.
    """
    S.require_smooth()
    for x in _SIX_POINTS:
        found = _certify(S, x, v)
        if found is not None:
            return True, found
    found = _sweep(S, v)
    return found is not None, found


class LocalPlaceResult(NamedTuple):
    place: Place
    solvable: bool
    witness: Optional[CertifiedLocalX]


class LocalReport(NamedTuple):
    """Everywhere-local solvability: exact decisions at the bad places,
    the norm-argument tag for all remaining places."""

    surface_id: str
    results: tuple[LocalPlaceResult, ...]
    good_places_tag: str
    uncertified_disc_cofactor: int
    all_solvable: bool


def verify_local_everywhere(S: ChateletSurface) -> LocalReport:
    places, cofactor = bad_places(S)
    results = []
    for v in places:
        ok, wit = local_solvable_surface(S, v)
        results.append(LocalPlaceResult(place=v, solvable=ok, witness=wit))
    tag = "norm-argument"
    if cofactor != 1:
        tag = "norm-argument; unsplit disc cofactor certified by the " \
              "unit-value argument"
    return LocalReport(
        surface_id=S.surface_id(),
        results=tuple(results),
        good_places_tag=tag,
        uncertified_disc_cofactor=cofactor,
        all_solvable=all(r.solvable for r in results),
    )


# ---------------------------------------------------------------------------
# Brauer class and invariants


def _place_bit(S: ChateletSurface, alpha: int, v: Place, split) -> int:
    """(alpha, k f_1)_v on every fiber with a Q_v-point, for
    ``split`` = (k f_1, f_2), or 0 when the rule gives no one value.

    It is +1 where alpha is a square in Q_v.  Otherwise it is the
    `_split_bit` that every piece of `_pieces` shares, less the class
    pieces that `_certify` rejects, which hold no fiber with a
    Q_v-point (+1 when no piece is left).  The walk stops at the first
    piece without a bit or with a second one; at a prime past
    `_WALK_PRIME_BOUND`, `_pieces` raises.
    """
    if is_local_square(alpha, v):
        return 1
    bit = None
    for centre, k, kind in _pieces(S, v):
        if kind == "class" and _certify(S, centre, v) is None:
            continue
        piece_bit = _split_bit(alpha, split, centre, k, v)
        if piece_bit == 0 or bit not in (None, piece_bit):
            return 0
        bit = piece_bit
    return bit or 1


def _split_bit(alpha: int, split, centre, k: Optional[int],
               place: Place) -> int:
    """The symbol (alpha, k f_1)_v, for ``split`` = (k f_1, f_2), at
    every fiber of the piece (centre, k) of `_pieces` whose symbol
    (alpha, P~)_v is +1, or 0 when the rule below does not give it.

    On a real piece it is the symbol at the centre: k f_1 divides P~,
    so it has one sign there.  A form f of content c changes by a
    multiple of p^k c on the disc (centre, k), so f has the square class
    of its centre there when `one_square_class` holds for
    v_p(f(centre)) - v_p(c).  For k f_1 that difference is
    v_p(f_1(centre)), so the constant factor never decides whether its
    class is constant, and the rule holds on every class disc of P~,
    since v_p(f_1) <= v_p(P~).  Otherwise, when f_2 has it,
    (alpha, k f_1)_p = (alpha, P~)_p (alpha, f_2)_p is
    (alpha, f_2(centre))_p at those fibers.  So a Newton disc or an open
    one gets a bit when it is about a root of one factor, away from the
    roots of the other.
    """
    if place.is_real:
        return hilbert_symbol(alpha, evaluate_form(split[0], *centre), place)
    p = place.p
    for f in split:
        value = evaluate_form(f, *centre)
        if value and one_square_class(
                split_valuation(value, p)[0]
                - split_valuation(math.gcd(*f), p)[0], k, p):
            return hilbert_symbol(alpha, value, place)
    return 0


def eval_invariant_all_reps(S: ChateletSurface,
                            pt: CertifiedLocalX) -> list[Fraction]:
    """inv_v of the class (alpha, k f_1) of `ChateletSurface.brauer` at a
    local point over the certified x-fiber, where P~ splits into two
    quadratic parts k f_1 and f_2 (`BinaryQuartic.factors`; ValueError
    otherwise).  It is read from each nonvanishing value k f_1(m, n) and
    f_2(m, n) at x = (m : n): both have even degree, and their product,
    P~(x) up to a square, is a norm from Q(sqrt(alpha)) on the surface,
    so each is a second slot of the class and at a certified point they
    agree.  Read at sampled points, they cross-check the invariants
    that `obstruction_report` proves.  For a constructed surface
    k f_1 = x^2 + c and f_2 = a x^2 + ac + 1."""
    split = S.Ptilde.factors
    if [len(f) for f in split] != [3, 3]:
        raise ValueError("the Brauer class needs P~ split into two "
                         "quadratics over Q")
    values = [evaluate_form(f, *pt.x) for f in split]
    return [inv_from_symbol(hilbert_symbol(S.alpha, v, pt.place))
            for v in values if v != 0]


# the height of the sampled x
_SAMPLE_HEIGHT = 1000


def sample_certified_points(S: ChateletSurface, v: Place, n: int,
                            seed: int) -> list[CertifiedLocalX]:
    """n distinct certified x-fibers at v, by seeded random search over
    P^1(Q) up to height _SAMPLE_HEIGHT.  Deterministic per seed."""
    rng = random.Random(seed)
    found: dict[ProjectivePoint, CertifiedLocalX] = {}
    attempts = 0
    budget = 400 * max(n, 1) + 10**5
    while len(found) < n and attempts < budget:
        attempts += 1
        m = rng.randint(-_SAMPLE_HEIGHT, _SAMPLE_HEIGHT)
        den = rng.randint(0, _SAMPLE_HEIGHT)
        if den == 0:
            point = INFINITY
        else:
            g = math.gcd(m, den)
            point = (m // g, den // g)
        if point in found:
            continue
        certified = _certify(S, point, v)
        if certified is not None:
            found[point] = certified
    if len(found) < n:
        raise InsufficientPointsError(
            f"only {len(found)} certified points found at {v} "
            f"(wanted {n})")
    return list(found.values())[:n]


class PlaceInvariantRecord(NamedTuple):
    place: Place
    invariant: Fraction
    justification: str  # "proved: reciprocity bit" | "proved: unit value"


class ObstructionReport(NamedTuple):
    surface_id: str
    records: tuple[PlaceInvariantRecord, ...]
    good_places_tag: str
    invariant_sum: Fraction  # in Q/Z, reduced to [0, 1)
    conclusion: str  # "no-rational-point-certified" | "inconclusive"


def obstruction_report(S: ChateletSurface) -> ObstructionReport:
    """The Brauer-Manin obstruction of a constructed surface (ValueError
    on a surface without params), for the class (alpha, k f_1) =
    (ab, x^2 + c) of the reciprocity bits `S.brauer`.

    Its places are those of the local table `S.local` (computed on
    first use), which must be solvable everywhere.  At each place v of
    T, where the bits are, the invariant is that of the bit S.brauer[v].
    At any other place one of k f_1(x) and f_2(x) is a unit at every
    local point (see `ChateletSurface.brauer`), so the invariant is 0.
    ArithmeticError when the surface has no bits or T is not among the
    listed places.  A nonzero sum certifies the absence of rational
    points.
    """
    if S.params is None:
        raise ValueError(
            "Brauer class is only provided for constructed surfaces")
    if not S.local.all_solvable:
        raise ArithmeticError(
            "constructed surface unexpectedly fails local solvability")
    places = [r.place for r in S.local.results]
    bits = S.brauer
    if bits is None or not bits.keys() <= set(places):
        raise ArithmeticError(
            "the reciprocity bits do not give the invariant at every place")
    records = tuple(
        PlaceInvariantRecord(v, inv_from_symbol(bits[v]),
                             "proved: reciprocity bit") if v in bits
        else PlaceInvariantRecord(v, Fraction(0), "proved: unit value")
        for v in places)
    total = sum(r.invariant for r in records) % 1
    conclusion = ("no-rational-point-certified" if total != 0
                  else "inconclusive")
    return ObstructionReport(
        surface_id=S.surface_id(),
        records=records,
        good_places_tag="norm-argument: invariant 0 off the bad set",
        invariant_sum=total,
        conclusion=conclusion,
    )


# ---------------------------------------------------------------------------
# global search


class SearchResult(NamedTuple):
    height: int
    found: bool
    x: Optional[ProjectivePoint] = None
    witness: Optional[tuple[Fraction, Fraction]] = None
    note: str = ""


def rational_point_search(S: ChateletSurface, H: int) -> SearchResult:
    """Exact fiberwise search: for every x in P^1(Q) of height <= H,
    decide the fiber conic y^2 - alpha z^2 = P~(x) by Hasse-Minkowski.

    Exhaustive over the x-range; a found fiber x comes with an exact
    point (y, z) of its conic, and found=False means NO fiber of height
    <= H is solvable over Q.  The search first reads the surface's local
    table `S.local`, and raises what it raises: when some place has no
    local point, no fiber of any height has one, and the search returns
    without a scan.  It then reads the reciprocity bits `S.brauer`: when
    they multiply to -1, no fiber of any height is solvable either.
    Otherwise `conic_scan` decides every fiber in order, up to the
    x -> -x symmetry of `chatelet._kernel.pure`; the found fiber's point
    is `conic_point`'s, from the class that the scan's decision returned.
    """
    S.require_smooth()
    if not S.local.all_solvable or (
            S.brauer is not None and math.prod(S.brauer.values()) == -1):
        return SearchResult(height=H, found=False, note=f"none up to {H}")
    alpha_sf, alpha_primes = square_class(S.alpha)
    odd_primes = tuple(p for p in alpha_primes if p != 2)
    hit = conic_scan(S.Ptilde, alpha_sf, odd_primes, H)
    if hit is None:
        return SearchResult(height=H, found=False,
                            note=f"none up to {H}")
    (m, n), r_class = hit
    if r_class is None:
        return SearchResult(height=H, found=True, x=(m, n),
                            witness=(Fraction(0), Fraction(0)),
                            note="degenerate fiber")
    witness = conic_point(S.alpha, alpha_sf, alpha_primes,
                          S.Ptilde.value(n, m), *r_class)
    return SearchResult(height=H, found=True, x=(m, n), witness=witness)


# ---------------------------------------------------------------------------
# serialization


def surface_to_json(S: ChateletSurface) -> dict:
    """JSON object with all big integers as decimal strings."""
    return {
        "alpha": str(S.alpha),
        "P": [str(c) for c in S.Ptilde.coeffs],
        "provenance": S.provenance,
    }


def surface_from_json(obj: Union[str, dict]) -> ChateletSurface:
    """The surface of {"alpha": q, "P": [c0, ..., c4]}, with an optional
    string "provenance".  Each number is an integer or a decimal or
    fraction string; a JSON float or boolean is a ValueError, since a
    float is not the rational it was written as and a boolean is no
    number."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    coeffs = obj["P"]
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError("P must be a list of 5 coefficients")
    provenance = obj.get("provenance", "user")
    if not isinstance(provenance, str):
        raise ValueError("provenance must be a string")
    return ChateletSurface(
        alpha=_json_rational(obj["alpha"]),
        Ptilde=BinaryQuartic([_json_rational(c) for c in coeffs]),
        provenance=provenance,
    )


def _json_rational(value) -> Fraction:
    if isinstance(value, (bool, float)):
        raise ValueError(f"{json.dumps(value)} is not an integer or a "
                         "rational string")
    return Fraction(value)
