"""Chatelet surfaces y^2 - alpha z^2 = P(x): construction, exact local
solvability, the quaternion Brauer class and its obstruction, and
height-bounded global point search.

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
from typing import NamedTuple, Optional, Union

from chatelet._kernel.pure import conic_scan
from chatelet.local import (
    REAL,
    Place,
    conic_solvable_global,
    finite_place,
    hilbert_symbol,
    inv_from_symbol,
)
from chatelet.numbers import (
    OutOfCertifiedRangeError,
    Rational,
    factorize,
    is_prime,
    legendre,
    partial_factorize,
    split_valuation,
    square_class,
    valuation,
)
from chatelet.quartic import (
    BinaryQuartic,
    disc_from_coeffs,
    evaluate_form,
    evaluate_quartic,
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
    "ParamSearchError", "InsufficientPointsError", "InvariantNotConstantError",
]

ProjectivePoint = tuple[int, int]  # x = (m : n) in P^1(Q); (1, 0) is infinity

INFINITY: ProjectivePoint = (1, 0)


class ParamSearchError(ValueError):
    """No admissible (a, b, c) below the requested bound."""


class InsufficientPointsError(RuntimeError):
    """Fewer certified local points exist in range than were requested."""


class InvariantNotConstantError(RuntimeError):
    """Sampled local invariants disagree at one place; this would
    falsify the obstruction computation and is a hard failure."""


class ChateletParams(namedtuple("ChateletParams", "a b c")):
    """Parameters (a, b, c) of the Hasse-principle counterexample.

    a, b are primes = 1 mod 8 exceeding 5, a is not a square mod b,
    and b divides ac + 1.  Its surface's quaternion Brauer class
    (ab, x^2 + c) is read from the split of P~ (see
    `eval_invariant_all_reps`), not from these parameters.
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
    discriminant of P~, `model_disc`, that of its integer model, and
    `local`, its local table (`verify_local_everywhere`), which the
    obstruction reads.
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
    def local(self) -> "LocalReport":
        """`verify_local_everywhere` of this surface."""
        return verify_local_everywhere(self)

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


def _residue_sweep(S: ChateletSurface, v: Place) -> Optional[CertifiedLocalX]:
    """Exact decision of V(Q_p) != 0 over the residue discs of
    `residue_discs`: the first disc whose kind certifies a point.

    A disc of constant square class certifies when the Hilbert symbol of
    its centre is +1; a root or a Newton disc holds a Q_p-root of P~, a
    degenerate fiber with an obvious point.  The discs tile P^1(Z_p), so
    when none certifies, V(Q_p) is empty.  The walk ends for smooth
    surfaces; one still open at a depth beyond the valuations of 4 alpha
    and of the discriminant of that model is an error.
    """
    p = v.p
    f = S.Ptilde.integer_square_scaled
    base = valuation(4 * S.alpha, p) + valuation(S.model_disc, p)
    max_depth = abs(base) + 3 + 64
    for x, k, kind in residue_discs(f, p, max_depth):
        if kind == "class":
            found = _certify(S, x, v)
            if found is not None:
                return found
        elif kind == "open":
            raise ArithmeticError(
                f"local decision at p={p} did not stabilize by depth {k}")
        else:
            return CertifiedLocalX(x, v, "degenerate")
    return None


def _real_sweep(S: ChateletSurface) -> Optional[CertifiedLocalX]:
    """A real x with P~(x) > 0: the first of `sign_points` of
    P(x) = P~(1, x) that `_certify` accepts.

    P has simple roots on a smooth surface, so every region where it has
    one sign holds one of these points, and none of them is a root: P is
    positive somewhere iff it is positive at one of them.  Infinity, and
    every alpha > 0, are settled by _SIX_POINTS before this runs.
    """
    for _left, x, _right in sign_points(S.Ptilde.integer_square_scaled):
        found = _certify(S, (x.numerator, x.denominator), REAL)
        if found is not None:
            return found
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
    the places of `_unit_value_places`.  Otherwise the real place runs
    `_real_sweep` and a finite place `_residue_sweep`.
    """
    S.require_smooth()
    for x in _SIX_POINTS:
        found = _certify(S, x, v)
        if found is not None:
            return True, found
    if v.is_real:
        found = _real_sweep(S)
    elif v.p > 10**5:
        raise ArithmeticError(
            f"place {v} too large for exact residue enumeration")
    else:
        found = _residue_sweep(S, v)
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


def eval_invariant_all_reps(S: ChateletSurface,
                            pt: CertifiedLocalX) -> list[Fraction]:
    """inv_v of the class (alpha, f) at a local point over the certified
    x-fiber, where P~ splits as k f g into two quadratics over Q
    (`BinaryQuartic.factors`; ValueError otherwise).  It is read from
    each nonvanishing value f(m, n) and k g(m, n) at x = (m : n): both
    have even degree, and their product, P~(x) up to a square, is a norm
    from Q(sqrt(alpha)) on the surface, so each is a second slot of the
    class and at a certified point they agree; the obstruction checks
    that they do.  For a constructed surface f = x^2 + c and
    k g = a x^2 + ac + 1."""
    k, forms = S.Ptilde.factors
    if [len(f) for f in forms] != [3, 3]:
        raise ValueError("the Brauer class needs P~ split into two "
                         "quadratics over Q")
    f, g = forms
    values = (evaluate_form(f, *pt.x), k * evaluate_form(g, *pt.x))
    return [inv_from_symbol(hilbert_symbol(S.alpha, v, pt.place))
            for v in values if v != 0]


# the height of the x that `sample_certified_points` draws
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
    samples: int
    justification: str  # "sampled" | "norm-argument"


class ObstructionReport(NamedTuple):
    surface_id: str
    records: tuple[PlaceInvariantRecord, ...]
    good_places_tag: str
    invariant_sum: Fraction  # in Q/Z, reduced to [0, 1)
    conclusion: str  # "no-rational-point-certified" | "inconclusive"


def obstruction_report(S: ChateletSurface, samples_per_place: int = 20,
                       seed: int = 0) -> ObstructionReport:
    """Evaluate the Brauer-Manin obstruction of a constructed surface
    (ValueError on a surface without params), for the class
    (ab, x^2 + c) that `eval_invariant_all_reps` reads from the split of
    its quartic.

    Reads the surface's local table `S.local` (computed on first use),
    which must be solvable everywhere; samples certified points at each
    of its places, checks the local invariant is constant per place,
    and sums.  A nonzero sum certifies the absence of rational points.
    """
    if samples_per_place < 1:
        raise ValueError("samples_per_place must be at least 1")
    if S.params is None:
        raise ValueError(
            "Brauer class is only provided for constructed surfaces")
    if not S.local.all_solvable:
        raise ArithmeticError(
            "constructed surface unexpectedly fails local solvability")
    records = []
    total = Fraction(0)
    for res in S.local.results:
        pts = sample_certified_points(S, res.place, samples_per_place, seed)
        invs = {inv for pt in pts
                for inv in eval_invariant_all_reps(S, pt)}
        if len(invs) != 1:
            raise InvariantNotConstantError(
                f"invariant not constant at {res.place}: {sorted(invs)}")
        inv = invs.pop()
        total += inv
        records.append(PlaceInvariantRecord(
            place=res.place, invariant=inv, samples=len(pts),
            justification="sampled"))
    total = total % 1
    conclusion = ("no-rational-point-certified" if total != 0
                  else "inconclusive")
    return ObstructionReport(
        surface_id=S.surface_id(),
        records=tuple(records),
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
    <= H is solvable over Q.  The scan (`conic_scan`) skips fibers by
    exact rules, proved in `chatelet._kernel.pure`, and returns the same
    first fiber as the loop over every x; on a split quartic, Hilbert
    reciprocity on one factor can rule out every fiber at once.
    """
    S.require_smooth()
    alpha_sf, alpha_primes = square_class(S.alpha)
    odd_primes = tuple(p for p in alpha_primes if p != 2)
    hit = conic_scan(S.Ptilde, alpha_sf, odd_primes, H)
    if hit is None:
        return SearchResult(height=H, found=False,
                            note=f"none up to {H}")
    m, n = hit
    value = S.Ptilde.value(n, m)
    if value == 0:
        return SearchResult(height=H, found=True, x=(m, n),
                            witness=(Fraction(0), Fraction(0)),
                            note="degenerate fiber")
    _, wit = conic_solvable_global(S.alpha, value, want_witness=True)
    return SearchResult(height=H, found=True, x=(m, n), witness=wit)


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
