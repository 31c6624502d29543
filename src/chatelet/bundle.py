"""Chatelet-surface bundles: the family with quartic u^2 Pinf + v^2 P0
over P^1, its bad (non-smooth) fibers, square-class-disjoint base-change
coefficients, the d*t^2 pullback with a single pointless rational fiber,
and fiber-by-fiber verification.

The fiber depends on (u : v) only through s = (u/v)^2, the point of the
linear pencil s Pinf + P0, so the bad fibers are read off one sextic in
one variable, D(s) = disc(s Pinf + P0).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from chatelet.local import Place
from chatelet.numbers import clear_denominators, squarefree_part
from chatelet.quartic import (
    BinaryQuartic,
    disc_from_coeffs,
    quartic_irreducible,
    rational_roots,
)
from chatelet.surface import (
    INFINITY,
    ChateletSurface,
    ObstructionReport,
    SearchResult,
    obstruction_report,
    rational_point_search,
)

__all__ = [
    "FiberParam", "SurfaceBundle", "BadFiberSet", "PulledBackBundle",
    "FiberRecord", "BundleReport",
    "make_bundle", "fiber_at", "bad_fibers", "good_d_candidates",
    "pullback", "pullback_fiber", "pullback_fiber_param",
    "default_sample_ts", "verify_pullback", "bundle_to_json",
]


class FiberParam(namedtuple("FiberParam", "u v")):
    """A point (u : v) of P^1(Q) in canonical integer form: coprime,
    first nonzero coordinate positive."""

    __slots__ = ()

    def __new__(cls, u: int, v: int):
        if u == 0 and v == 0:
            raise ValueError("(0, 0) is not a point of P^1")
        if math.gcd(u, v) != 1:
            raise ValueError("coordinates must be coprime")
        first = u if u != 0 else v
        if first < 0:
            raise ValueError("first nonzero coordinate must be positive")
        return super().__new__(cls, u, v)

    @classmethod
    def canonical(cls, u: Union[int, Fraction],
                  v: Union[int, Fraction]) -> "FiberParam":
        iu, iv = clear_denominators((u, v))[1]
        g = math.gcd(iu, iv) or 1  # (0, 0) reaches __new__'s check
        iu, iv = iu // g, iv // g
        if (iu if iu != 0 else iv) < 0:
            iu, iv = -iu, -iv
        return cls(iu, iv)

    @property
    def is_infinity(self) -> bool:
        return self.v == 0

    def affine(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("(1 : 0) has no affine coordinate")
        return Fraction(self.u, self.v)

    def __str__(self) -> str:
        return "oo" if self.is_infinity else str(self.affine())


class SurfaceBundle(namedtuple("SurfaceBundle", "source Pinf")):
    """The bundle over P^1 with fiber quartic u^2 Pinf + v^2 P0 at
    (u : v), for a `ChateletSurface` source and a `BinaryQuartic` Pinf;
    the fiber at (0 : 1) is the generating surface.  No __slots__: `bad`
    is cached in the instance __dict__."""

    @property
    def alpha(self) -> Fraction:
        return self.source.alpha

    @property
    def P0(self) -> BinaryQuartic:
        return self.source.Ptilde

    @cached_property
    def bad(self) -> "BadFiberSet":
        """`bad_fibers` of this bundle, computed once per bundle."""
        return bad_fibers(self)


class BadFiberSet(NamedTuple):
    """Rational points of P^1 with a non-smooth bundle fiber: the (u : v)
    whose s = (u/v)^2 is a root of the sextic D(s) = disc(s Pinf + P0)."""

    fibers: tuple[FiberParam, ...]

    def affine_classes(self) -> set[int]:
        """Square classes of the nonzero affine bad fibers u/v, as of u v."""
        return {squarefree_part(f.u * f.v) for f in self.fibers
                if not f.is_infinity and f.u != 0}


class PulledBackBundle(NamedTuple):
    """Base change along t -> d t^2: the fiber over t = (t0 : t1) is the
    base fiber at (d t1^2 : t0^2), putting the pointless fiber at
    t = infinity and a square-class-d coordinate under every affine t."""

    base: SurfaceBundle
    d: int


def make_bundle(S: ChateletSurface,
                Pinf: Optional[BinaryQuartic] = None) -> SurfaceBundle:
    """Bundle generated by a constructed surface; Pinf defaults to the
    irreducible form x^4 + w^4."""
    if S.params is None:
        raise ValueError("bundle requires a constructed generating surface")
    S.require_smooth()
    if Pinf is None:
        Pinf = BinaryQuartic((1, 0, 0, 0, 1))
    if _proportional(Pinf.coeffs, S.Ptilde.coeffs):
        raise ValueError("Pinf must be independent of the generating quartic")
    if not quartic_irreducible(Pinf):
        raise ValueError("Pinf must be irreducible over Q")
    return SurfaceBundle(source=S, Pinf=Pinf)


def _proportional(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    for i in range(5):
        for j in range(5):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def fiber_at(B: SurfaceBundle, t: FiberParam) -> ChateletSurface:
    """The Chatelet surface y^2 - alpha z^2 = u^2 Pinf(x) + v^2 P0(x).

    Well-defined on P^1: other representatives of t scale the quartic by
    a nonzero rational square, an isomorphism of the surface.
    """
    if t == FiberParam(0, 1):
        return B.source
    coeffs = tuple(t.u**2 * ci + t.v**2 * c0
                   for ci, c0 in zip(B.Pinf.coeffs, B.P0.coeffs))
    return ChateletSurface(alpha=B.alpha, Ptilde=BinaryQuartic(coeffs),
                           provenance="fiber")


def _pencil_disc(B: SurfaceBundle) -> list[int]:
    """The integer coefficients of 6! L^6 D(s), low degree first, for
    D(s) = disc(s Pinf + P0) and L the common denominator of Pinf and P0.

    The discriminant is a sextic in the form's coefficients, so
    L^6 D(s) = disc(s L Pinf + L P0) is an integer polynomial of degree at
    most 6, fixed by its values at s = 0..6.  Newton's forward differences
    give it as sum_k (Delta^k L^6 D)(0) C(s, k), where the polynomials
    6! C(s, k) = 6! s (s - 1) ... (s - k + 1) / k!, k <= 6, are integral.
    """
    ints = clear_denominators(B.Pinf.coeffs + B.P0.coeffs)[1]
    values = [disc_from_coeffs([s * ci + c0 for ci, c0
                                in zip(ints[:5], ints[5:])])
              for s in range(7)]
    D = [0] * 7
    binomial = [720]  # 6! C(s, k), low degree first
    for k in range(7):
        if k:  # 6! C(s, k) = 6! C(s, k - 1) (s - k + 1) / k, exactly
            binomial = [((binomial[i - 1] if i else 0)
                         - ((k - 1) * binomial[i] if i < k else 0)) // k
                        for i in range(k + 1)]
        for i, b in enumerate(binomial):
            D[i] += values[0] * b
        values = [y - x for x, y in zip(values, values[1:])]
    return D


def bad_fibers(B: SurfaceBundle) -> BadFiberSet:
    """The rational roots of disc(u^2 Pinf + v^2 P0), read off the sextic
    D(s) = disc(s Pinf + P0) in s = (u/v)^2.

    A rational root s = r^2 > 0 gives the fibers (r : 1) and (-r : 1),
    s = 0 gives (0 : 1), and a negative or non-square root gives no
    rational fiber.  v = 0 is never bad: D has leading coefficient
    disc(Pinf) != 0 (an irreducible form).
    """
    fibers = []
    for root in rational_roots(_pencil_disc(B)):
        if root < 0:
            continue
        u, v = math.isqrt(root.numerator), math.isqrt(root.denominator)
        if u * u != root.numerator or v * v != root.denominator:
            continue
        fibers.append(FiberParam(u, v))
        if u != 0:
            fibers.append(FiberParam(u, -v))
    return BadFiberSet(fibers=tuple(sorted(fibers, key=lambda f: (f.v, f.u))))


def good_d_candidates(F: BadFiberSet, count: int) -> list[int]:
    """The `count` smallest positive squarefree d whose square class
    avoids every nonzero affine bad-fiber coordinate."""
    banned = F.affine_classes()
    out: list[int] = []
    d = 0
    while len(out) < count:
        d += 1
        if squarefree_part(d) != d:
            continue
        if d in banned:
            continue
        out.append(d)
    return out


def pullback(B: SurfaceBundle, d: int) -> PulledBackBundle:
    if d <= 0 or squarefree_part(d) != d:
        raise ValueError("d must be positive and squarefree")
    if d in B.bad.affine_classes():
        raise ValueError(
            f"d = {d} shares a square class with a bad fiber")
    return PulledBackBundle(base=B, d=d)


def pullback_fiber_param(W: PulledBackBundle,
                         t: tuple[int, int]) -> FiberParam:
    """(u : v) = (d t1^2 : t0^2) under the fiber of W at t = (t0 : t1)."""
    t0, t1 = t
    return FiberParam.canonical(W.d * t1 * t1, t0 * t0)


def pullback_fiber(W: PulledBackBundle,
                   t: tuple[int, int]) -> ChateletSurface:
    return fiber_at(W.base, pullback_fiber_param(W, t))


# ---------------------------------------------------------------------------
# verification


class FiberRecord(NamedTuple):
    t: tuple[int, int]
    fiber_param: FiberParam
    smooth: bool
    irreducible: bool
    locally_solvable: bool
    bad_places: tuple[Place, ...]
    disc_cofactor: int
    point_found: Optional[bool]
    point: Optional[tuple[int, int]]
    note: str = ""


class BundleReport(NamedTuple):
    d: int
    special: ObstructionReport
    special_search: SearchResult
    fibers: tuple[FiberRecord, ...]
    n_solvable: int
    n_points_found: int
    all_affine_ok: bool


def default_sample_ts(count: int) -> list[tuple[int, int]]:
    """infinity, 0, then 1, -1, 2, -2, ... until `count` points."""
    ts: list[tuple[int, int]] = [INFINITY, (0, 1)]
    k = 1
    while len(ts) < count:
        ts.append((k, 1))
        if len(ts) < count:
            ts.append((-k, 1))
        k += 1
    return ts[:count]


def verify_pullback(W: PulledBackBundle,
                    sample_ts: Optional[list[tuple[int, int]]] = None,
                    search_H: int = 100) -> BundleReport:
    """Verify the pulled-back family fiber by fiber.

    The special fiber (t = infinity) must carry a certified obstruction,
    which `obstruction_report` proves from its reciprocity bits (an
    ArithmeticError otherwise); every sampled affine fiber must be
    smooth (hard failure otherwise) and is checked for quartic
    irreducibility, exact everywhere-local solvability, and a
    height-bounded rational point (diagnostic: the Hasse principle
    guarantees existence on irreducible locally solvable fibers, but not
    within any height bound).
    """
    if sample_ts is None:
        sample_ts = default_sample_ts(52)
    if INFINITY not in sample_ts or (0, 1) not in sample_ts:
        raise ValueError("sample must include t = infinity and t = 0")
    F = W.base.bad
    d_class = squarefree_part(W.d)
    special = obstruction_report(W.base.source)
    if special.conclusion != "no-rational-point-certified":
        raise ArithmeticError("special fiber obstruction not certified")
    special_search = rational_point_search(W.base.source, search_H)
    # the fiber depends on t only through (t0^2 : t1^2), so t and -t
    # share one verification and differ only in the record's t
    # (`_replace` skips a subclass's __new__, so it is kept to records
    # that validate nothing, like FiberRecord)
    by_fiber: dict[FiberParam, FiberRecord] = {}
    records = []
    for t in sample_ts:
        if t == INFINITY:
            continue
        fp = pullback_fiber_param(W, t)
        if fp not in by_fiber:
            by_fiber[fp] = _verify_fiber(W, t, fp, F, d_class, search_H)
        records.append(by_fiber[fp]._replace(t=t))
    return BundleReport(
        d=W.d,
        special=special,
        special_search=special_search,
        fibers=tuple(records),
        n_solvable=sum(r.locally_solvable for r in records),
        n_points_found=sum(bool(r.point_found) for r in records),
        all_affine_ok=all(r.smooth and r.locally_solvable
                          for r in records),
    )


def _verify_fiber(W: PulledBackBundle, t: tuple[int, int], fp: FiberParam,
                  F: BadFiberSet, d_class: int,
                  search_H: int) -> FiberRecord:
    """The record of the fiber fp = `pullback_fiber_param`(W, t)."""
    S = pullback_fiber(W, t)
    if S.disc == 0:
        raise ArithmeticError(f"sampled affine fiber at t={t} is "
                              "not smooth")
    if fp in F.fibers:
        raise ArithmeticError(f"sampled fiber {fp} lies in the bad set")
    if not fp.is_infinity:
        if squarefree_part(fp.u * fp.v) != d_class:
            raise ArithmeticError(
                f"fiber coordinate {fp} off the square class of d")
    irr = quartic_irreducible(S.Ptilde)
    local = S.local
    search = rational_point_search(S, search_H)
    thin = "" if irr else "thin-set hit: reducible fiber quartic"
    note = "; ".join(n for n in (thin, search.note) if n)
    return FiberRecord(
        t=t, fiber_param=fp, smooth=True, irreducible=irr,
        locally_solvable=local.all_solvable,
        bad_places=tuple(r.place for r in local.results),
        disc_cofactor=local.uncertified_disc_cofactor,
        point_found=search.found, point=search.x, note=note)


# ---------------------------------------------------------------------------
# serialization


def bundle_to_json(B: Union[SurfaceBundle, PulledBackBundle]) -> dict:
    d = None
    if isinstance(B, PulledBackBundle):
        d = B.d
        B = B.base
    obj = {
        "alpha": str(B.alpha),
        "P0": [str(c) for c in B.P0.coeffs],
        "Pinf": [str(c) for c in B.Pinf.coeffs],
    }
    if d is not None:
        obj["d"] = str(d)
    return obj

