"""Construction, local solvability, obstruction and global search."""

import itertools
import json
import math
import random
import types
from fractions import Fraction

import pytest
import sympy

from chatelet import local as local_mod
from chatelet import quartic as quartic_mod
from chatelet import surface as surface_mod
from chatelet._kernel import pure
from chatelet.local import (
    REAL,
    conic_decide,
    finite_place,
    hilbert_symbol,
    inv_from_symbol,
    is_local_square,
)
from chatelet.numbers import (
    OutOfCertifiedRangeError,
    split_valuation,
    square_class,
)
from chatelet.quartic import (
    BinaryQuartic,
    disc_from_coeffs,
    evaluate_form,
    evaluate_quartic,
    residue_discs,
    sign_points,
)
from chatelet.surface import (
    CertifiedLocalX,
    ChateletParams,
    ChateletSurface,
    ParamSearchError,
    bad_places,
    build_surface,
    eval_invariant_all_reps,
    find_params,
    iskovskikh,
    local_solvable_surface,
    obstruction_report,
    rational_point_search,
    sample_certified_points,
    surface_from_json,
    surface_to_json,
    verify_local_everywhere,
)


@pytest.fixture(scope="module")
def S():
    return build_surface(find_params(100))


class TestParams:
    def test_derived_values(self):
        p = find_params(100)
        assert (p.a, p.b, p.c) == (41, 17, 12)

    def test_bound_too_small(self):
        with pytest.raises(ParamSearchError):
            find_params(16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChateletParams(a=40, b=17, c=12)  # a not prime
        with pytest.raises(ValueError):
            ChateletParams(a=41, b=17, c=13)  # b does not divide ac+1
        with pytest.raises(ValueError):
            ChateletParams(a=73, b=17, c=12)  # a is a square mod b
        with pytest.raises(ValueError):
            ChateletParams(a=7, b=17, c=12)  # a not 1 mod 8


class TestBuild:
    def test_expansion(self, S):
        assert S.alpha == 697
        assert S.Ptilde.coeffs == (5916, 0, 985, 0, 41)

    def test_factorized_form(self, S):
        # P(x) = (x^2 + 12)(41 x^2 + 493)
        for x in (0, 1, Fraction(-5, 3), 7):
            assert S.Ptilde(x) == (x * x + 12) * (41 * x * x + 493)

    def test_smooth(self, S):
        assert S.disc == 3880896

    def test_iskovskikh(self):
        I = iskovskikh()
        assert I.alpha == -1
        assert I.Ptilde.coeffs == (-6, 0, 5, 0, -1)
        for x in (0, Fraction(3, 2)):
            assert I.Ptilde(x) == (x * x - 2) * (3 - x * x)

    def test_singular_rejected(self):
        S = ChateletSurface(alpha=Fraction(2),
                            Ptilde=BinaryQuartic((0, 0, 1, 0, 0)),
                            provenance="user")
        with pytest.raises(ValueError):
            S.require_smooth()


class TestBadPlaces:
    def test_constructed(self, S):
        places, cofactor = bad_places(S)
        assert [str(v) for v in places] == \
            ["oo", "2", "3", "17", "29", "41"]
        assert cofactor == 1

    def test_iskovskikh(self):
        places, cofactor = bad_places(iskovskikh())
        assert [str(v) for v in places] == ["oo", "2", "3"]
        assert cofactor == 1

    def test_places_of_the_integer_model(self):
        # 3 w^4 + x^4 / 3 has discriminant 256, but its integer model
        # 27 w^4 + 3 x^4, which every decision reads, has the prime 3,
        # where the surface has no point; both scalings are one surface
        tables = []
        for P in ((3, 0, 0, 0, Fraction(1, 3)), (27, 0, 0, 0, 3)):
            S = ChateletSurface(alpha=Fraction(5), Ptilde=BinaryQuartic(P),
                                provenance="user")
            report = verify_local_everywhere(S)
            tables.append((report.results, report.all_solvable,
                           report.uncertified_disc_cofactor))
        assert tables[0] == tables[1]
        results, all_solvable, cofactor = tables[0]
        assert [(str(r.place), r.solvable) for r in results] == [
            ("oo", True), ("2", True), ("3", False), ("5", True)]
        assert not all_solvable and cofactor == 1

    def test_cofactor_shares_a_prime_only_with_alpha(self):
        # P = x^4 + q U with q = 1000003 = alpha and U = 2^64 + 13 prime:
        # disc = 256 (q U)^3 keeps the cofactor (q U)^3 past trial
        # division; q is a listed place, and U^3 is prime to alpha and
        # to the content, so the unit-value argument covers it
        q, U = 1000003, 2**64 + 13
        S = ChateletSurface(alpha=Fraction(q),
                            Ptilde=BinaryQuartic((q * U, 0, 0, 0, 1)),
                            provenance="user")
        places, cofactor = bad_places(S)
        assert [str(v) for v in places] == ["oo", "2", str(q)]
        assert cofactor == U**3
        assert verify_local_everywhere(S).all_solvable


class TestLocalSolvability:
    def test_constructed_everywhere(self, S):
        rep = verify_local_everywhere(S)
        assert rep.all_solvable
        assert rep.uncertified_disc_cofactor == 1
        for r in rep.results:
            assert r.witness is not None

    def test_iskovskikh_everywhere(self):
        rep = verify_local_everywhere(iskovskikh())
        assert rep.all_solvable

    def test_witness_certificates_honest(self, S):
        for v in bad_places(S)[0]:
            ok, wit = local_solvable_surface(S, v)
            assert ok
            m, n = wit.x
            value = S.Ptilde.value(n, m)
            if wit.certificate == 1:
                assert value != 0
                if v.is_real:
                    assert S.alpha > 0 or value > 0
                else:
                    assert hilbert_symbol(S.alpha, value, v) == 1

    def test_real_failure_detected(self):
        S = ChateletSurface(alpha=Fraction(-1),
                            Ptilde=BinaryQuartic((-1, 0, 0, 0, -1)),
                            provenance="user")
        ok, wit = local_solvable_surface(S, REAL)
        assert not ok and wit is None

    def test_padic_failure_detected(self):
        # no Q_3-point: confirmed by exhausting primitive residues mod 3^5
        S = ChateletSurface(alpha=Fraction(3),
                            Ptilde=BinaryQuartic((-4, 1, 2, -3, 3)),
                            provenance="user")
        ok, _ = local_solvable_surface(S, finite_place(3))
        assert not ok

    def test_matches_sampling(self):
        # decider never says "unsolvable" where sampling finds a fiber,
        # the real place included
        rng = random.Random(5)
        for _ in range(40):
            coeffs = tuple(rng.randint(-8, 8) for _ in range(5))
            if all(c == 0 for c in coeffs):
                continue
            S = ChateletSurface(alpha=Fraction(rng.choice([-1, 2, 3, -5])),
                                Ptilde=BinaryQuartic(coeffs),
                                provenance="user")
            if S.disc == 0:
                continue
            for v in (REAL, finite_place(2), finite_place(3),
                      finite_place(5)):
                got, _ = local_solvable_surface(S, v)
                if got:
                    continue
                for m in range(-20, 21):
                    for n in (1, 2, 3):
                        val = S.Ptilde.value(n, m)
                        assert val != 0
                        assert hilbert_symbol(S.alpha, val, v) == -1

    def test_six_points_suffice(self, monkeypatch):
        # where alpha is a square in Q_v, and at a unit-value place, the
        # six fixed points decide: the sweep may not run
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr("chatelet.surface._sweep", no_sweep)
        places = [REAL] + [finite_place(p) for p in (2, 3, 5, 7, 17)]
        # squares at oo (2, 7, 17, 11), 2 (17, -15, -7), 3 (-2, 7),
        # 5 (-1, 11), 7 (2, 11, -3) and 17 (-1, 2, -2, -15)
        alphas = [-1, 2, -2, 7, 17, -15, 11, -3, -7, Fraction(17, 4)]
        rng = random.Random(11)
        hits = {str(v): 0 for v in places}
        forms = 0
        while forms < 100:
            coeffs = tuple(rng.randint(-9, 9) for _ in range(5))
            if all(c == 0 for c in coeffs):
                continue
            S = ChateletSurface(alpha=Fraction(rng.choice(alphas)),
                                Ptilde=BinaryQuartic(coeffs),
                                provenance="user")
            if S.disc == 0:
                continue
            forms += 1
            for v in places:
                if not is_local_square(S.alpha, v):
                    continue
                ok, wit = local_solvable_surface(S, v)
                assert ok and wit.certificate in (1, "degenerate")
                hits[str(v)] += 1
        assert all(hits.values()), hits
        q = 100003  # divides neither alpha nor the content of P~
        S = ChateletSurface(alpha=Fraction(-3),
                            Ptilde=BinaryQuartic((-1, -3, -1, -1, 2)),
                            provenance="user")
        ok, wit = local_solvable_surface(S, finite_place(q))
        assert ok and wit.certificate == 1

    def test_big_prime_guard_after_six_points(self):
        v = finite_place(100003)
        S = ChateletSurface(alpha=Fraction(100003),
                            Ptilde=BinaryQuartic((0, 1, 0, 0, 1)),
                            provenance="user")
        ok, wit = local_solvable_surface(S, v)
        assert ok and wit.x == (0, 1) and wit.certificate == "degenerate"
        S = ChateletSurface(alpha=Fraction(100003),
                            Ptilde=BinaryQuartic((-1, -3, -1, -1, 2)),
                            provenance="user")
        with pytest.raises(OutOfCertifiedRangeError,
                           match="too large for exact residue enumeration"):
            local_solvable_surface(S, v)


def _reference_sweep(S, v):
    """The p-adic sweep as a recursion over residue classes, the walk of
    `residue_discs` written out: the first class that certifies a
    point, or None."""
    p = v.p
    f = S.Ptilde.integer_square_scaled
    df_x = tuple(i * c for i, c in enumerate(f))[1:]
    df_w = tuple(i * c for i, c in enumerate(f[::-1]))[1:]

    def decide(x, k):
        m, n = x
        value = evaluate_quartic(f, m, n)
        if value == 0:
            return CertifiedLocalX(x, v, "degenerate")
        e = split_valuation(value, p)[0]
        if (e <= k - 3) if p == 2 else (e < k):
            return CertifiedLocalX(x, v, 1) \
                if hilbert_symbol(S.alpha, value, v) == 1 else None
        deriv = (evaluate_form(df_x, m, 1) if n == 1
                 else evaluate_form(df_w, n, 1))
        if deriv != 0 and e > 2 * split_valuation(deriv, p)[0]:
            return CertifiedLocalX(x, v, "degenerate")
        for j in range(p):
            child = (m + j * p**k, 1) if n == 1 else (1, n + j * p**k)
            found = decide(child, k + 1)
            if found is not None:
                return found
        return None

    for x in [(x0, 1) for x0 in range(p)] + [(1, 0)]:
        found = decide(x, 1)
        if found is not None:
            return found
    return None


def _newton_as_class(real):
    """A broken disc walk that takes Newton discs for discs of constant
    class."""
    return lambda *args, **kw: (
        (centre, k, "class" if kind == "newton" else kind)
        for centre, k, kind in real(*args, **kw))


def _sweep_cases():
    """The seeded cases of TestLocalSolvability, and the two surfaces at
    their bad places, as (surface, place)."""
    cases = [(S, finite_place(p))
             for S in (build_surface(find_params(100)), iskovskikh())
             for p in (2, 3, 17, 29, 41)]
    cases.append((ChateletSurface(
        alpha=Fraction(3), Ptilde=BinaryQuartic((-4, 1, 2, -3, 3)),
        provenance="user"), finite_place(3)))
    rng = random.Random(5)
    for _ in range(40):
        coeffs = tuple(rng.randint(-8, 8) for _ in range(5))
        if all(c == 0 for c in coeffs):
            continue
        S = ChateletSurface(alpha=Fraction(rng.choice([-1, 2, 3, -5])),
                            Ptilde=BinaryQuartic(coeffs),
                            provenance="user")
        if S.disc != 0:
            cases += [(S, finite_place(p)) for p in (2, 3, 5)]
    return cases


class TestResidueDiscs:
    """`residue_discs`, the one p-adic walk: it tiles P^1(Z_p), and the
    local decider and the reciprocity bits read it."""

    SURFACES = {"constructed": lambda: build_surface(find_params(100)),
                "iskovskikh": iskovskikh}

    @pytest.mark.parametrize("p", [2, 3, 17, 41])
    @pytest.mark.parametrize("name", ["constructed", "iskovskikh"])
    def test_discs_tile_the_line(self, name, p):
        f = self.SURFACES[name]().Ptilde.integer_square_scaled
        deepest = max(k for _, k, _ in residue_discs(f, p, 80))
        for depth in (1, 2, 80):
            discs = list(residue_discs(f, p, depth))
            affine = [(m, k) for (m, n), k, _ in discs if n == 1]
            at_infinity = [(n, k) for (m, n), k, _ in discs if n != 1]
            assert all(m == 1 and n % p == 0
                       for (m, n), _, _ in discs if n != 1)
            # measures p^-k: all of Z_p, and pZ_p in w = 1/x
            assert sum(Fraction(1, p**k) for _, k in affine) == 1
            assert sum(Fraction(1, p**k) for _, k in at_infinity) == \
                Fraction(1, p)
            for chart in (affine, at_infinity):
                for i, (a, k) in enumerate(chart):
                    for b, j in chart[i + 1:]:
                        assert (a - b) % p**min(k, j), (a, k, b, j)
            kinds = [kind for _, _, kind in discs]
            assert ("open" in kinds) == (depth < deepest)
            for (m, n), k, kind in discs:
                value = evaluate_quartic(f, m, n)
                assert (value == 0) == (kind == "root")
                if kind != "class":
                    continue
                # one square class: value(t) / value is a p-adic square
                for t in range(1, 6):
                    point = (m + t * p**k, 1) if n == 1 else \
                        (1, n + t * p**k)
                    ratio = Fraction(evaluate_quartic(f, *point), value)
                    assert is_local_square(ratio, finite_place(p))

    def test_disc_counts(self):
        # the cover of the constructed surface at its bad places
        f = build_surface(find_params(100)).Ptilde.integer_square_scaled
        counts = {p: (len(discs), max(k for _, k, _ in discs),
                      sum(kind == "newton" for _, _, kind in discs))
                  for p in (2, 3, 17, 29, 41)
                  for discs in [list(residue_discs(f, p, 80))]}
        assert counts == {2: (52, 7, 0), 3: (6, 2, 2), 17: (34, 2, 0),
                          29: (58, 2, 0), 41: (82, 2, 0)}

    def test_sweep_matches_recursion(self):
        # each case gives the certificate of the recursion
        cases = _sweep_cases()
        unsolvable = 0
        for S, v in cases:
            want = _reference_sweep(S, v)
            assert surface_mod._sweep(S, v) == want, (S, v)
            unsolvable += want is None
        assert len(cases) > 100 and unsolvable

    @pytest.mark.parametrize("module, name, broken", [
        # the constancy rule loosened by one: v <= k at odd p ...
        (quartic_mod, "one_square_class",
         lambda real: lambda e, k, p: real(e, k + (p != 2), p)),
        # ... and v <= k - 2 at 2
        (quartic_mod, "one_square_class",
         lambda real: lambda e, k, p: real(e, k + (p == 2), p)),
        (surface_mod, "residue_discs", _newton_as_class),
    ], ids=["odd-p-by-one", "two-by-one", "newton-decided"])
    def test_broken_discs_are_caught(self, monkeypatch, module, name,
                                     broken):
        # the recursion keeps the rules as written, so the sweep over a
        # broken walk gives another certificate on some case
        cases = [(S, v, _reference_sweep(S, v)) for S, v in _sweep_cases()]
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        assert any(surface_mod._sweep(S, v) != want
                   for S, v, want in cases)


_X = sympy.Symbol("x")


def _roots_inside(sturm, left, right):
    """The number of roots of the square-free P strictly inside the open
    segment (left, right), None standing for -oo or +oo, from sympy's
    Sturm sequence of P.  By Sturm's theorem the sign changes of the
    sequence drop by one at each root and nowhere else, so V(left) -
    V(right) counts the roots in (left, right]."""
    def changes(x, at_minus_infinity):
        signs = []
        for coeffs in sturm:
            if x is not None:
                value = evaluate_form(coeffs, x, 1)
            elif at_minus_infinity:
                value = coeffs[-1] * (-1) ** (len(coeffs) - 1)
            else:
                value = coeffs[-1]
            if value:
                signs.append(value > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    on_right = right is not None and evaluate_form(sturm[0], right, 1) == 0
    return changes(left, True) - changes(right, False) - on_right


class TestRealWalk:
    """The real place of a surface with alpha < 0, against sympy."""

    def test_against_sympy_root_count(self):
        # Iskovskikh's form, whose only pieces with P >= 0 are shared
        # ends of isolating intervals, the forms (x^2 - p)(q - x^2),
        # positive only where p < x^2 < q, and seeded forms
        forms = [(-6, 0, 5, 0, -1)]
        forms += [(-p * q, 0, p + q, 0, -1)
                  for q in range(2, 21) for p in range(1, q)]
        rng = random.Random(20261019)
        while len(forms) < 1000:
            coeffs = tuple(rng.randint(-9, 9) for _ in range(5))
            if any(coeffs) and disc_from_coeffs(coeffs) != 0:
                forms.append(coeffs)
        solvable = 0
        for coeffs in forms:
            S = ChateletSurface(alpha=Fraction(rng.choice((-1, -2, -7))),
                                Ptilde=BinaryQuartic(coeffs),
                                provenance="user")
            poly = sympy.Poly(list(reversed(coeffs)), _X)
            # with alpha < 0, y^2 - alpha z^2 = P~(x) has a real point iff
            # P~ takes a value >= 0: at a real root, or at x = infinity
            expected = int(poly.count_roots()) > 0 or coeffs[4] >= 0
            ok, _ = local_solvable_surface(S, REAL)
            assert ok == expected, coeffs
            # the walk alone is complete, without the six points
            assert (surface_mod._sweep(S, REAL) is not None) == expected, \
                coeffs
            solvable += expected
            sturm = [[Fraction(int(c.p), int(c.q))
                      for c in reversed(q.all_coeffs())]
                     for q in poly.sturm()]
            # P has one sign on each piece, that of its point
            for left, x, right in sign_points(coeffs):
                assert evaluate_quartic(coeffs, x, 1) != 0, coeffs
                if left is None or right is None or left < right:
                    assert (left is None or left < x) and \
                        (right is None or x < right), coeffs
                    assert _roots_inside(sturm, left, right) == 0, coeffs
        assert 0 < solvable < len(forms)


class TestBrauer:
    def test_requires_constructed(self):
        with pytest.raises(ValueError):
            obstruction_report(iskovskikh())

    def test_invariant_constant_and_rep_independent(self, S):
        for v in bad_places(S)[0]:
            pts = sample_certified_points(S, v, 25, seed=7)
            invs = set()
            for pt in pts:
                reps = eval_invariant_all_reps(S, pt)
                assert len(set(reps)) == 1
                invs.add(reps[0])
            assert len(invs) == 1
            expected = Fraction(1, 2) if str(v) == "17" else Fraction(0)
            assert invs == {expected}

    def test_representations_never_both_vanish(self, S):
        # the split's parts k f_1 = x^2 + c and f_2 = a x^2 + ac + 1
        # have a nonzero resultant: f_2 - a k f_1 = n^2
        f, g = S.Ptilde.factors
        for m, n in ((1, 0), (0, 1), (3, 2), (-7, 5)):
            f1, f2 = evaluate_form(f, m, n), evaluate_form(g, m, n)
            assert f2 - S.params.a * f1 == n * n
            assert f1 != 0 or f2 != 0


def _admissible_params(bound):
    """Every admissible (a, b, c) with a, b < bound, c = -a^-1 mod b."""
    primes = [p for p in range(7, bound) if p % 8 == 1 and sympy.isprime(p)]
    return [ChateletParams(a, b, -pow(a, -1, b) % b)
            for a in primes for b in primes
            if a != b and sympy.legendre_symbol(a, b) == -1]


class TestBrauerFromSplit:
    """The class (ab, x^2 + c) is read from the split of P~, not from
    the parameters."""

    PARAMS = _admissible_params(200)

    def test_every_admissible_surface(self):
        assert len(self.PARAMS) == 34
        for params in self.PARAMS:
            a, b, c = params.a, params.b, params.c
            S = build_surface(params)
            assert S.Ptilde.factors == ((c, 0, 1), (a * c + 1, 0, a))
            rep = obstruction_report(S)
            assert rep.invariant_sum == Fraction(1, 2)
            assert {str(r.place): r.invariant for r in rep.records
                    if r.invariant} == {str(b): Fraction(1, 2)}, params

    def test_wrong_split_is_caught(self):
        # k f_1 = x^2 + 13 in place of x^2 + 12: its class has no one
        # bit at some place, so there are no bits and no proof
        T = build_surface(find_params(100))
        _, g = T.Ptilde.factors
        T.Ptilde.__dict__["factors"] = ((13, 0, 1), g)
        with pytest.raises(ArithmeticError):
            obstruction_report(T)
        assert T.brauer is None

    def test_needs_two_quadratics(self):
        # x^4 + w^4 is irreducible over Q
        T = ChateletSurface(alpha=Fraction(697),
                            Ptilde=BinaryQuartic((1, 0, 0, 0, 1)),
                            provenance="user")
        with pytest.raises(ValueError):
            eval_invariant_all_reps(T, CertifiedLocalX((0, 1), REAL, 1))


class TestObstruction:
    def test_report(self, S):
        rep = obstruction_report(S)
        assert rep.invariant_sum == Fraction(1, 2)
        assert rep.conclusion == "no-rational-point-certified"
        by_place = {str(r.place): r.invariant for r in rep.records}
        assert by_place["17"] == Fraction(1, 2)
        assert all(inv == 0 for place, inv in by_place.items()
                   if place != "17")

    def test_determinism(self, S):
        a = obstruction_report(S)
        b = obstruction_report(build_surface(S.params))
        assert a == b


class TestSearch:
    def test_no_point_small_heights(self, S):
        res = rational_point_search(S, 60)
        assert not res.found

    def test_planted_point(self):
        S = ChateletSurface(alpha=Fraction(2),
                            Ptilde=BinaryQuartic((6, 0, 0, 0, 1)),
                            provenance="user")
        res = rational_point_search(S, 10)
        assert res.found
        m, n = res.x
        value = S.Ptilde.value(n, m)
        y, z = res.witness
        assert y * y - 2 * z * z == value

    def test_degenerate_fiber_found(self):
        # P has the rational root x = 1
        S = ChateletSurface(alpha=Fraction(3),
                            Ptilde=BinaryQuartic((-1, 0, 0, 0, 1)),
                            provenance="user")
        res = rational_point_search(S, 5)
        assert res.found

    def test_degenerate_fiber_is_the_hit(self):
        # -x^4 - 8x = -x (x + 2)(x^2 - 2x + 4) is negative at x = oo and
        # at every x < -2, which alpha = -1 rejects at the real place, so
        # the scan's first hit is the root x = -2, a degenerate fiber
        S = ChateletSurface(alpha=Fraction(-1),
                            Ptilde=BinaryQuartic((0, -8, 0, 0, -1)),
                            provenance="user")
        res = rational_point_search(S, 5)
        assert res.found and res.x == (-2, 1)
        assert res.note == "degenerate fiber"
        assert res.witness == (0, 0)


def _reference_scan(coeffs, alpha, alpha_odd_primes, H):
    """The scan without its symmetry: every x of height <= H in the
    scan's order, each evaluated and decided."""
    for n in range(H + 1):
        for m in (range(-H, H + 1) if n else (1,)):
            if math.gcd(m, n) == 1:
                r = sum(c * m**i * n**(4 - i) for i, c in enumerate(coeffs))
                if r == 0 or conic_decide(alpha, alpha_odd_primes, r):
                    return m, n
    return None


def _scan_x(quartic, alpha, alpha_odd_primes, H):
    """The x of `conic_scan`'s hit, or None, after checking that the
    hit's class is the square class of the fiber's integer value (None
    for a zero value)."""
    hit = pure.conic_scan(quartic, alpha, alpha_odd_primes, H)
    if hit is None:
        return None
    (m, n), r_class = hit
    r = evaluate_quartic(quartic.integer_square_scaled, m, n)
    assert r_class == (square_class(r) if r else None), (m, n)
    return m, n


def _is_square(n):
    """Is the integer n a square?"""
    return n >= 0 and math.isqrt(n) ** 2 == n


def _times(f, g):
    """Product of two coefficient tuples, low degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _scan_case(rng, kind, H):
    """A smooth integer quartic of the given kind."""
    while True:
        if kind == "random":
            coeffs = [rng.randint(-9, 9) for _ in range(5)]
            if rng.random() < 0.5:  # odd in one of c1, c3 only: not even
                coeffs[rng.choice((1, 3))] = 0
            coeffs = tuple(coeffs)
        elif kind == "even":
            c0, c2, c4 = (rng.randint(-9, 9) for _ in range(3))
            coeffs = (c0, 0, c2, 0, c4)
        elif kind == "rational-root":
            # simple roots a/b and a2/b2 with b, b2 <= H, where P changes
            # sign: each zero value sits at an end of a segment where P < 0
            b, b2 = rng.randint(1, max(H, 1)), rng.randint(1, max(H, 1))
            a, a2 = rng.randint(-2 * b, 2 * b), rng.randint(-2 * b2, 2 * b2)
            if rng.random() < 0.5:  # an even form: roots +-a/b
                f = (-a * a, 0, b * b)
            else:
                f = _times((-a, b), (-a2, b2))
            g = (-rng.randint(1, 9), rng.randint(-3, 3),
                 -rng.randint(1, 9))
            coeffs = _times(f, g)
        else:  # negative definite: -(x^2 + s x + u)(v x^2 + t x + w)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            u, v = s * s + rng.randint(1, 9), rng.randint(1, 9)
            w = t * t + rng.randint(1, 9)
            if rng.random() < 0.5:
                s = t = 0
            coeffs = tuple(-c for c in _times((u, s, 1), (w, t, v)))
        if any(coeffs) and disc_from_coeffs(coeffs) != 0:
            return coeffs


def _shared_case(rng):
    """A smooth k * f_1 * ... * f_s with small rational factors: their
    resultants are seldom units, so at some fibers two parts share an
    odd prime, which `conic_decide` must find and check on the
    product."""
    shapes = ((1, 1, 2), (1, 1, 1, 1), (2, 2), (1, 3))
    while True:
        f = (rng.choice((1, -1, 2, -3, 6, -6, 10)),)
        for d in rng.choice(shapes):
            g = tuple(rng.randint(-6, 6) for _ in range(d))
            f = _times(f, g + (rng.randint(1, 4),))
        if disc_from_coeffs(f) != 0:
            return f


def _prime_to_2alpha(g, alpha):
    """g with the primes of 2 alpha divided out."""
    while (h := math.gcd(g, 2 * alpha)) > 1:
        g //= h
    return g


def _shares_odd_prime(parts, alpha):
    """Do two of the parts share a prime that does not divide 2 alpha?"""
    return any(_prime_to_2alpha(math.gcd(a, b), alpha) > 1
               for i, a in enumerate(parts) for b in parts[i + 1:])


class TestScanParity:
    """`conic_scan` skips fibers by the x -> -x symmetry and decides a
    split quartic from its factor values; its first hit must be the one
    of the plain double loop."""

    ALPHAS = (-1, -2, -3, -5, -6, -7, -15, -17, 1, 2, 3, 5, 7, 17, 697)

    def _random_cases(self):
        rng = random.Random(20261018)
        kinds = ("random", "even", "rational-root", "negative-definite")
        cases = []
        for i in range(400):
            kind = kinds[i % 4]
            H = rng.randint(0, 30)
            coeffs = _scan_case(rng, kind, H)
            alpha, primes = square_class(rng.choice(self.ALPHAS))
            odd = tuple(p for p in primes if p != 2)
            cases.append((kind, coeffs, alpha, odd, H))
        return cases

    def test_first_hit_matches_reference(self):
        seen = {"none": 0, "boundary-zero": 0}
        for kind, coeffs, alpha, odd, H in self._random_cases():
            hit = _scan_x(BinaryQuartic(coeffs), alpha, odd, H)
            want = _reference_scan(coeffs, alpha, odd, H)
            assert hit == want, (coeffs, alpha, H)
            if want is None:
                seen["none"] += 1
            elif alpha < 0 and kind == "rational-root" and \
                    sum(c * want[0]**k * want[1]**(4 - k)
                        for k, c in enumerate(coeffs)) == 0:
                seen["boundary-zero"] += 1
        assert min(seen.values()) >= 20, seen

    def test_no_real_point_is_not_scanned(self, monkeypatch):
        # with alpha < 0 a negative definite P~ leaves no fiber a real
        # point, and the search returns before the scan
        surfaces = [_user_surface(coeffs, alpha)
                    for kind, coeffs, alpha, _, _ in self._random_cases()
                    if kind == "negative-definite" and alpha < 0]
        assert len(surfaces) >= 20
        for S in surfaces:
            assert REAL in _search_without_scan(monkeypatch, S, 300)

    def test_local_table_hides_no_point(self):
        # every tenth surface of a box of (x^2 + u x + v) k (x^2 + s x + t)
        # with two irreducible factors: the search returns before the
        # scan on those with no local point somewhere, and its first hit
        # on every surface is the one of the plain double loop
        box = [(alpha, _times((k,), _times((v, u, 1), (t, s, 1))))
               for alpha, k, u, v, s, t in itertools.product(
                   (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7), (1, -1, 2, -3),
                   range(-1, 2), range(-3, 4), range(-2, 3), range(-3, 4))
               if not _is_square(u * u - 4 * v)
               and not _is_square(s * s - 4 * t)]
        box = [(alpha, coeffs) for alpha, coeffs in box
               if disc_from_coeffs(coeffs)][::10]
        H, unsolvable = 4, 0
        for alpha, coeffs in box:
            S = _user_surface(coeffs, alpha)
            res = rational_point_search(S, H)
            alpha_sf, primes = square_class(alpha)
            odd = tuple(p for p in primes if p != 2)
            assert (res.x if res.found else None) == _reference_scan(
                coeffs, alpha_sf, odd, H), (coeffs, alpha)
            unsolvable += not S.local.all_solvable
        assert len(box) == 1452 and unsolvable == 177

    SHARED_ALPHAS = (-1, -2, -3, -5, -6, -7, -15, 1, 2, 3, 5, 7, 15, 21)

    def _shared_cases(self):
        rng = random.Random(20261019)
        cases = []
        for _ in range(200):
            coeffs = _shared_case(rng)
            alpha, primes = square_class(rng.choice(self.SHARED_ALPHAS))
            odd = tuple(p for p in primes if p != 2)
            cases.append((coeffs, alpha, odd, rng.randint(1, 30)))
        return cases

    def test_shared_primes_first_hit_matches_reference(self, monkeypatch):
        # a split quartic is decided from its parts; where two parts
        # share an odd prime, `conic_decide` finds it by a gcd and keeps
        # the decision that of the product
        decided = []
        real_decide = pure.conic_decide
        monkeypatch.setattr(pure, "conic_decide",
                            lambda *a, **k: decided.append(a)
                            or real_decide(*a, **k))
        shared = 0
        for coeffs, alpha, odd, H in self._shared_cases():
            decided.clear()
            hit = _scan_x(BinaryQuartic(coeffs), alpha, odd, H)
            assert hit == _reference_scan(coeffs, alpha, odd, H), (
                coeffs, alpha, H)
            shared += any(_shares_odd_prime(parts, alpha)
                          for _, _, *parts in decided)
        assert shared >= 50, shared

    def test_broken_gcd_is_caught(self, monkeypatch):
        # with every gcd in `conic_decide` 1, a prime that two parts
        # share is read on each part alone, and the cases above tell
        # that from the product; the reference decides each product
        # whole, before the gcds are broken
        cases = [(case, _reference_scan(*case))
                 for case in self._shared_cases()]
        math_without_gcd = dict(vars(math), gcd=lambda a, b: 1)
        monkeypatch.setattr(local_mod, "math",
                            types.SimpleNamespace(**math_without_gcd))
        hits = [pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
                for (coeffs, alpha, odd, H), _ in cases]
        assert any((hit and hit[0]) != want
                   for hit, (_, want) in zip(hits, cases))


def _reciprocity_case(rng, kind):
    """A smooth k f_1 f_2 with two irreducible quadratic factors, alpha
    and a height from 16 to 30.  "iskovskikh": -k (x^2 - a)(x^2 - b)
    with alpha < 0, mostly -1, the family of Iskovskikh's surface, on
    which the rule often holds.  "real-sign": -k (x^2 + a)(x^2 + s x + u)
    with x^2 + s x + u indefinite and alpha < 0, so that k f_1 < 0
    wherever P~ > 0: the bit at oo is -1.  "random": small random
    factors, whose resultant often has an odd prime outside 2 alpha."""
    while True:
        H = rng.randint(16, 30)
        k = rng.choice((1, 2, 3))
        if kind == "iskovskikh":
            a, b = rng.sample(range(1, 30), 2)
            coeffs = _times((-k,), _times((-a, 0, 1), (-b, 0, 1)))
            alpha = rng.choice((-1, -1, -1, -2, -3))
        elif kind == "real-sign":
            a, s = rng.randint(1, 5), rng.randint(5, 8)
            u = rng.randint(a + 1, (s * s - 1) // 4)
            coeffs = _times((-k,), _times((a, 0, 1), (u, s, 1)))
            alpha = rng.choice((-1, -1, -3, -7))
        else:
            f = (rng.randint(-15, 15), rng.randint(-2, 2), rng.randint(1, 3))
            g = (rng.randint(-30, 30), rng.randint(-2, 2),
                 rng.choice((1, -1, 2, -2, 3, -3)))
            coeffs = _times((rng.choice((1, -1, 2, -3, 6)),), _times(f, g))
            alpha = rng.choice((-1, -2, -3, -6, -7, 2, 3, 5, 6, 7, 10))
        if disc_from_coeffs(coeffs) == 0:
            continue
        forms = BinaryQuartic(coeffs).factors
        if len(forms) == 2 and len(forms[0]) == 3:
            alpha, primes = square_class(alpha)
            return coeffs, alpha, tuple(p for p in primes if p != 2), H


def _user_surface(coeffs, alpha):
    return ChateletSurface(alpha=Fraction(alpha),
                           Ptilde=BinaryQuartic(coeffs), provenance="user")


def _rule_holds(S):
    """Do the reciprocity bits of S (`ChateletSurface.brauer`) multiply
    to -1?"""
    return S.brauer is not None and math.prod(S.brauer.values()) == -1


def _places_of_t(coeffs, alpha):
    """The finite places of T, found by sympy: 2 and the primes of alpha
    and of Res(k f_1, f_2)."""
    f, g = BinaryQuartic(coeffs).factors
    res = sympy.resultant(sympy.Poly(list(reversed(f)), _X),
                          sympy.Poly(list(reversed(g)), _X))
    return ({2} | set(sympy.factorint(alpha)) | set(sympy.factorint(res))) \
        - {-1}


class TestReciprocity:
    """The reciprocity bits of a surface, `ChateletSurface.brauer`: when
    P~ = k f_1 f_2 and the symbol (alpha, k f_1)_v has one value on the
    fibers with a Q_v-point at each place v of T, with product -1, no
    fiber is solvable, and the search returns without a scan."""

    PARAMS = _admissible_params(200)

    def test_admissible_surfaces_need_no_decision(self, monkeypatch):
        # the verdict holds at every height, with no scan and no decision
        calls = []
        real_scan, real_decide = surface_mod.conic_scan, pure.conic_decide
        monkeypatch.setattr(surface_mod, "conic_scan",
                            lambda *a: calls.append(a) or real_scan(*a))
        monkeypatch.setattr(pure, "conic_decide",
                            lambda *a: calls.append(a) or real_decide(*a))
        assert len(self.PARAMS) == 34
        surfaces = [iskovskikh()] + [build_surface(p) for p in self.PARAMS]
        for S in surfaces:
            for H in range(1, 61):
                assert rational_point_search(S, H) == (H, False, None, None,
                                                       f"none up to {H}")
            assert calls == [], S
        for S in surfaces:
            alpha, primes = square_class(S.alpha)
            odd = tuple(p for p in primes if p != 2)
            assert _reference_scan(S.Ptilde.integer_square_scaled, alpha,
                                   odd, 12) is None

    def test_bits_match_sampled_invariants(self):
        # the sampled invariants read the class (alpha, k f_1) of the
        # bits, so at each place of T they are the invariant of its bit,
        # also where k != 1: on Iskovskikh's surface (k = -1) and on
        # -3 (x^2 - 2x - 2)(x^2 + x + 3) with alpha = -3
        surfaces = [iskovskikh(), _user_surface((18, 24, 3, 3, -3), -3)]
        surfaces += [build_surface(p) for p in self.PARAMS]
        for S in surfaces:
            for v, bit in S.brauer.items():
                pts = sample_certified_points(S, v, 5, seed=0)
                invs = {inv for pt in pts
                        for inv in eval_invariant_all_reps(S, pt)}
                assert invs == {inv_from_symbol(bit)}, (S.surface_id(), v)

    def test_report_matches_sampled_invariants(self):
        # every record of `obstruction_report`, at the places of the bits
        # and at the unit-value places alike, is the invariant that the
        # class reads at sampled points there
        assert len(self.PARAMS) == 34
        for params in self.PARAMS:
            S = build_surface(params)
            for r in obstruction_report(S).records:
                pts = sample_certified_points(S, r.place, 5, seed=0)
                invs = {inv for pt in pts
                        for inv in eval_invariant_all_reps(S, pt)}
                assert invs == {r.invariant}, (params, r)

    def test_bits_past_the_walk_bound(self, monkeypatch):
        # b = 100057 is past `_WALK_PRIME_BOUND`: the six points certify
        # a local point there, but no walk gives its bit, so the rule
        # does not apply; with the bound raised to b the walk gives -1
        params = ChateletParams(17, 100057, 58857)
        S = build_surface(params)
        assert S.local.all_solvable and S.brauer is None
        monkeypatch.setattr(surface_mod, "_WALK_PRIME_BOUND", 100057)
        assert build_surface(params).brauer == {
            REAL: 1, finite_place(2): 1, finite_place(17): 1,
            finite_place(100057): -1}

    def test_skipped_fibers_have_a_rejecting_place(self):
        # every fiber whose symbol is +1 at oo and at each place of T has
        # a prime q outside T, found by sympy, where the symbol is -1
        cases = [(iskovskikh().Ptilde.integer_square_scaled, -1, (), 30),
                 (build_surface(find_params(100)).Ptilde
                  .integer_square_scaled, 697, (17, 41), 24)]
        rng = random.Random(20261020)
        # some surfaces that the rule proves have few fibers through T
        while len(cases) < 12:
            case = _reciprocity_case(rng, "iskovskikh")
            if _rule_holds(_user_surface(*case[:2])):
                cases.append(case)
        witnessed = []
        for coeffs, alpha, odd, H in cases:
            assert _rule_holds(_user_surface(coeffs, alpha)), coeffs
            places = _places_of_t(coeffs, alpha)
            witnessed.append(0)
            for m, n in TestSearchPast64Bits._fibers(H):
                r = evaluate_quartic(coeffs, m, n)
                if hilbert_symbol(alpha, r, REAL) == -1 or any(
                        hilbert_symbol(alpha, r, finite_place(p)) == -1
                        for p in places):
                    continue
                assert any(hilbert_symbol(alpha, r, finite_place(q)) == -1
                           for q in sympy.factorint(r)
                           if q > 0 and q not in places), (coeffs, m, n)
                witnessed[-1] += 1
        # Iskovskikh's surface and the constructed one among them
        assert witnessed[0] and witnessed[1] and sum(witnessed) >= 250, \
            witnessed

    def test_first_hit_matches_reference(self):
        rng = random.Random(20261020)
        seen = {"holds": 0, "holds, oo bit -1": 0,
                "odd prime of Res outside 2 alpha": 0}
        for i in range(450):
            kind = ("iskovskikh", "real-sign", "random")[i % 3]
            coeffs, alpha, odd, H = _reciprocity_case(rng, kind)
            S = _user_surface(coeffs, alpha)
            res = rational_point_search(S, H)
            assert (res.x if res.found else None) == _reference_scan(
                coeffs, alpha, odd, H), (coeffs, alpha, H)
            holds = _rule_holds(S)
            seen["holds"] += holds
            seen["holds, oo bit -1"] += holds and kind == "real-sign"
            seen["odd prime of Res outside 2 alpha"] += any(
                q % 2 and alpha % q for q in _places_of_t(coeffs, alpha))
        assert seen["holds"] >= 30 and seen["holds, oo bit -1"] >= 9 \
            and seen["odd prime of Res outside 2 alpha"] >= 100, seen

    def test_constant_k_keeps_a_class_disc(self, monkeypatch):
        # -3 (x^2 - 2x - 2)(x^2 + x + 3), alpha = -3: k f_1 has the square
        # class of its centre on a disc where v_3(f_1) is small enough,
        # whatever v_3(k), so the bit at 3 is -1 and the rule holds
        coeffs, alpha = (18, 24, 3, 3, -3), -3
        S = _user_surface(coeffs, alpha)
        assert S.brauer == {REAL: 1, finite_place(2): 1,
                            finite_place(3): -1, finite_place(37): 1}
        assert _search_without_scan(monkeypatch, S, 300) == []
        assert _reference_scan(coeffs, alpha, (3,), 20) is None

    @pytest.mark.parametrize("coeffs, alpha, H, depth, hit", [
        # -(x^2 + 6)(x^2 + 7x + 11), alpha = -6: the bits at 2 and 3 are
        # +1 and -1, so the rule needs the -1 at oo, where -(x^2 + 6) < 0
        ((-66, -42, -17, -7, -1), -6, 20, None, (-4, 1)),
        # -3 (x^2 + x - 5)(3x^2 + 2x + 6), alpha = -1: the resultant's
        # 3 is inert and its walk has discs of either bit
        ((90, 12, 21, -15, -9), -1, 10, None, (0, 1)),
        # -(x^2 - 2x - 6)(3x^2 + 8), alpha = -6, with every walk stopped
        # at depth 1: the discs left open there have no bit
        ((48, 16, 10, 6, -3), -6, 9, 1, (-1, 1)),
    ], ids=["sign-at-oo", "resultant-prime", "open-disc"])
    def test_pinned_cases(self, monkeypatch, coeffs, alpha, H, depth, hit):
        # each has a solvable fiber that a rule missing one of its
        # conditions would skip
        if depth is not None:
            real = surface_mod._walk_depth
            monkeypatch.setattr(surface_mod, "_walk_depth", lambda S, p: min(
                real(S, p), depth))
        odd = tuple(p for p in square_class(alpha)[1] if p != 2)
        assert _reference_scan(coeffs, alpha, odd, H) == hit
        assert rational_point_search(_user_surface(coeffs, alpha), H).x == hit


def _search_without_scan(monkeypatch, S, H):
    """The places where S has no local point, after checking that the
    search at height H finds nothing with no scan and no decision."""
    calls = []
    real_scan, real_decide = surface_mod.conic_scan, pure.conic_decide
    monkeypatch.setattr(surface_mod, "conic_scan",
                        lambda *a: calls.append(a) or real_scan(*a))
    monkeypatch.setattr(pure, "conic_decide",
                        lambda *a: calls.append(a) or real_decide(*a))
    assert rational_point_search(S, H) == (H, False, None, None,
                                           f"none up to {H}")
    assert calls == []
    return [r.place for r in S.local.results if not r.solvable]


class TestClosedWalk:
    """Surfaces whose walk at 3 is all class discs of symbol -1: those
    discs tile P^1(Z_3), so no fiber has a Q_3-point.  `S.local` finds
    none, and the search returns before the scan builds a row."""

    # each P~ is irreducible and has no Q_3-point on any fiber
    CASES = [(21, (21, 0, 2, 30, -15)), (6, (23, -2, 28, -7, -28)),
             (-3, (14, 24, -14, 3, -7))]

    @pytest.mark.parametrize("alpha, coeffs", CASES)
    def test_no_row_is_built(self, monkeypatch, alpha, coeffs):
        S = _user_surface(coeffs, alpha)
        assert _search_without_scan(monkeypatch, S, 300) == [
            finite_place(3)]

    @pytest.mark.parametrize("alpha, coeffs", CASES)
    def test_first_hit_matches_reference(self, alpha, coeffs):
        odd = tuple(p for p in square_class(alpha)[1] if p != 2)
        assert _reference_scan(coeffs, alpha, odd, 20) is None
        assert pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, 20) is None


class TestFiberParts:
    """The parts of each fiber's value that `conic_scan` decides."""

    def test_constructed_surface_splits(self):
        parts = pure._fiber_parts(BinaryQuartic((5916, 0, 985, 0, 41)))
        # (x^2 + 12)(41 x^2 + 493)
        assert parts(-7, 3) == [12 * 9 + 49, 493 * 9 + 41 * 49]

    def test_shared_primes_are_checked(self):
        # 6 x^4 - 6 = 6 (x - 1)(x + 1)(x^2 + 1): k = 6 and every
        # resultant is +-2; at x = -7 the parts share 3, which the
        # decision finds and checks on the product
        parts = pure._fiber_parts(BinaryQuartic((-6, 0, 0, 0, 6)))(-7, 1)
        assert parts == [6 * -8, -6, 50]
        for alpha in (-1, 2, 3, 5, -15):
            odd = tuple(p for p in square_class(alpha)[1] if p != 2)
            assert conic_decide(alpha, odd, *parts) == conic_decide(
                alpha, odd, math.prod(parts))

    @pytest.mark.parametrize("coeffs", [
        (1, 0, -10, 0, 1),   # irreducible
    ])
    def test_one_part(self, coeffs):
        parts = pure._fiber_parts(BinaryQuartic(coeffs))
        assert parts(5, 2) == [evaluate_quartic(coeffs, 5, 2)]

    @pytest.mark.parametrize("coeffs", [
        (4, 0, -4, 0, 1),   # (x^2 - 2)^2: a zero resultant
        # (x^2 - A)(x^2 - 2), A - 2 = 2^64 + 13: the resultant
        # (A - 2)^2 has no certified prime
        (2 * (2**64 + 15), 0, -(2**64 + 17), 0, 1),
    ], ids=["repeated-factor", "uncertified-resultant"])
    def test_split_whatever_the_resultant(self, coeffs):
        parts = pure._fiber_parts(BinaryQuartic(coeffs))(5, 2)
        assert len(parts) == 2
        assert math.prod(parts) == evaluate_quartic(coeffs, 5, 2)


# primes near 2^40
Q1, Q2 = 1099511627791, 1099511627689


def _sympy_solvable(alpha, values):
    """y^2 - alpha z^2 = prod(values) is solvable over Q: the symbol is
    +1 at oo, 2, the primes of alpha and the primes that sympy finds in
    each value."""
    r = math.prod(values)
    places = {2, *sympy.factorint(alpha)}
    places.discard(-1)
    if all(hilbert_symbol(alpha, r, finite_place(p)) == 1 for p in places) \
            and hilbert_symbol(alpha, r, REAL) == 1:
        places = {p for v in values for p in sympy.factorint(v)} - {-1}
        return all(hilbert_symbol(alpha, r, finite_place(p)) == 1
                   for p in places)
    return False


class TestSearchPast64Bits:
    """P = (a1 x^2 + Q1)(a2 x^2 + Q2) takes values past 2^64 at height
    30, and no prime past 2^64 is certified; each factor value stays
    below 2^64, so the scan decides from the factors."""

    @staticmethod
    def _surface(a1, a2, alpha):
        return ChateletSurface(
            alpha=Fraction(alpha),
            Ptilde=BinaryQuartic((Q1 * Q2, 0, a1 * Q2 + a2 * Q1, 0, a1 * a2)),
            provenance="user")

    @staticmethod
    def _fibers(H):
        yield 1, 0
        for n in range(1, H + 1):
            for m in range(-H, H + 1):
                if math.gcd(m, n) == 1:
                    yield m, n

    @pytest.mark.parametrize("a1, a2, alpha", [(3, 7, 3), (7, 3, -1)])
    def test_no_solvable_fiber(self, a1, a2, alpha):
        S = self._surface(a1, a2, alpha)
        assert S.Ptilde(30) > 2**64
        assert not rational_point_search(S, 30).found
        for m, n in self._fibers(30):
            assert not _sympy_solvable(
                alpha, (a1 * m * m + Q1 * n * n, a2 * m * m + Q2 * n * n))

    def test_solvable_fiber_needs_resultant_primes(self):
        # Res(3 x^2 + Q1, 11 x^2 + Q2) = (3 Q2 - 11 Q1)^2 is divisible by
        # 31^2 and 141872468107^2; at 74 fibers of height <= 30 both
        # values are divisible by 31, and the decision finds it there
        a1, a2, alpha = 3, 11, 5
        quartic = self._surface(a1, a2, alpha).Ptilde
        # the point of that fiber needs a Legendre descent through
        # integers past 2^64, so the search itself still stops there
        hit, _ = pure.conic_scan(quartic, alpha, (5,), 30)
        assert hit == (-30, 1)
        shared = 0
        for m, n in self._fibers(30):
            parts = (a1 * m * m + Q1 * n * n, a2 * m * m + Q2 * n * n)
            if (m, n) in ((1, 0), hit):
                assert _sympy_solvable(alpha, parts) == ((m, n) == hit)
            if math.gcd(*parts) % 31 == 0:
                shared += 1
                assert (conic_decide(alpha, (5,), *parts) is not None) \
                    == _sympy_solvable(alpha, parts), (m, n)
        assert shared == 74

    def test_found_fiber_past_64_bits_gets_a_witness(self):
        # (11 x^2 + q1)(7 x^2 + q2), q1 and q2 primes near 2^40, alpha = 7:
        # the value at the scan's hit (-23 : 6) is past 2^64 and cannot
        # be decided whole, but its parts are certified, and the witness
        # starts from the square class that their decision returned
        q1, q2 = 807590545357, 1383868784777
        S = _user_surface((q1 * q2, 0, 11 * q2 + 7 * q1, 0, 77), 7)
        assert S.Ptilde.coeffs == (1117599346600586289630389, 0,
                                   20875690450046, 0, 77)
        res = rational_point_search(S, 30)
        assert res.found and res.x == (-23, 6)
        value = S.Ptilde.value(6, -23)
        y, z = res.witness
        assert y * y - 7 * z * z == value
        with pytest.raises(OutOfCertifiedRangeError):
            local_mod.conic_solvable_global(7, value)


def _decision_log(monkeypatch):
    """A list that records each `conic_decide` call, under both names
    that the package looks it up by, as "decide", and each return of the
    search's `conic_scan` as ("hit", its result)."""
    log = []
    real_decide, real_scan = local_mod.conic_decide, surface_mod.conic_scan

    def decide(*args):
        log.append("decide")
        return real_decide(*args)

    def scan(*args):
        hit = real_scan(*args)
        log.append(("hit", hit))
        return hit

    monkeypatch.setattr(local_mod, "conic_decide", decide)
    monkeypatch.setattr(pure, "conic_decide", decide)
    monkeypatch.setattr(surface_mod, "conic_scan", scan)
    return log


class TestOneDecisionPerFiber:
    """The search decides a found fiber once, in the scan: its witness
    comes from the square class that the scan's decision returned."""

    @pytest.mark.parametrize("alpha, coeffs, H", [
        (2, (6, 0, 0, 0, 1), 20),
        (3, (-6, -6, 7, 1, -1), 100),
        (697, (36055091729, 0, 0, 0, 1), 5),
        (7, (1117599346600586289630389, 0, 20875690450046, 0, 77), 30),
    ])
    def test_no_decision_after_the_hit(self, monkeypatch, alpha, coeffs, H):
        log = _decision_log(monkeypatch)
        S = _user_surface(coeffs, alpha)
        res = rational_point_search(S, H)
        assert res.found and res.note == ""
        assert log[-1][0] == "hit" and log[-1][1][0] == res.x
        assert set(log[:-1]) == {"decide"}


class TestIntegerModel:
    def test_computed_once_per_surface(self, monkeypatch):
        # local decisions at every bad place, the obstruction and the
        # search all read one cached integer model of P~
        from chatelet import quartic

        calls = []
        real = quartic.partial_factorize
        monkeypatch.setattr(quartic, "partial_factorize",
                            lambda n: calls.append(n) or real(n))
        T = build_surface(find_params(100))
        assert verify_local_everywhere(T).all_solvable
        obstruction_report(T)
        assert not rational_point_search(T, 20).found
        assert len(calls) == 1

    def test_real_roots_isolated_once_per_surface(self, monkeypatch):
        # the local decision at oo and the reciprocity bit there read one
        # cached `real_pieces`
        calls = []
        real = quartic_mod.sign_points
        for module in (quartic_mod, surface_mod):
            monkeypatch.setattr(module, "sign_points", lambda *a: (
                calls.append(a) or real(*a)))
        T = iskovskikh()
        assert T.local.all_solvable
        assert not rational_point_search(T, 1000).found
        assert len(calls) == 1

    def test_split_once_per_quartic(self, monkeypatch):
        # irreducibility and the scan read one cached split of P~
        calls = []
        real = quartic_mod.rational_factors

        def counting(ints):
            calls.append(ints)
            return real(ints)

        monkeypatch.setattr(quartic_mod, "rational_factors", counting)
        monkeypatch.setattr(pure, "rational_factors", counting,
                            raising=False)
        T = ChateletSurface(alpha=Fraction(697),
                            Ptilde=BinaryQuartic((5916, 0, 985, 0, 41)),
                            provenance="user")
        assert not quartic_mod.quartic_irreducible(T.Ptilde)
        assert not rational_point_search(T, 20).found
        assert len(calls) == 1


class TestSerialization:
    def test_roundtrip(self, S):
        obj = surface_to_json(S)
        assert obj["alpha"] == "697"
        assert obj["P"] == ["5916", "0", "985", "0", "41"]
        T = surface_from_json(json.dumps(obj))
        assert T.alpha == S.alpha
        assert T.Ptilde.coeffs == S.Ptilde.coeffs

    def test_fraction_coeffs(self):
        S = ChateletSurface(alpha=Fraction(-1, 2),
                            Ptilde=BinaryQuartic((Fraction(1, 3), 0, 0, 0, 1)),
                            provenance="user")
        obj = surface_to_json(S)
        assert obj["alpha"] == "-1/2"
        T = surface_from_json(obj)
        assert T.Ptilde.coeffs == S.Ptilde.coeffs
