"""Construction, local solvability, obstruction and global search."""

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
    is_local_square,
)
from chatelet.numbers import split_valuation, square_class
from chatelet.quartic import (
    BinaryQuartic,
    disc_from_coeffs,
    evaluate_form,
    evaluate_quartic,
    negative_segments,
    residue_discs,
    sign_points,
)
from chatelet.surface import (
    CertifiedLocalX,
    ChateletParams,
    ChateletSurface,
    InvariantNotConstantError,
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
        # six fixed points decide: neither sweep may run
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr("chatelet.surface._residue_sweep", no_sweep)
        monkeypatch.setattr("chatelet.surface._real_sweep", no_sweep)
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
        with pytest.raises(ArithmeticError,
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


class TestResidueDiscs:
    """`residue_discs`, the one p-adic walk: it tiles P^1(Z_p), and the
    local decider and the scan's disc sieve both read it."""

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
        # the seeded cases of TestLocalSolvability, and the two surfaces
        # at their bad places, give the certificate of the recursion
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
        unsolvable = 0
        for S, v in cases:
            want = _reference_sweep(S, v)
            assert surface_mod._residue_sweep(S, v) == want, (S, v)
            unsolvable += want is None
        assert len(cases) > 100 and unsolvable


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
        for i, coeffs in enumerate(forms):
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
            assert (surface_mod._real_sweep(S) is not None) == expected, \
                coeffs
            solvable += expected
            sturm = [[Fraction(int(c.p), int(c.q))
                      for c in reversed(q.all_coeffs())]
                     for q in poly.sturm()]
            eps = Fraction(1, 10**6) if i % 2 else None
            for left, right in negative_segments(coeffs, eps):
                assert _roots_inside(sturm, left, right) == 0, coeffs
                if left is None:
                    inside = Fraction(0) if right is None else right - 1
                else:
                    inside = left + 1 if right is None else \
                        (left + right) / 2
                assert evaluate_quartic(coeffs, inside, 1) < 0, coeffs
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
        # the split's forms f = x^2 + c and k g = a x^2 + ac + 1 have a
        # nonzero resultant: k g - a f = n^2
        k, (f, g) = S.Ptilde.factors
        for m, n in ((1, 0), (0, 1), (3, 2), (-7, 5)):
            f1, f2 = evaluate_form(f, m, n), k * evaluate_form(g, m, n)
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
            assert S.Ptilde.factors == (1, [(c, 0, 1), (a * c + 1, 0, a)])
            rep = obstruction_report(S)
            assert rep.invariant_sum == Fraction(1, 2)
            assert {str(r.place): r.invariant for r in rep.records
                    if r.invariant} == {str(b): Fraction(1, 2)}, params

    def test_wrong_split_is_caught(self):
        # f = x^2 + 13 in place of x^2 + 12: its class disagrees with
        # that of k g at some sampled point
        T = build_surface(find_params(100))
        k, (_, g) = T.Ptilde.factors
        T.Ptilde.__dict__["factors"] = (k, [(13, 0, 1), g])
        with pytest.raises(InvariantNotConstantError):
            obstruction_report(T)

    def test_needs_two_quadratics(self):
        # x^4 + w^4 is irreducible over Q
        T = ChateletSurface(alpha=Fraction(697),
                            Ptilde=BinaryQuartic((1, 0, 0, 0, 1)),
                            provenance="user")
        with pytest.raises(ValueError):
            eval_invariant_all_reps(T, CertifiedLocalX((0, 1), REAL, 1))


class TestObstruction:
    def test_report(self, S):
        rep = obstruction_report(S, samples_per_place=15, seed=3)
        assert rep.invariant_sum == Fraction(1, 2)
        assert rep.conclusion == "no-rational-point-certified"
        by_place = {str(r.place): r.invariant for r in rep.records}
        assert by_place["17"] == Fraction(1, 2)
        assert all(inv == 0 for place, inv in by_place.items()
                   if place != "17")

    def test_determinism(self, S):
        a = obstruction_report(S, samples_per_place=10, seed=4)
        b = obstruction_report(S, samples_per_place=10, seed=4)
        assert a == b

    def test_nonconstant_is_hard_failure(self, S, monkeypatch):
        from chatelet import surface as mod

        def bad_reps(A, pt):
            return [Fraction(0), Fraction(1, 2)]

        monkeypatch.setattr(mod, "eval_invariant_all_reps", bad_reps)
        with pytest.raises(InvariantNotConstantError):
            obstruction_report(S, samples_per_place=5, seed=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, S, samples):
        # no sample at a place would read as a nonconstant invariant
        with pytest.raises(ValueError):
            obstruction_report(S, samples_per_place=samples)


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
    """The scan with neither sieve nor symmetry: every x of height <= H
    in the scan's order, each evaluated and decided."""
    for n in range(H + 1):
        for m in (range(-H, H + 1) if n else (1,)):
            if math.gcd(m, n) == 1:
                r = sum(c * m**i * n**(4 - i) for i, c in enumerate(coeffs))
                if r == 0 or conic_decide(alpha, alpha_odd_primes, r):
                    return m, n
    return None


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


def _sieve_skips(coeffs, alpha, odd, H):
    """(m, n, p) for each coprime pair of height <= H that the disc sieve
    of `conic_scan` at p skips, read from the whole row m = -H..H."""
    quartic = BinaryQuartic(coeffs)
    for sieve in pure._disc_sieves(quartic.integer_square_scaled, alpha,
                                   odd, H):
        for n in range(H + 1):
            row = [m for m in (range(-H, H + 1) if n else (1,))
                   if math.gcd(m, n) == 1]
            kept = set(pure._survivors(sieve, n, row))
            yield from ((m, n, sieve[0]) for m in row if m not in kept)


def _unproven_skip(coeffs, alpha, odd, m, n, p):
    """Is the skip of (m : n) at p wrong: a zero value, a symbol at p
    other than -1, or a fiber that the unsieved `conic_decide` accepts?"""
    r = evaluate_quartic(coeffs, m, n)
    return (r == 0 or hilbert_symbol(alpha, r, finite_place(p)) != -1
            or conic_decide(alpha, odd, r))


def _newton_as_class(real):
    """A broken disc walk that takes Newton discs for discs of constant
    class."""
    return lambda *args, **kw: (
        (centre, k, "class" if kind == "newton" else kind)
        for centre, k, kind in real(*args, **kw))


class TestScanParity:
    """`conic_scan` skips fibers by the real sieve, the disc sieve and
    the x -> -x symmetry, and decides a split quartic from its factor
    values; its first hit must be the one of the plain double loop."""

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

    def test_first_hit_matches_reference(self, monkeypatch):
        decided = []
        real_decide = pure.conic_decide
        monkeypatch.setattr(pure, "conic_decide",
                            lambda *a, **k: decided.append(a)
                            or real_decide(*a, **k))
        seen = {"none": 0, "boundary-zero": 0, "skipped-whole": 0}
        for kind, coeffs, alpha, odd, H in self._random_cases():
            decided.clear()
            hit = pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
            want = _reference_scan(coeffs, alpha, odd, H)
            assert hit == want, (coeffs, alpha, H)
            if want is None:
                seen["none"] += 1
            elif alpha < 0 and kind == "rational-root" and \
                    sum(c * want[0]**k * want[1]**(4 - k)
                        for k, c in enumerate(coeffs)) == 0:
                seen["boundary-zero"] += 1
            if kind == "negative-definite" and alpha < 0:
                # only x = infinity is decided
                assert len(decided) <= 1
                seen["skipped-whole"] += 1
        assert min(seen.values()) >= 20, seen

    def _all_cases(self):
        return [case[1:] for case in self._random_cases()] + \
            self._shared_cases()

    def test_disc_sieve_skips_only_rejected_fibers(self):
        # every fiber a disc table skips has symbol -1 at its prime, so
        # the unsieved decision rejects it; the first hits are checked
        # against the plain loop above and below
        seen = {"no 2-table": 0, "2 | alpha": 0, "at infinity": 0}
        for coeffs, alpha, odd, H in self._all_cases():
            skips = list(_sieve_skips(coeffs, alpha, odd, H))
            for m, n, p in skips:
                assert not _unproven_skip(coeffs, alpha, odd, m, n, p), (
                    coeffs, alpha, (m, n), p)
            if alpha % 8 == 1 and H:
                assert all(p != 2 for _, _, p in skips)
                seen["no 2-table"] += 1
            seen["2 | alpha"] += alpha % 2 == 0 and \
                any(p == 2 for _, _, p in skips)
            seen["at infinity"] += any(n % p == 0 for _, n, p in skips)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("module, name, broken", [
        # the constancy rule loosened by one: v <= k at odd p ...
        (quartic_mod, "_unit_square_depth",
         lambda real: lambda p: 3 if p == 2 else 0),
        # ... and v <= k - 2 at 2
        (quartic_mod, "_unit_square_depth",
         lambda real: lambda p: 2 if p == 2 else 1),
        (pure, "residue_discs", _newton_as_class),
    ], ids=["odd-p-by-one", "two-by-one", "newton-decided"])
    def test_broken_discs_are_caught(self, monkeypatch, module, name,
                                     broken):
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        assert any(_unproven_skip(coeffs, alpha, odd, m, n, p)
                   for coeffs, alpha, odd, H in self._all_cases()
                   for m, n, p in _sieve_skips(coeffs, alpha, odd, H))

    def test_closing_an_open_walk_is_caught(self, monkeypatch):
        # a walk is closed only when each of its discs is a class disc of
        # symbol -1; with every walk that has a table taken as closed, a
        # scan whose solvable fiber lies in a root, Newton, open or +1
        # disc there returns None
        real = pure._disc_sieves
        monkeypatch.setattr(pure, "_disc_sieves", lambda *a: [
            sieve[:3] + (True,) + sieve[4:] for sieve in real(*a)])
        assert any(pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
                   != _reference_scan(coeffs, alpha, odd, H)
                   for coeffs, alpha, odd, H in self._all_cases())

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
            hit = pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
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
        assert any(pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
                   != want for (coeffs, alpha, odd, H), want in cases)


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
        forms = BinaryQuartic(coeffs).factors[1]
        if len(forms) == 2 and len(forms[0]) == 3:
            alpha, primes = square_class(alpha)
            return coeffs, alpha, tuple(p for p in primes if p != 2), H


def _rule_holds(coeffs, alpha, odd, H):
    """Does the reciprocity rule of `conic_scan` hold?"""
    pieces = (sign_points(coeffs, Fraction(1, (H + 1) ** 2))
              if alpha < 0 else [])
    return pure._reciprocity(BinaryQuartic(coeffs), alpha, odd, H,
                             pieces)[1]


def _places_of_t(coeffs, alpha):
    """The finite places of T, found by sympy: 2 and the primes of alpha
    and of Res(k f_1, f_2)."""
    k, (f, g) = BinaryQuartic(coeffs).factors
    res = sympy.resultant(sympy.Poly(list(reversed([k * c for c in f])), _X),
                          sympy.Poly(list(reversed(g)), _X))
    return ({2} | set(sympy.factorint(alpha)) | set(sympy.factorint(res))) \
        - {-1}


class TestReciprocity:
    """The reciprocity rule of `conic_scan`: when P~ = k f_1 f_2 and the
    symbols (alpha, k f_1)_v are constant on the fibers the sieves let
    through, at each place v of T, with product -1, no fiber is
    solvable, and the scan returns None without deciding one."""

    PARAMS = _admissible_params(200)

    def test_admissible_surfaces_need_no_decision(self, monkeypatch):
        decided = []
        real_decide = pure.conic_decide
        monkeypatch.setattr(pure, "conic_decide",
                            lambda *a, **k: decided.append(a)
                            or real_decide(*a, **k))
        assert len(self.PARAMS) == 34
        for params in self.PARAMS:
            S = build_surface(params)
            alpha, odd = params.a * params.b, (params.a, params.b)
            coeffs = S.Ptilde.integer_square_scaled
            # at height 200 a row, 401 pairs, is discs enough for the
            # walk at each prime of alpha
            assert pure.conic_scan(S.Ptilde, alpha, odd, 200) is None
            assert decided == [], params
            assert pure.conic_scan(S.Ptilde, alpha, odd, 12) is None
            assert _reference_scan(coeffs, alpha, odd, 12) is None
            decided.clear()

    def test_skipped_fibers_have_a_rejecting_place(self):
        # every fiber whose symbol is +1 at oo and at each place of T has
        # a prime q outside T, found by sympy, where the symbol is -1
        cases = [(iskovskikh().Ptilde.integer_square_scaled, -1, (), 30),
                 (build_surface(find_params(100)).Ptilde
                  .integer_square_scaled, 697, (17, 41), 24)]
        rng = random.Random(20261020)
        while len(cases) < 8:
            case = _reciprocity_case(rng, "iskovskikh")
            if _rule_holds(*case):
                cases.append(case)
        witnessed = []
        for coeffs, alpha, odd, H in cases:
            assert _rule_holds(coeffs, alpha, odd, H), coeffs
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
            hit = pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H)
            assert hit == _reference_scan(coeffs, alpha, odd, H), (
                coeffs, alpha, H)
            holds = _rule_holds(coeffs, alpha, odd, H)
            seen["holds"] += holds
            seen["holds, oo bit -1"] += holds and kind == "real-sign"
            seen["odd prime of Res outside 2 alpha"] += any(
                q % 2 and alpha % q for q in _places_of_t(coeffs, alpha))
        assert seen["holds"] >= 15 and seen["holds, oo bit -1"] >= 3 \
            and seen["odd prime of Res outside 2 alpha"] >= 100, seen

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
            real = pure._depth
            monkeypatch.setattr(pure, "_depth", lambda p, bound: min(
                real(p, bound), depth))
        odd = tuple(p for p in square_class(alpha)[1] if p != 2)
        assert _reference_scan(coeffs, alpha, odd, H) == hit
        assert pure.conic_scan(BinaryQuartic(coeffs), alpha, odd, H) == hit


class TestClosedWalk:
    """A walk whose discs are all class discs of symbol -1 tiles P^1(Z_p)
    with fibers that have no Q_p-point, so the scan returns None without
    a row."""

    # each P~ is irreducible and has no Q_3-point on any fiber
    CASES = [(21, (21, 0, 2, 30, -15)), (6, (23, -2, 28, -7, -28)),
             (-3, (14, 24, -14, 3, -7))]

    @pytest.mark.parametrize("alpha, coeffs", CASES)
    def test_no_row_is_built(self, monkeypatch, alpha, coeffs):
        calls = []
        for name in ("conic_decide", "_unsieved"):
            real = getattr(pure, name)
            monkeypatch.setattr(pure, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        odd = tuple(p for p in square_class(alpha)[1] if p != 2)
        quartic = BinaryQuartic(coeffs)
        assert [sieve[0] for sieve in pure._disc_sieves(
            quartic.integer_square_scaled, alpha, odd, 300)
            if sieve[3]] == [3]
        assert pure.conic_scan(quartic, alpha, odd, 300) is None
        assert calls == []

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


class TestDiscWalkBudget:
    """A walk behind the scan's disc tables costs no more than a row of
    the scan: 2H + 1 discs."""

    def test_prime_past_a_row_gets_no_walk(self, monkeypatch):
        # the walk at 1000003 would cost 500 rows of this scan, whose hit
        # is in its first row; only 2 is walked
        walked = []
        real = pure.residue_discs
        monkeypatch.setattr(pure, "residue_discs", lambda f, p, depth, **k: (
            walked.append(p) or real(f, p, depth, **k)))
        hit = pure.conic_scan(BinaryQuartic((7, 1, 0, 2, 3)), 1000003,
                              (1000003,), 1000)
        assert hit == (-990, 1)
        assert walked == [2]

    def test_walk_past_a_row_is_dropped(self):
        # 41 divides every value, so every disc at 41 splits once: 1722
        # discs, more than a row at height 30 and fewer than at 1000; 2
        # has no table, since 41 = 1 mod 8 is a square in Q_2
        coeffs = tuple(41 * c for c in (1, 1, 0, 0, 1))
        assert len(list(residue_discs(coeffs, 41, 2))) == 1722
        assert pure._disc_sieves(coeffs, 41, (41,), 30) == []
        assert [sieve[0] for sieve in pure._disc_sieves(
            coeffs, 41, (41,), 1000)] == [41]


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
        hit = pure.conic_scan(quartic, alpha, (5,), 30)
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

    def test_large_checked_primes_get_no_table(self, monkeypatch):
        # height 30 visits 1 + 30 * 61 = 1831 pairs, so the walk at 2 goes
        # to depth 10 and at 5 to 4; the primes that the parts share get
        # no walk and no table; the hit is the one found above
        quartic = self._surface(3, 11, 5).Ptilde
        coeffs = quartic.integer_square_scaled
        walked = []
        real = pure.residue_discs
        monkeypatch.setattr(pure, "residue_discs", lambda f, p, depth, **k: (
            walked.append((p, depth)) or real(f, p, depth, **k)))
        assert pure.conic_scan(quartic, 5, (5,), 30) == (-30, 1)
        assert walked == [(2, 10), (5, 4)]
        assert [sieve[0] for sieve in
                pure._disc_sieves(coeffs, 5, (5,), 30)] == [2, 5]


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
        obstruction_report(T, samples_per_place=5, seed=1)
        assert not rational_point_search(T, 20).found
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
