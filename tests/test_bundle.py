"""The surface bundle, bad fibers, pullback and fiber verification."""

import random
from fractions import Fraction

import pytest
import sympy

from chatelet import bundle as bundle_mod
from chatelet import local as local_mod
from chatelet import surface as surface_mod
from chatelet._kernel import pure
from chatelet.bundle import (
    BadFiberSet,
    FiberParam,
    bad_fibers,
    bundle_to_json,
    default_sample_ts,
    fiber_at,
    good_d_candidates,
    make_bundle,
    pullback,
    pullback_fiber,
    pullback_fiber_param,
    verify_pullback,
)
from chatelet.cli import EXIT_OK, main
from chatelet.numbers import squarefree_part
from chatelet.quartic import BinaryQuartic
from chatelet.surface import (
    INFINITY,
    ChateletSurface,
    SearchResult,
    build_surface,
    find_params,
    iskovskikh,
)


@pytest.fixture(scope="module")
def S():
    return build_surface(find_params(100))


@pytest.fixture(scope="module")
def B(S):
    return make_bundle(S)


@pytest.fixture(scope="module")
def F(B):
    return bad_fibers(B)


class TestFiberParam:
    def test_canonicalization(self):
        assert FiberParam.canonical(4, 6) == FiberParam(2, 3)
        assert FiberParam.canonical(-2, -4) == FiberParam(1, 2)
        assert FiberParam.canonical(0, -3) == FiberParam(0, 1)
        assert FiberParam.canonical(Fraction(1, 2), Fraction(1, 3)) == \
            FiberParam(3, 2)

    def test_canonical_rejects_origin(self):
        for u, v in ((0, 0), (Fraction(0), Fraction(0, 5))):
            with pytest.raises(ValueError, match="not a point of P"):
                FiberParam.canonical(u, v)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberParam(0, 0)
        with pytest.raises(ValueError):
            FiberParam(2, 4)
        with pytest.raises(ValueError):
            FiberParam(-1, 2)

    def test_affine(self):
        assert FiberParam(3, 2).affine() == Fraction(3, 2)
        with pytest.raises(ValueError):
            FiberParam(1, 0).affine()


class TestMakeBundle:
    def test_default(self, S, B):
        assert B.Pinf.coeffs == (1, 0, 0, 0, 1)
        assert B.P0 == S.Ptilde
        assert B.alpha == S.alpha

    def test_rejects_reducible(self, S):
        with pytest.raises(ValueError, match="irreducible"):
            make_bundle(S, BinaryQuartic((-1, 0, 0, 0, 1)))

    def test_rejects_proportional(self, S):
        with pytest.raises(ValueError, match="independent"):
            make_bundle(S, BinaryQuartic(
                tuple(c / 41 for c in S.Ptilde.coeffs)))

    def test_rejects_non_constructed(self):
        with pytest.raises(ValueError):
            make_bundle(iskovskikh())


class TestFiberAt:
    def test_special_fiber_exact(self, S, B):
        assert fiber_at(B, FiberParam(0, 1)) is S

    def test_infinity_fiber(self, B):
        T = fiber_at(B, FiberParam(1, 0))
        assert T.Ptilde.coeffs == B.Pinf.coeffs

    def test_one_one(self, S, B):
        T = fiber_at(B, FiberParam(1, 1))
        assert T.Ptilde.coeffs == tuple(
            a + b for a, b in zip(B.Pinf.coeffs, S.Ptilde.coeffs))

    def test_square_scaling_consistency(self, B):
        # (2 : 3) vs the non-canonical (4 : 6): quartics differ by 4
        T = fiber_at(B, FiberParam(2, 3))
        u2, v2 = 16, 36
        scaled = tuple(u2 * ci + v2 * c0
                       for ci, c0 in zip(B.Pinf.coeffs, B.P0.coeffs))
        assert tuple(4 * c for c in T.Ptilde.coeffs) == scaled


def _seeded_pencils(count: int, seed: int = 10):
    """Bundles with Pinf irreducible and, in four cases out of six, P0 =
    Q - s0 Pinf with Q having a double root, so that the fiber at
    s = s0 is singular: s0 a nonzero square, a positive non-square,
    minus a square or a negative non-square, and 0 (disc(P0) = 0)."""
    rng = random.Random(seed)
    x = sympy.Symbol("x")

    def coeff():
        c = Fraction(rng.randint(-6, 6))
        return c / rng.choice((1, 1, 2, 3)) if rng.random() < 0.3 else c

    for i in range(count):
        while True:
            Pinf = [coeff() for _ in range(4)] + [Fraction(rng.randint(1, 3))]
            if sympy.Poly(list(reversed(Pinf)), x).is_irreducible:
                break
        r = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 5)))
        s0 = {0: r * r, 1: r * r * rng.choice((2, 3, 5, 7)),
              2: -r * r * rng.choice((1, 2)), 3: Fraction(0)}.get(i % 6)
        if s0 is None:
            P0 = [coeff() for _ in range(5)]
        else:
            # Q = (x - e)^2 (a x^2 + b x + c)
            e, q = coeff(), [coeff(), coeff(), coeff() or Fraction(1)]
            Q = [sum(m * q[k - j] for j, m in enumerate((e * e, -2 * e, 1))
                     if 0 <= k - j <= 2) for k in range(5)]
            P0 = [qc - s0 * pc for qc, pc in zip(Q, Pinf)]
        if all(c == 0 for c in P0):
            continue
        source = ChateletSurface(alpha=rng.choice((-3, 2, 5, 697)),
                                 Ptilde=BinaryQuartic(tuple(P0)),
                                 provenance="user")
        yield bundle_mod.SurfaceBundle(source=source,
                                       Pinf=BinaryQuartic(tuple(Pinf)))


def _reference_bad_us(B) -> set[Fraction]:
    """The rational u with disc_x(u^2 Pinf(x) + P0(x)) = 0: the
    two-variable pencil at v = 1, as perfbench/check.py treats it, with
    the rational roots read off the linear factors (faster than
    sympy.roots on a degree-12 polynomial)."""
    u, x = sympy.symbols("u x")
    pencil = sympy.Poly(
        [u**2 * sympy.Rational(pi.numerator, pi.denominator)
         + sympy.Rational(p0.numerator, p0.denominator)
         for pi, p0 in zip(reversed(B.Pinf.coeffs), reversed(B.P0.coeffs))],
        x)
    R = sympy.Poly(pencil.discriminant(), u)
    return {Fraction(str(-f.TC() / f.LC()))
            for f, _ in R.factor_list()[1] if f.degree() == 1}


class TestBadFibers:
    def test_roots_exact(self, B, F):
        for f in F.fibers:
            assert fiber_at(B, f).disc == 0
        assert FiberParam(0, 1) not in F.fibers
        assert FiberParam(1, 0) not in F.fibers

    def test_nonroots_nonzero(self, B, F):
        rng = random.Random(21)
        checked = 0
        while checked < 20:
            u, v = rng.randint(-50, 50), rng.randint(-50, 50)
            if u == 0 and v == 0:
                continue
            fp = FiberParam.canonical(u, v)
            if fp in F.fibers:
                continue
            assert fiber_at(B, fp).disc != 0
            checked += 1

    def test_golden_default(self, F):
        # the default bundle's discriminant pencil has no rational roots
        assert F.fibers == ()

    def test_seeded_pencils_match_reference(self):
        n_bad = 0
        for B in _seeded_pencils(120):
            got = bad_fibers(B).fibers
            assert all(fiber_at(B, f).disc == 0 for f in got)
            assert all(not f.is_infinity for f in got)
            assert {f.affine() for f in got} == _reference_bad_us(B), B
            n_bad += bool(got)
        # every nonzero-square and every zero s0 gives a rational fiber
        assert n_bad >= 40


class TestGoodD:
    def test_default_list(self, F):
        assert good_d_candidates(F, 6) == [1, 2, 3, 5, 6, 7]

    def test_excludes_square_classes(self):
        F = BadFiberSet(fibers=(FiberParam(2, 1), FiberParam(8, 1)))
        assert good_d_candidates(F, 5) == [1, 3, 5, 6, 7]

    def test_all_squarefree(self, F):
        for d in good_d_candidates(F, 20):
            assert squarefree_part(d) == d


class TestPullback:
    def test_selected_d_disjoint_from_F(self, B, F):
        d = good_d_candidates(F, 1)[0]
        W = pullback(B, d)
        assert squarefree_part(W.d) == W.d
        assert Fraction(W.d) not in F.affine_classes()

    def test_rejects_bad_d(self, B):
        with pytest.raises(ValueError):
            pullback(B, 4)  # not squarefree
        with pytest.raises(ValueError):
            pullback(B, -3)

    def test_fiber_map(self, S, B):
        W = pullback(B, 2)
        assert pullback_fiber(W, (1, 0)) is S  # t = infinity -> V
        assert pullback_fiber_param(W, (0, 1)) == FiberParam(1, 0)
        assert pullback_fiber_param(W, (3, 1)) == FiberParam(2, 9)
        assert pullback_fiber_param(W, (3, 2)) == FiberParam(8, 9)

    def test_affine_fibers_in_d_class(self, B):
        W = pullback(B, 3)
        for t in [(1, 1), (-2, 1), (5, 3), (7, 2)]:
            fp = pullback_fiber_param(W, t)
            assert squarefree_part(fp.affine()) == 3


@pytest.fixture(scope="module")
def report(B, F):
    W = pullback(B, good_d_candidates(F, 1)[0])
    return verify_pullback(W, default_sample_ts(10), search_H=60)


class TestVerifyPullback:
    def test_special_fiber(self, report):
        assert report.special.invariant_sum == Fraction(1, 2)
        assert report.special.conclusion == "no-rational-point-certified"
        assert not report.special_search.found

    def test_affine_fibers(self, report):
        assert len(report.fibers) == 9
        assert report.all_affine_ok
        for r in report.fibers:
            assert r.smooth
            assert r.irreducible
            assert r.locally_solvable

    def test_t_and_minus_t_records_agree(self, report):
        assert [r.t for r in report.fibers] == default_sample_ts(10)[1:]
        by_t = {r.t: r for r in report.fibers}
        for (t0, t1), rec in by_t.items():
            if t0 > 0:
                assert by_t[(-t0, t1)]._replace(t=(t0, t1)) == rec

    def test_each_distinct_fiber_verified_once(self, B, F, monkeypatch):
        # t and -t pull back to one fiber: t = 0, +-1, +-2 are 3 fibers
        calls = []
        real = surface_mod.verify_local_everywhere
        monkeypatch.setattr(surface_mod, "verify_local_everywhere",
                            lambda S: calls.append(S) or real(S))
        W = pullback(B, good_d_candidates(F, 1)[0])
        rep = verify_pullback(W, default_sample_ts(6), search_H=5)
        assert len(rep.fibers) == 5
        assert sum(S.provenance == "fiber" for S in calls) == 3

    def test_found_fibers_decided_once(self, monkeypatch, tmp_path):
        # `chatelet bundle --fibers 4` makes 18 conic decisions, under
        # both names that the package looks `conic_decide` up by: the
        # three fibers with a point found are decided in the scan alone,
        # not again, whole, for their witness
        calls = []
        real = local_mod.conic_decide
        for module in (local_mod, pure):
            monkeypatch.setattr(module, "conic_decide",
                                lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "report.json"
        assert main(["bundle", "--fibers", "4", "--out", str(out)]) \
            == EXIT_OK
        assert len(calls) == 18

    def test_sample_must_include_ends(self, B, F):
        W = pullback(B, good_d_candidates(F, 1)[0])
        with pytest.raises(ValueError):
            verify_pullback(W, [(1, 1), (2, 1)])

    def test_default_sample_ts(self):
        ts = default_sample_ts(6)
        assert ts == [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1)]


class TestFiberNotes:
    NOTE = "solvable fiber found, witness beyond bound"

    def _record(self, B, F, monkeypatch, irreducible):
        noted = SearchResult(height=5, found=True, x=(1, 1), note=self.NOTE)
        monkeypatch.setattr(bundle_mod, "rational_point_search",
                            lambda S, H: noted)
        monkeypatch.setattr(bundle_mod, "quartic_irreducible",
                            lambda q: irreducible)
        W = pullback(B, good_d_candidates(F, 1)[0])
        (record,) = verify_pullback(W, [INFINITY, (0, 1)],
                                    search_H=5).fibers
        return record

    def test_search_note_kept(self, B, F, monkeypatch):
        record = self._record(B, F, monkeypatch, irreducible=True)
        assert record.point_found
        assert record.note == self.NOTE

    def test_joined_with_thin_set_note(self, B, F, monkeypatch):
        record = self._record(B, F, monkeypatch, irreducible=False)
        assert record.note == ("thin-set hit: reducible fiber quartic; "
                               + self.NOTE)


class TestSerialization:
    def test_roundtrip(self, B):
        obj = bundle_to_json(B)
        assert obj["Pinf"] == ["1", "0", "0", "0", "1"]
        assert "d" not in obj

    def test_pulled_back(self, B):
        obj = bundle_to_json(pullback(B, 2))
        assert obj["d"] == "2"
