"""Acceptance suite: one test (and one printed PASS/FAIL line) per
criterion, each with its stated tolerance and runtime budget.

The summary lines are collected by conftest and printed in a dedicated
section after the run, where pytest's capture cannot eat them.
"""

import random
import time
from fractions import Fraction

from conftest import record_acceptance

from chatelet.bundle import (
    bad_fibers,
    default_sample_ts,
    good_d_candidates,
    make_bundle,
    pullback,
    verify_pullback,
)
from chatelet.cli import EXIT_OK, main
from chatelet.local import (
    finite_place,
    hilbert_bruteforce_oracle,
    hilbert_symbol,
    product_formula_check,
    support_places,
)
from chatelet.numbers import squarefree_part
from chatelet.surface import (
    bad_places,
    build_surface,
    eval_invariant_all_reps,
    find_params,
    iskovskikh,
    obstruction_report,
    rational_point_search,
    sample_certified_points,
    verify_local_everywhere,
)


def _line(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    record_acceptance(
        f"criterion {num} {status}  {detail}  ({elapsed:.1f}s)")
    assert ok, f"criterion {num}: {detail} ({elapsed:.1f}s)"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    agree = total = 0
    for p in (2, 3, 5, 7, 11, 13, 17):
        v = finite_place(p)
        for a in range(-30, 31):
            if a == 0:
                continue
            for b in range(-30, 31):
                if b == 0:
                    continue
                total += 1
                if hilbert_symbol(a, b, v) == \
                        hilbert_bruteforce_oracle(a, b, p):
                    agree += 1
    elapsed = time.time() - t0
    ok = agree == total and elapsed < 60
    _line(1, ok, f"oracle equivalence {agree}/{total} on [-30,30]^2 x "
          "{2..17}", elapsed)


def test_criterion_2_product_formula():
    t0 = time.time()
    rng = random.Random(2024)
    violations = 0
    for _ in range(1000):
        a = Fraction(rng.randint(-10**6, 10**6) or 1,
                     rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6) or 1,
                     rng.randint(1, 10**6))
        if not product_formula_check(a, b):
            violations += 1
    elapsed = time.time() - t0
    _line(2, violations == 0 and elapsed < 20,
          f"product formula: {violations} violations in 1000 seeded pairs",
          elapsed)


def test_criterion_3_hilbert_lemma_instantiation():
    t0 = time.time()
    a, b, c = 41, 17, 12
    assert (a, b, c) == (find_params(100).a, find_params(100).b,
                         find_params(100).c)
    v17 = finite_place(b)
    checks = []
    for arg in (a, b):
        for v in support_places(-1, arg):
            checks.append(hilbert_symbol(-1, arg, v) == 1)
    checks.append(hilbert_symbol(a * b, a, v17) == -1)
    checks.append(hilbert_symbol(a * b, c, v17) == -1)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 1
    _line(3, ok, "(-1,41)_v = (-1,17)_v = +1 on support; "
          "(697,41)_17 = (697,12)_17 = -1", elapsed)


def test_criterion_4_local_points_everywhere():
    t0 = time.time()
    S = build_surface(find_params(100))
    rep = verify_local_everywhere(S)
    witnesses_ok = all(r.solvable and r.witness is not None
                       for r in rep.results)
    elapsed = time.time() - t0
    ok = rep.all_solvable and witnesses_ok and elapsed < 10
    _line(4, ok, f"local points at all {len(rep.results)} bad places "
          "with certified x, good places by norm argument", elapsed)


def test_criterion_5_invariant_constancy():
    t0 = time.time()
    S = build_surface(find_params(100))
    rep = obstruction_report(S)
    deviations = 0
    for r in rep.records:
        expected = (Fraction(1, 2) if r.place.p == 17 else Fraction(0))
        deviations += r.invariant != expected
        pts = sample_certified_points(S, r.place, 200, seed=17)
        for pt in pts:
            # every representation of the class must give the report's
            # invariant at that place
            deviations += sum(inv != r.invariant for inv in
                              eval_invariant_all_reps(S, pt))
    places_ok = [r.place for r in rep.records] == bad_places(S)[0]
    elapsed = time.time() - t0
    ok = (deviations == 0 and places_ok
          and rep.invariant_sum == Fraction(1, 2)
          and rep.conclusion == "no-rational-point-certified"
          and elapsed < 10)
    _line(5, ok, "proved invariant 1/2 at p=17, 0 elsewhere, equal to the "
          "sampled one at each place over 200 certified points/place; "
          "sum 1/2; no rational point certified", elapsed)


def test_criterion_6_desk_scale_emptiness():
    t0 = time.time()
    S = build_surface(find_params(100))
    I = iskovskikh()
    res_s = rational_point_search(S, 500)
    res_i = rational_point_search(I, 500)
    local_i = verify_local_everywhere(I)
    elapsed = time.time() - t0
    ok = (not res_s.found and not res_i.found and local_i.all_solvable
          and elapsed < 10)
    _line(6, ok, "no solvable fiber up to H=500 on the constructed and "
          "Iskovskikh surfaces; Iskovskikh everywhere locally solvable",
          elapsed)


def test_criterion_7_bundle_verification():
    t0 = time.time()
    S = build_surface(find_params(100))
    B = make_bundle(S)
    F = bad_fibers(B)
    W = pullback(B, good_d_candidates(F, 1)[0])
    ts = default_sample_ts(52)  # infinity, 0, and 50 further affine t
    rep = verify_pullback(W, ts, search_H=100)
    special_is_V = (W.base.source.Ptilde.coeffs == S.Ptilde.coeffs
                    and W.base.source is S)
    affine = rep.fibers
    fibers_ok = (len(affine) >= 50
                 and all(r.smooth and r.irreducible
                         and r.locally_solvable for r in affine))
    found = sum(bool(r.point_found) for r in affine)
    elapsed = time.time() - t0
    ok = (special_is_V and fibers_ok
          and rep.special.invariant_sum == Fraction(1, 2)
          and elapsed < 60)
    _line(7, ok, f"fiber at oo is V; {len(affine)} affine fibers smooth/"
          f"irreducible/locally solvable; special sum 1/2; diagnostic "
          f"points found at H=100: {found}/{len(affine)}", elapsed)


def test_criterion_8_effectivity():
    t0 = time.time()
    S = build_surface(find_params(100))
    F = bad_fibers(make_bundle(S))
    d = good_d_candidates(F, 1)[0]
    disjoint = all(
        squarefree_part(Fraction(d)) != squarefree_part(f.affine())
        for f in F.fibers if not f.is_infinity and f.u != 0)
    elapsed = time.time() - t0
    ok = squarefree_part(d) == d and disjoint and elapsed < 10
    _line(8, ok, f"selected d={d} squarefree and square-class-disjoint "
          f"from all {len(F.fibers)} bad fibers", elapsed)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for name in ("a", "b"):
        p = tmp_path / f"ce_{name}.json"
        assert main(["counterexample", "--seed", "11", "--height", "60",
                     "--out", str(p)]) == EXIT_OK
        outs.append(p.read_bytes())
    ce_ok = outs[0] == outs[1]
    outs = []
    for name in ("a", "b"):
        p = tmp_path / f"bu_{name}.json"
        assert main(["bundle", "--seed", "11", "--fibers", "8",
                     "--height", "60", "--out", str(p)]) == EXIT_OK
        outs.append(p.read_bytes())
    bu_ok = outs[0] == outs[1]
    elapsed = time.time() - t0
    _line(9, ce_ok and bu_ok and elapsed < 30, "counterexample and bundle "
          "reports byte-identical across reruns with equal seeds", elapsed)
