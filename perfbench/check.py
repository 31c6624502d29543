"""Checks of ``chatelet`` CLI reports against arithmetic done apart from
the package: sympy's ``isprime``, ``factorint``, ``legendre_symbol``,
``discriminant``, ``factor_list`` and ``diop_ternary_quadratic``, and a
Hilbert symbol written here from its textbook closed form on top of them.
No check compares against a stored copy of a report.

Each ``check_*`` function takes the parsed report and the run's seed and
returns ``(failures, record_failures)``: messages for the invocation as a
whole, and one list of messages per fiber record (empty for the scans).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from sympy import discriminant, factor_list, factorint, isprime
from sympy import legendre_symbol
from sympy.ntheory import multiplicity
from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

_X = sympy.Symbol("x")
# y, z, w of the conic; sympy returns solutions in sorted-name order
_Y, _Z, _W = sympy.symbols("s0 s1 s2", integer=True)

#: scanned fibers per report whose conic is shown unsolvable at some place
SCAN_SAMPLE = 48
#: height up to which a local certificate is searched for a pointless fiber
LOCAL_SEARCH_HEIGHT = 30


class _Failures(list):
    def need(self, cond, message: str) -> bool:
        if not cond:
            self.append(message)
        return bool(cond)


# ---------------------------------------------------------------------------
# arithmetic


def _int_class(q) -> int:
    """An integer in the square class of the nonzero rational q."""
    q = Fraction(q)
    return q.numerator * q.denominator


def _primes(n: int) -> set[int]:
    return set(factorint(abs(n))) if n else set()


def hilbert(a, b, p) -> int:
    """(a, b)_p for nonzero rationals; p is a prime or None (real)."""
    a, b = _int_class(a), _int_class(b)
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    al, be = multiplicity(p, a), multiplicity(p, b)
    u, v = a // p**al, b // p**be
    if p == 2:
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        e = eps + al * (v * v - 1) // 8 + be * (u * u - 1) // 8
        return -1 if e % 2 else 1
    sign = -1 if (al * be * (p - 1) // 2) % 2 else 1
    return (sign * legendre_symbol(u % p, p) ** (be % 2)
            * legendre_symbol(v % p, p) ** (al % 2))


def _support(alpha, r) -> list:
    return [None] + sorted({2} | _primes(_int_class(alpha))
                           | _primes(_int_class(r)))


def _place(text: str):
    return None if text == "oo" else int(text)


def _form_value(coeffs, m: int, n: int) -> Fraction:
    """sum c_i m^i n^(4-i): the quartic at x = (m : n)."""
    return sum((Fraction(c) * m**i * n ** (4 - i)
                for i, c in enumerate(coeffs)), Fraction(0))


def _poly(coeffs) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)],
                      _X)


def _valuation(q: Fraction, p: int) -> int:
    return (multiplicity(p, q.numerator)
            - multiplicity(p, q.denominator))


def _degenerate_ok(coeffs, x, p) -> bool:
    """x = (m : n) carries the point (x, 0, 0) over Q_p: the quartic
    vanishes there, or Newton's criterion v(f) > 2 v(f') gives a p-adic
    root in the chart where x is integral."""
    m, n = x
    if _form_value(coeffs, m, n) == 0:
        return True
    if p is None:
        return False
    if n % p:
        f, x0 = _poly(coeffs), Fraction(m, n)
    else:
        f, x0 = _poly(list(reversed(coeffs))), Fraction(n, m)
    fx = Fraction(str(f.eval(sympy.Rational(str(x0)))))
    dfx = Fraction(str(f.diff().eval(sympy.Rational(str(x0)))))
    return dfx != 0 and _valuation(fx, p) > 2 * _valuation(dfx, p)


def _has_local_point(alpha, coeffs, p) -> bool:
    """Search small heights for an x whose fiber conic is solvable at p
    (a sufficient certificate of local solvability at p)."""
    for n in range(0, LOCAL_SEARCH_HEIGHT + 1):
        for m in range(-LOCAL_SEARCH_HEIGHT, LOCAL_SEARCH_HEIGHT + 1):
            if math.gcd(m, n) != 1:
                continue
            r = _form_value(coeffs, m, n)
            if r == 0 or hilbert(alpha, r, p) == 1:
                return True
    return False


# ---------------------------------------------------------------------------
# shared report parts


def _check_local(f: _Failures, local: dict, alpha, coeffs) -> None:
    """Every place solvable, each certificate recomputed, and the places
    are oo, 2 and the primes of alpha and of disc(P)."""
    f.need(local["all_solvable"] is True, "local: all_solvable is not true")
    disc = discriminant(_poly(coeffs).as_expr(), _X)
    want = {"oo", "2"} | {str(p) for p in
                          _primes(_int_class(alpha)) | _primes(
                              _int_class(Fraction(str(disc))))}
    got = {row["place"] for row in local["places"]}
    if local["disc_cofactor"] == "1":
        f.need(got == want, f"local: places {sorted(got)} != {sorted(want)}")
    for row in local["places"]:
        p = _place(row["place"])
        if not f.need(row["solvable"] is True and row["x"] is not None,
                      f"local: place {row['place']} not solvable"):
            continue
        x = (int(row["x"][0]), int(row["x"][1]))
        if row["certificate"] == "degenerate":
            f.need(_degenerate_ok(coeffs, x, p),
                   f"local: degenerate certificate at {row['place']} fails")
        else:
            r = _form_value(coeffs, *x)
            f.need(row["certificate"] == "1" and r != 0
                   and hilbert(alpha, r, p) == 1,
                   f"local: certificate at {row['place']} fails")


def _check_scan_sample(f: _Failures, alpha, coeffs, height: int,
                       seed: int) -> None:
    """A seeded sample of fibers of height <= H, each with a place where
    its conic y^2 - alpha z^2 = P(x) has no point."""
    rng = random.Random(seed)
    pts = [(1, 0)]
    while len(pts) < SCAN_SAMPLE:
        m, n = rng.randint(-height, height), rng.randint(1, height)
        if math.gcd(m, n) == 1:
            pts.append((m, n))
    for m, n in pts:
        r = _form_value(coeffs, m, n)
        f.need(r != 0 and any(hilbert(alpha, r, p) == -1
                              for p in _support(alpha, r)),
               f"search: fiber x = {m}/{n} is solvable but not found")


def _check_obstruction(f: _Failures, ob: dict, b: int) -> None:
    for row in ob["invariants"]:
        want = "1/2" if row["place"] == str(b) else "0"
        f.need(row["invariant"] == want,
               f"obstruction: invariant {row['invariant']} at "
               f"{row['place']}, expected {want}")
    f.need(ob["sum"] == "1/2", f"obstruction: sum {ob['sum']}")
    f.need(ob["conclusion"] == "no-rational-point-certified",
           f"obstruction: conclusion {ob['conclusion']}")


def _check_params(f: _Failures, a: int, b: int, c: int) -> None:
    f.need(isprime(a) and isprime(b) and a % 8 == 1 and b % 8 == 1,
           f"params: a={a}, b={b} not primes = 1 mod 8")
    f.need(legendre_symbol(a % b, b) == -1,
           f"params: a={a} is a square mod b={b}")
    f.need((a * c + 1) % b == 0, f"params: b={b} does not divide ac+1")


def _constructed_coeffs(a: int, c: int) -> list[str]:
    poly = sympy.Poly(sympy.expand((_X**2 + c) * (a * _X**2 + a * c + 1)),
                      _X)
    return [str(k) for k in reversed(poly.all_coeffs())]


def _status(f: _Failures, rep: dict, subcommand: str) -> None:
    f.need(rep.get("subcommand") == subcommand,
           f"subcommand {rep.get('subcommand')}")
    f.need(rep.get("status") == "certified", f"status {rep.get('status')}")


# ---------------------------------------------------------------------------
# workloads


def check_counterexample(rep: dict, seed: int):
    f = _Failures()
    _status(f, rep, "counterexample")
    st = rep["stages"]
    a, b, c = st["params"]["a"], st["params"]["b"], st["params"]["c"]
    _check_params(f, a, b, c)
    alpha, coeffs = Fraction(st["surface"]["alpha"]), st["surface"]["P"]
    f.need(alpha == a * b, f"surface: alpha {alpha} != ab")
    f.need(coeffs == _constructed_coeffs(a, c),
           "surface: P is not (x^2+c)(ax^2+ac+1)")
    disc = discriminant(_poly(coeffs).as_expr(), _X)
    f.need(Fraction(st["surface"]["disc"]) == Fraction(str(disc)),
           "surface: disc differs from sympy's")
    _check_local(f, st["local"], alpha, coeffs)
    ob = st["obstruction"]
    _check_obstruction(f, ob, b)
    local_x = {row["place"]: row["x"] for row in st["local"]["places"]}
    f.need({row["place"] for row in ob["invariants"]} == set(local_x),
           "obstruction: places differ from the local table")
    for row in ob["invariants"]:
        # inv_v(ab, x^2 + c) at the local witness over x = (m : n)
        x = local_x.get(row["place"])
        if x is None:
            continue
        m, n = int(x[0]), int(x[1])
        sym = hilbert(alpha, m * m + c * n * n, _place(row["place"]))
        f.need(row["invariant"] == ("1/2" if sym == -1 else "0"),
               f"obstruction: invariant at {row['place']} differs from "
               "the symbol at the local witness")
    f.need(st["search"]["found"] is False, "search: a point was found")
    _check_scan_sample(f, alpha, coeffs, st["search"]["height"], seed)
    return f, []


def check_iskovskikh(rep: dict, seed: int):
    f = _Failures()
    _status(f, rep, "iskovskikh")
    st = rep["stages"]
    alpha, coeffs = Fraction(st["surface"]["alpha"]), st["surface"]["P"]
    want = sympy.Poly(sympy.expand((_X**2 - 2) * (3 - _X**2)), _X)
    f.need(alpha == -1 and coeffs == [str(k) for k in
                                      reversed(want.all_coeffs())],
           "surface: not y^2 + z^2 = (x^2-2)(3-x^2)")
    _check_local(f, st["local"], alpha, coeffs)
    f.need(st["search"]["found"] is False, "search: a point was found")
    _check_scan_sample(f, alpha, coeffs, st["search"]["height"], seed)
    return f, []


def _sample_ts(fibers: int) -> list[list[str]]:
    ts = [[0, 1]]
    for k in range(1, fibers // 2 + 2):
        ts += [[k, 1], [-k, 1]]
    return [[str(t0), str(t1)] for t0, t1 in ts[:fibers + 1]]


def _canonical(u: int, v: int) -> list[str]:
    g = math.gcd(u, v)
    u, v = u // g, v // g
    if (u if u else v) < 0:
        u, v = -u, -v
    return [str(u), str(v)]


def _check_fiber(rec: dict, alpha, P0, Pinf, d: int) -> _Failures:
    f = _Failures()
    t0, t1 = int(rec["t"][0]), int(rec["t"][1])
    u, v = d * t1 * t1, t0 * t0
    f.need(rec["fiber"] == _canonical(u, v),
           f"fiber: t={t0}/{t1} maps to {rec['fiber']}")
    u, v = int(rec["fiber"][0]), int(rec["fiber"][1])
    coeffs = [u * u * Fraction(pi) + v * v * Fraction(p0)
              for pi, p0 in zip(Pinf, P0)]
    Q = _poly(coeffs)
    disc = discriminant(Q.as_expr(), _X)
    f.need(Q.degree() == 4 and disc != 0 and rec["smooth"] is True,
           f"fiber {rec['fiber']}: not smooth")
    _, factors = factor_list(Q.as_expr())
    f.need(len(factors) == 1 and factors[0][1] == 1
           and sympy.degree(factors[0][0], _X) == 4
           and rec["irreducible"] is True,
           f"fiber {rec['fiber']}: not irreducible")
    want = {"oo", "2"} | {str(p) for p in _primes(_int_class(alpha))
                          | _primes(_int_class(Fraction(str(disc))))}
    if rec["disc_cofactor"] == "1":
        f.need(set(rec["bad_places"]) == want,
               f"fiber {rec['fiber']}: bad places {rec['bad_places']}")
    f.need(rec["locally_solvable"] is True,
           f"fiber {rec['fiber']}: not locally solvable")
    f.need(rec["point_found"] is (rec["point"] is not None),
           f"fiber {rec['fiber']}: point_found and point disagree")
    if rec["point"] is None:
        for place in sorted(want, key=lambda s: (s != "oo", len(s), s)):
            f.need(_has_local_point(alpha, coeffs, _place(place)),
                   f"fiber {rec['fiber']}: no local point at {place} "
                   f"up to height {LOCAL_SEARCH_HEIGHT}")
        return f
    m, n = int(rec["point"][0]), int(rec["point"][1])
    r = _form_value(coeffs, m, n)
    if r == 0:
        return f
    # every symbol +1: the conic over x has a Q-point (Hasse-Minkowski),
    # so the fiber has one and is solvable at every place
    f.need(all(hilbert(alpha, r, p) == 1 for p in _support(alpha, r)),
           f"fiber {rec['fiber']}: a local symbol at x={m}/{n} is -1")
    ri, ai = _int_class(r), _int_class(alpha)
    sol = diop_ternary_quadratic(_Y**2 - ai * _Z**2 - ri * _W**2)
    if sol and None not in sol:
        y, z, w = (int(s) for s in sol)
        f.need((y, z, w) != (0, 0, 0)
               and y * y - ai * z * z - ri * w * w == 0,
               f"fiber {rec['fiber']}: sympy's conic point fails")
    return f


def check_bundle(rep: dict, seed: int):
    f = _Failures()
    _status(f, rep, "bundle")
    st = rep["stages"]
    bun = st["bundle"]
    alpha = Fraction(bun["alpha"])
    P0, Pinf = bun["P0"], bun["Pinf"]
    # P0 = (x^2 + c)(a x^2 + ac + 1) = a x^4 + (2ac + 1) x^2 + c(ac + 1)
    a = int(P0[4])
    b, c = alpha / a, Fraction(int(P0[2]) - 1, 2 * a)
    if not f.need(b.denominator == 1 and c.denominator == 1,
                  "bundle: P0 is not (x^2+c)(ax^2+ac+1) with ab = alpha"):
        return f, []
    b, c = int(b), int(c)
    _check_params(f, a, b, c)
    f.need(P0 == _constructed_coeffs(a, c),
           "bundle: P0 is not (x^2+c)(ax^2+ac+1)")
    _, pinf_factors = factor_list(_poly(Pinf).as_expr())
    f.need(len(pinf_factors) == 1 and pinf_factors[0][1] == 1
           and _poly(Pinf).degree() == 4, "bundle: Pinf reducible")
    d = int(st["pullback"]["d"])
    f.need(d > 0 and all(e == 1 for e in factorint(d).values()),
           f"pullback: d={d} is not squarefree")
    # bad fibers: rational roots of disc(u^2 Pinf + v^2 P0) in u at v = 1
    u = sympy.Symbol("u")
    pencil = sum((u**2 * sympy.Rational(pi) + sympy.Rational(p0)) * _X**i
                 for i, (pi, p0) in enumerate(zip(Pinf, P0)))
    R = sympy.Poly(discriminant(pencil, _X), u)
    roots = {Fraction(str(q)) for q in sympy.roots(R, filter="Q")}
    got = {Fraction(int(x[0]), int(x[1])) for x in st["bad_fibers"]["fibers"]}
    f.need(got == roots, f"bad_fibers: {sorted(got)} != {sorted(roots)}")
    classes = {Fraction(_squarefree(q)) for q in roots if q != 0}
    f.need(Fraction(d) not in classes,
           f"pullback: d={d} shares a square class with a bad fiber")
    sp = st["special_fiber"]
    _check_obstruction(f, sp["obstruction"], b)
    f.need(sp["search"]["found"] is False,
           "special fiber: a point was found")
    recs = st["fibers"]
    f.need([r["t"] for r in recs] == _sample_ts(rep["config"]["fibers"]),
           "fibers: sampled t values differ from 0, 1, -1, 2, -2, ...")
    record_failures = [_check_fiber(r, alpha, P0, Pinf, d) for r in recs]
    by_t = {tuple(r["t"]): r for r in recs}
    for (t0, t1), r in by_t.items():
        twin = by_t.get((str(-int(t0)), t1))
        if twin is not None and int(t0) > 0:
            same = ({k: w for k, w in r.items() if k != "t"}
                    == {k: w for k, w in twin.items() if k != "t"})
            f.need(same, f"fibers: records at t=+-{t0} differ")
    summary = st["summary"]
    f.need(summary["sampled"] == len(recs)
           and summary["points_found"] == sum(r["point_found"] is True
                                              for r in recs)
           and summary["locally_solvable"] == sum(
               r["locally_solvable"] is True for r in recs),
           "summary: counts differ from the records")
    return f, record_failures


def _squarefree(q: Fraction) -> int:
    n = _int_class(q)
    out = -1 if n < 0 else 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


CHECKS = {
    "counterexample": check_counterexample,
    "iskovskikh": check_iskovskikh,
    "bundle": check_bundle,
}
