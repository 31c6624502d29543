"""An independent check of the "not solvable at 3" row of the golden
report `surface_unsolvable_at3_height20.json`, for alpha = 21 and
P = 21 + 2x^2 + 30x^3 - 15x^4, that is the binary quartic
P~(x, w) = 21 w^4 + 2 x^2 w^2 + 30 x^3 w - 15 x^4.  Nothing here comes
from `chatelet`: the classes mod 3^N and the Hilbert symbol are written
out again.

The surface y^2 - alpha z^2 = P~(x, w) has a 3-adic point iff some point
(x : w) of P^1(Q_3) has P~(x, w) = 0 or (alpha, P~(x, w))_3 = 1: off the
roots the fiber is a smooth conic, and over a root it is a pair of
lines meeting in a point.  Each point of P^1(Q_3) has a primitive
representative in Z_3^2, and the symbol depends only on the square
class of P~(x, w), which a unit factor of (x, w) does not change.  A
primitive (x, w) lies in one class mod 3^N; when its representative has
v_3(P~) = e <= N - 1, every value on the class is P~ (1 + 3^(N-e) t)
with t in Z_3, nonzero and of the same square class.  So if that holds
on every class and the symbol is -1 on each, V(Q_3) is empty.
"""

import json
from pathlib import Path

GOLDEN = (Path(__file__).parent / "data" / "golden"
          / "surface_unsolvable_at3_height20.json")

ALPHA = 21
P = (21, 0, 2, 30, -15)  # coefficients of x^0 .. x^4


def _form(x, w):
    return sum(c * x**i * w**(4 - i) for i, c in enumerate(P))


def _split3(n):
    """(e, u) with n = 3^e u and 3 not dividing u, for n != 0."""
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e, n


def _legendre3(u):
    return 1 if u % 3 == 1 else -1


def _hilbert3(a, b):
    """(a, b)_3 for nonzero integers, by the closed form at an odd prime
    p (Serre, A Course in Arithmetic, III.1.2): with a = p^s u and
    b = p^t v, (-1)^(s t (p-1)/2) (u/p)^t (v/p)^s."""
    (s, u), (t, v) = _split3(a), _split3(b)
    return (-1) ** (s * t) * _legendre3(u) ** t * _legendre3(v) ** s


def _primitive_classes(N):
    """Representatives of the primitive (x, w) mod 3^N."""
    q = 3**N
    return [(x, w) for x in range(q) for w in range(q)
            if x % 3 or w % 3]


def test_golden_row_is_not_solvable_at_3():
    report = json.loads(GOLDEN.read_text())
    surface = report["stages"]["surface"]
    assert (surface["alpha"], surface["P"]) == (
        str(ALPHA), [str(c) for c in P])
    rows = [r for r in report["stages"]["local"]["places"]
            if r["place"] == "3"]
    assert rows == [{"certificate": None, "place": "3",
                     "solvable": False, "x": None}]
    assert report["conclusion"] == "not-locally-solvable at 3"


def test_no_3_adic_point():
    # the least N at which every class has v_3(P~) <= N - 1
    N = 1
    while any(_form(x, w) % 3**N == 0 for x, w in _primitive_classes(N)):
        N += 1
    assert N == 2
    symbols = {_hilbert3(ALPHA, _form(x, w))
               for x, w in _primitive_classes(N)}
    assert symbols == {-1}



def test_symbol_identities():
    # (a, -a) = (a, 1 - a) = 1, symmetry, and bimultiplicativity in b,
    # on the valuations 0..2 of a and b
    values = [a for a in range(-60, 61) if a not in (0, 1)]
    for a in values:
        assert _hilbert3(a, -a) == _hilbert3(a, 1 - a) == 1, a
        for b in (2, -3, 6, 7, 18, -45):
            assert _hilbert3(a, b) == _hilbert3(b, a)
            assert (_hilbert3(a, b * 5) ==
                    _hilbert3(a, b) * _hilbert3(a, 5)), (a, b)
