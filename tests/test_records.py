"""The package's records are namedtuples: field-wise equality and hashing
(hash(x) == hash(tuple(x))), the Name(field=value, ...) repr, and the
validation, coercion and caching of the records that have them."""

from fractions import Fraction

import pytest

from chatelet.bundle import (
    FiberParam,
    FiberRecord,
    default_sample_ts,
    make_bundle,
    pullback,
    verify_pullback,
)
from chatelet.local import REAL, Place, finite_place
from chatelet.quartic import BinaryQuartic
from chatelet.surface import (
    ChateletParams,
    ChateletSurface,
    LocalPlaceResult,
    SearchResult,
    build_surface,
    find_params,
)

QUARTIC = BinaryQuartic((1, 0, 0, 0, 1))


def _records():
    params = ChateletParams(41, 17, 12)
    return [
        finite_place(17), REAL, QUARTIC, params,
        ChateletSurface(Fraction(2), QUARTIC, "user"),
        ChateletSurface(Fraction(697), QUARTIC, "constructed", params),
        LocalPlaceResult(place=REAL, solvable=True, witness=None),
        SearchResult(height=3, found=False), FiberParam(1, 2),
    ]


class TestEqualityAndHash:
    @pytest.mark.parametrize("x", _records(), ids=lambda x: type(x).__name__)
    def test_field_wise(self, x):
        # what the frozen dataclasses hashed, so set and dict iteration
        # orders, and the reports built from them, are unchanged
        assert hash(x) == hash(tuple(x))
        assert x == type(x)(*x)
        assert hash(x) == hash(type(x)(*x))

    def test_fields_decide_equality(self):
        assert FiberParam(1, 2) != FiberParam(2, 1)
        assert SearchResult(3, False) != SearchResult(3, False, note="n")
        assert BinaryQuartic((1, 0, 0, 0, 1)) == BinaryQuartic(
            [Fraction(1), 0, 0, 0, "1"])

    def test_cached_facts_stay_out_of_equality(self):
        S = ChateletSurface(Fraction(2), BinaryQuartic((6, 0, 0, 0, 1)),
                            "user")
        T = ChateletSurface(2, BinaryQuartic((6, 0, 0, 0, 1)), "user")
        assert S.disc != 0
        assert "disc" in vars(S) and "disc" not in vars(T)
        assert S == T and hash(S) == hash(T)

    def test_fiber_param_as_dict_key(self):
        table = {FiberParam(1, 2): "half", FiberParam(1, 0): "oo"}
        assert table[FiberParam.canonical(Fraction(-1, 3), Fraction(-2, 3))] \
            == "half"
        assert table[FiberParam.canonical(5, 0)] == "oo"
        assert len({FiberParam(1, 2), FiberParam.canonical(2, 4)}) == 1

    def test_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            FiberParam(1, 2).u = 3
        with pytest.raises(AttributeError):
            QUARTIC.coeffs = ()


class TestRepr:
    def test_name_and_fields(self):
        assert repr(FiberParam(1, -2)) == "FiberParam(u=1, v=-2)"
        assert repr(ChateletParams(41, 17, 12)) == \
            "ChateletParams(a=41, b=17, c=12)"
        assert repr(SearchResult(5, False)) == (
            "SearchResult(height=5, found=False, x=None, witness=None, "
            "note='')")
        assert repr(BinaryQuartic((0, 0, 0, 0, "1/2"))) == (
            "BinaryQuartic(coeffs=(Fraction(0, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)))")

    def test_place_keeps_its_own(self):
        assert str(REAL) == "oo" and repr(REAL) == "Place(oo)"
        assert str(finite_place(7)) == "7"
        assert repr(finite_place(7)) == "Place(7)"
        assert str(FiberParam(1, 0)) == "oo"
        assert str(FiberParam(1, -2)) == "-1/2"


class TestPlaceOrder:
    def test_real_first_then_primes_ascending(self):
        places = [finite_place(p) for p in (41, 2, 17, 3)] + [REAL]
        assert sorted(places) == [REAL] + [finite_place(p)
                                           for p in (2, 3, 17, 41)]
        assert REAL < finite_place(2) < finite_place(3)
        assert max(places) == finite_place(41)

    def test_fields(self):
        assert REAL == Place(sort_key=(0, 0)) and REAL.is_real
        v = finite_place(5)
        assert (v.sort_key, v.p, v.is_real) == ((1, 5), 5, False)


class TestValidation:
    """Every check keeps its exception type and message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: ChateletParams(15, 17, 12), "a and b must be prime"),
        (lambda: ChateletParams(5, 17, 12), "a and b must exceed 5"),
        (lambda: ChateletParams(41, 7, 12), "a and b must be = 1 mod 8"),
        (lambda: ChateletParams(17, 17, 0), "a and b must be distinct"),
        (lambda: ChateletParams(89, 17, 0), "a must be a non-square mod b"),
        (lambda: ChateletParams(41, 17, 11), "b must divide a*c + 1"),
        (lambda: FiberParam(0, 0), "(0, 0) is not a point of P^1"),
        (lambda: FiberParam(2, 4), "coordinates must be coprime"),
        (lambda: FiberParam(-1, 2),
         "first nonzero coordinate must be positive"),
        (lambda: FiberParam(0, -1),
         "first nonzero coordinate must be positive"),
        (lambda: BinaryQuartic((1, 2, 3)), "need exactly 5 coefficients"),
        (lambda: BinaryQuartic((0, "0", 0, 0, Fraction(0))),
         "form is identically zero"),
        (lambda: ChateletSurface(alpha=0, Ptilde=QUARTIC,
                                 provenance="user"),
         "alpha must be nonzero"),
    ])
    def test_message(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_coercion(self):
        q = BinaryQuartic([1, "1/2", 0, "0.5", Fraction(3)])
        assert type(q.coeffs) is tuple
        assert q.coeffs == (1, Fraction(1, 2), 0, Fraction(1, 2), 3)
        assert all(type(c) is Fraction for c in q.coeffs)
        S = ChateletSurface(-1, QUARTIC, "user")
        assert type(S.alpha) is Fraction and S.params is None

    def test_keywords_and_defaults(self):
        S = ChateletSurface(Ptilde=QUARTIC, provenance="user", alpha="3/2")
        assert S == (Fraction(3, 2), QUARTIC, "user", None)
        assert FiberParam(v=2, u=1) == FiberParam(1, 2)
        assert SearchResult(7, True).note == ""


class TestReplace:
    """`_replace` builds through `_make`, which skips a subclass's
    __new__: only the records without validation use it, today
    `FiberRecord` in `verify_pullback`."""

    def test_fiber_record(self):
        rec = FiberRecord(t=(1, 1), fiber_param=FiberParam(1, 1),
                          smooth=True, irreducible=True,
                          locally_solvable=True, bad_places=(REAL,),
                          disc_cofactor=1, point_found=None, point=None)
        moved = rec._replace(t=(-1, 1))
        assert type(moved) is FiberRecord
        assert moved.t == (-1, 1) and moved[1:] == rec[1:]


class TestVerifyPullbackKeys:
    """Records equal plain tuples of the same fields, so no dict or set
    may hold both: the fibers are keyed by FiberParam, t stays a tuple."""

    def test_types(self):
        S = build_surface(find_params(100))
        B = make_bundle(S)
        W = pullback(B, 1)
        rep = verify_pullback(W, default_sample_ts(6), search_H=5)
        assert FiberParam(0, 1) == (0, 1)
        assert all(type(f) is FiberParam for f in B.bad.fibers)
        for r in rep.fibers:
            assert type(r.t) is tuple
            assert type(r.fiber_param) is FiberParam
            assert all(type(v) is Place for v in r.bad_places)
        assert [r.t for r in rep.fibers] == default_sample_ts(6)[1:]
        assert len({r.fiber_param for r in rep.fibers}) == 3
