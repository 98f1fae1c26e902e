from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ratfunc_reference as ref
from dblogic.ratfunc import EPS, Poly, RatFunc, cancel

F = Fraction


def test_poly_arithmetic():
    p = Poly.make([1, 2])       # 1 + 2e
    q = Poly.make([0, 0, 3])    # 3e^2
    assert (p + q).coeffs == (F(1), F(2), F(3))
    assert (p * p).coeffs == (F(1), F(4), F(4))
    assert (p - p).is_zero()


def test_poly_divmod_and_gcd():
    p = Poly.make([-1, 0, 1])   # e^2 - 1
    d = Poly.make([1, 1])       # e + 1
    q, r = ref.poly_divmod(p, d)
    assert r.is_zero() and q.coeffs == (F(-1), F(1))
    g = p.gcd(d)
    assert g.coeffs == (F(1), F(1))  # monic e + 1


def test_ratfunc_normal_form():
    # (e^2 - 1) / (e + 1) == e - 1
    r = RatFunc.make(Poly.make([-1, 0, 1]), Poly.make([1, 1]))
    assert r.num.coeffs == (F(-1), F(1)) and r.den == Poly.const(1)


def test_ratfunc_equality_cross_multiplied():
    a = RatFunc.make(Poly.make([0, 1]), Poly.make([0, 0, 1]))  # e/e^2 = 1/e
    b = RatFunc.make(Poly.const(1), Poly.x())
    assert a == b


def test_limits():
    # (e/4 + (1-e)*4/5) / (e/2 + (1-e)*4/5) -> 1 at 0+
    num = Poly.make([F(4, 5), F(1, 4) - F(4, 5)])
    den = Poly.make([F(4, 5), F(1, 2) - F(4, 5)])
    assert RatFunc.make(num, den).limit0() == 1
    assert (EPS / (EPS + 1)).limit0() == 0
    assert RatFunc.const(F(2, 3)).limit0() == F(2, 3)
    with pytest.raises(ValueError):
        (RatFunc.const(1) / EPS).limit0()


def test_mixing_with_fractions():
    x = (1 - EPS) * F(1, 3) + EPS / 4
    assert x.eval(F(0)) == F(1, 3)
    assert x.eval(F(1)) == F(1, 4)
    assert x.limit0() == F(1, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(), min_size=0, max_size=4),
       st.lists(st.fractions(), min_size=0, max_size=4),
       st.lists(st.fractions(), min_size=1, max_size=3))
def test_field_laws(a, b, c):
    pa, pb = Poly.make(a), Poly.make(b)
    pc = Poly.make(c)
    if pc.is_zero():
        pc = Poly.const(1)
    x = RatFunc.make(pa, Poly.const(1))
    y = RatFunc.make(pb, pc)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x / y) * y == x


_COEFFS = st.one_of(st.integers(-20, 20),
                    st.fractions(min_value=-20, max_value=20, max_denominator=12))


def _exact(x) -> bool:
    """An int or a Fraction, never a float (nor a bool)."""
    return type(x) in (int, Fraction)


def _exact_poly(p: Poly) -> bool:
    return all(_exact(c) for c in p.coeffs)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFFS, max_size=4), st.lists(_COEFFS, max_size=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=5), st.integers(-3, 3))
def test_no_float_anywhere(a, b, x, k):
    # int- and Fraction-coefficient polynomials through every operation:
    # each coefficient and result stays an int or a Fraction
    p, q = Poly.make(a), Poly.make(b)
    assert _exact_poly(p) and _exact_poly(q)
    for r in (p + q, p - q, p * q, p.gcd(q)):
        assert _exact_poly(r)
    assert _exact(p.eval(x)) and _exact(p.eval(k))
    if q.is_zero():
        return
    quo, rem = ref.poly_divmod(p, q)
    assert _exact_poly(quo) and _exact_poly(rem)
    assert quo * q + rem == p
    assert all(type(c) is int for r in cancel([q, p]) for c in r.coeffs)
    f = RatFunc.make(p, q)
    assert _exact_poly(f.num) and _exact_poly(f.den)
    if f.den.eval(x) != 0:
        assert _exact(f.eval(x))
    try:
        lim = f.limit0()
    except ValueError:
        return
    assert _exact(lim)


# polynomials up to degree 8 (products p*r of the strategies below) with
# int and Fraction coefficients, large ones included, so leading
# coefficients are negative, large or fractional
_WIDE = st.one_of(_COEFFS, st.integers(-10**30, 10**30))


def _polys(max_size: int):
    return st.lists(_WIDE, max_size=max_size).map(Poly.make)


def _same_poly(got: Poly, want: Poly) -> None:
    assert got.coeffs == want.coeffs and str(got) == str(want)
    assert _exact_poly(got)


@settings(max_examples=400, deadline=None)
@given(_polys(6), _polys(6), _polys(4))
@example(Poly(()), Poly(()), Poly.const(1))
@example(Poly.const(F(-7, 3)), Poly.make([5, -10**30]), Poly.make([1, 2]))
@example(Poly.make([0, 0, 3]), Poly.make([0, -6]), Poly.x())
def test_gcd_and_make_agree_with_the_euclid_reference(p, q, r):
    # p*r and q*r share the factor r: the integer gcd must find what the
    # Euclid loop over Q finds, and make must print the same normal form
    a, b = p * r, q * r
    for x, y in ((a, b), (b, a), (a, a), (p, q), (a, Poly(())), (r, a)):
        _same_poly(x.gcd(y), ref.gcd(x, y))
        if y:
            got, want = RatFunc.make(x, y), ref.make(x, y)
            _same_poly(got.num, want.num)
            _same_poly(got.den, want.den)
            assert str(got) == str(want)


@settings(max_examples=200, deadline=None)
@given(_polys(5), _polys(5), _polys(4), _polys(5))
def test_make_cancels_a_common_factor(p, q, r, s):
    assume(q and r and s)
    a, b = RatFunc.make(p, q), RatFunc.make(p * r, q * r)
    assert (a.num, a.den) == (b.num, b.den)
    assert a == b and hash(a) == hash(b)
    c = RatFunc.make(s, q)
    assert (a == c) == (p == s)
    if a == c:
        assert hash(a) == hash(c)


def test_comparing_with_a_number_builds_no_ratfunc(monkeypatch):
    third, two, zero = RatFunc.const(F(1, 3)), RatFunc.const(2), RatFunc.const(0)

    def no_make(num, den):
        raise AssertionError("make called")

    monkeypatch.setattr(RatFunc, "make", staticmethod(no_make))
    assert third == F(1, 3) and two == 2 and zero == 0 and zero == F(0)
    assert third != F(1, 2) and two != 1 and zero != 1
    assert EPS != 0 and EPS != 1 and third != EPS
    assert (third == "1/3") is False
