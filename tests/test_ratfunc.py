from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblogic.ratfunc import EPS, Poly, RatFunc

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
    q, r = p.divmod(d)
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
    quo, rem = p.divmod(q)
    assert _exact_poly(quo) and _exact_poly(rem)
    assert quo * q + rem == p
    f = RatFunc.make(p, q)
    assert _exact_poly(f.num) and _exact_poly(f.den)
    if f.den.eval(x) != 0:
        assert _exact(f.eval(x))
    try:
        lim = f.limit0()
    except ValueError:
        return
    assert _exact(lim)
