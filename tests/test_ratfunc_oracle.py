"""RatFunc arithmetic against sympy as an independent oracle (test-only)."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfunc_reference as ref
from dblogic.ratfunc import Poly, RatFunc, limit0

sympy = pytest.importorskip("sympy")
E = sympy.Symbol("e")


def _random_poly(rng: Random, max_degree: int = 2) -> Poly:
    return Poly.make(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(1, max_degree + 1)))


def _random_int_poly(rng: Random, max_degree: int = 2) -> Poly:
    """Integer coefficients, kept as ints, as the staged extension's
    numerators and denominators are."""
    return Poly.make(rng.randint(-9, 9) for _ in range(rng.randint(1, max_degree + 1)))


def _random_ratfunc(rng: Random, poly=_random_poly) -> RatFunc:
    """Small p*r / (q*r): the common factor r makes the gcd do work."""
    den = poly(rng)
    while den.is_zero():
        den = poly(rng)
    common = poly(rng, 1)
    if common.is_zero():
        common = Poly.const(1)
    return RatFunc.make(poly(rng) * common, den * common)


def _poly_expr(p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * E**i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _expr(r: RatFunc):
    return _poly_expr(r.num) / _poly_expr(r.den)


def _coeffs(p) -> tuple[Fraction, ...]:
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _normal_form(expr) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """sympy's reduced quotient with a monic denominator, as coefficient
    tuples (lowest degree first): RatFunc's normal form."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = sympy.Poly(num, E, domain="QQ"), sympy.Poly(den, E, domain="QQ")
    lead = den.LC()
    return _coeffs(num.quo_ground(lead)), _coeffs(den.quo_ground(lead))


def _form(r: RatFunc):
    return r.num.coeffs, r.den.coeffs


def test_arithmetic_matches_sympy_normal_form():
    rng = Random(11)
    for poly in [_random_poly] * 60 + [_random_int_poly] * 60:
        a, b = _random_ratfunc(rng, poly), _random_ratfunc(rng, poly)
        sa, sb = _expr(a), _expr(b)
        assert _form(a) == _normal_form(sa)
        assert _form(a + b) == _normal_form(sa + sb)
        assert _form(a - b) == _normal_form(sa - sb)
        assert _form(a * b) == _normal_form(sa * sb)
        if not b.is_zero():
            assert _form(a / b) == _normal_form(sa / sb)


def test_int_poly_division_and_gcd_match_sympy():
    rng = Random(14)
    for _ in range(60):
        a, b = _random_int_poly(rng, 4), _random_int_poly(rng, 2)
        if b.is_zero():
            continue
        sa = sympy.Poly(_poly_expr(a), E, domain="QQ")
        sb = sympy.Poly(_poly_expr(b), E, domain="QQ")
        q, r = ref.poly_divmod(a, b)
        sq, sr = sa.div(sb)
        assert (q.coeffs, r.coeffs) == (_coeffs(sq), _coeffs(sr))
        g = sa.gcd(sb)
        assert a.gcd(b).coeffs == (_coeffs(g.monic()) if not g.is_zero else ())
        # a RatFunc built from integer polynomials is in sympy's normal form
        assert _form(RatFunc.make(a, b)) == _normal_form(_poly_expr(a) / _poly_expr(b))


def test_equality_matches_sympy():
    rng = Random(12)
    for _ in range(60):
        a = _random_ratfunc(rng)
        # the same function built from an unreduced quotient, and a different one
        factor = _random_poly(rng, 1)
        if factor.is_zero():
            factor = Poly.x()
        same = RatFunc.make(a.num * factor, a.den * factor)
        other = _random_ratfunc(rng)
        assert a == same
        assert (a == other) == (sympy.cancel(_expr(a) - _expr(other)) == 0)


def test_limit0_matches_sympy():
    rng = Random(13)
    for poly in [_random_poly] * 40 + [_random_int_poly] * 40:
        r = _random_ratfunc(rng, poly)
        lim = sympy.limit(_expr(r), E, 0, "+")
        if lim.is_finite:
            assert r.limit0() == Fraction(int(lim.p), int(lim.q))
        else:
            with pytest.raises(ValueError):
                r.limit0()


INT_POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(Poly.make)
POWERS_OF_E = st.integers(1, 3).map(lambda k: Poly.make([0] * k + [1]))
COMMON_FACTORS = st.one_of(
    POWERS_OF_E, INT_POLYS.filter(bool),
    st.tuples(POWERS_OF_E, INT_POLYS.filter(bool)).map(lambda t: t[0] * t[1]))


@settings(max_examples=100, deadline=None)
@given(INT_POLYS, INT_POLYS.filter(bool), COMMON_FACTORS)
def test_limit_of_an_unreduced_quotient_matches_make_and_sympy(n, d, g):
    lim = sympy.limit(_poly_expr(n) / _poly_expr(d), E, 0, "+")
    try:
        want = RatFunc.make(n, d).limit0()
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            limit0(n * g, d * g)
        assert str(info.value) == str(e)
        assert not lim.is_finite
        return
    assert limit0(n * g, d * g) == want == Fraction(int(lim.p), int(lim.q))
