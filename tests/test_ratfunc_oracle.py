"""RatFunc arithmetic against sympy as an independent oracle (test-only)."""

from fractions import Fraction
from random import Random

import pytest

from dblogic.ratfunc import Poly, RatFunc

sympy = pytest.importorskip("sympy")
E = sympy.Symbol("e")


def _random_poly(rng: Random, max_degree: int = 2) -> Poly:
    return Poly.make(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(1, max_degree + 1)))


def _random_ratfunc(rng: Random) -> RatFunc:
    """Small p*r / (q*r): the common factor r makes the gcd do work."""
    den = _random_poly(rng)
    while den.is_zero():
        den = _random_poly(rng)
    common = _random_poly(rng, 1)
    if common.is_zero():
        common = Poly.const(1)
    return RatFunc.make(_random_poly(rng) * common, den * common)


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
    for _ in range(60):
        a, b = _random_ratfunc(rng), _random_ratfunc(rng)
        sa, sb = _expr(a), _expr(b)
        assert _form(a) == _normal_form(sa)
        assert _form(a + b) == _normal_form(sa + sb)
        assert _form(a - b) == _normal_form(sa - sb)
        assert _form(a * b) == _normal_form(sa * sb)
        if not b.is_zero():
            assert _form(a / b) == _normal_form(sa / sb)


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
    for _ in range(40):
        r = _random_ratfunc(rng)
        lim = sympy.limit(_expr(r), E, 0, "+")
        if lim.is_finite:
            assert r.limit0() == Fraction(int(lim.p), int(lim.q))
        else:
            with pytest.raises(ValueError):
                r.limit0()
