"""Test-only reference for RatFunc's normal form.

The Euclid-over-Q gcd and the `make` that the integer pseudo-remainder
sequence and `ratfunc.cancel` replaced: long division with Fraction
coefficients (`poly_divmod`), a Euclid loop over its remainders made monic
at the end, and a `make` that cancels that gcd by long division and then
scales both sides by the inverse of the denominator's leading coefficient.
Differential tests hold `Poly.gcd` and `RatFunc.make` to these results:
equal coefficient tuples and printed forms.
"""

from __future__ import annotations

from fractions import Fraction

from dblogic.ratfunc import Poly, RatFunc


def scale(p: Poly, c: int | Fraction) -> Poly:
    return Poly.make(x * c for x in p.coeffs)


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(p.coeffs) - len(d.coeffs) + 1)
    r = list(p.coeffs)
    dc = d.coeffs
    while len(r) >= len(dc) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(dc):
            break
        k = len(r) - len(dc)
        c = Fraction(r[-1], dc[-1])
        q[k] = c
        for i, x in enumerate(dc):
            r[i + k] -= c * x
    return Poly.make(q), Poly.make(r)


def gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero():
        return a
    return scale(a, Fraction(1, a.coeffs[-1]))  # monic


def make(num: Poly, den: Poly) -> RatFunc:
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(Poly(()), Poly.const(1))
    g = gcd(num, den)
    if g.degree > 0:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    inv = Fraction(1, den.coeffs[-1])
    return RatFunc(scale(num, inv), scale(den, inv))
