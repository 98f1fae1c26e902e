"""Univariate polynomial fractions over exact rationals.

Probability weights become fractions of polynomials in a perturbation
parameter e when a distribution with zero cells is nudged onto the interior
of the simplex.  They are kept in normal form: no common factor of positive
degree, a monic denominator, zero as 0/1.  The form is unique, so equality
is structural and the one-sided limit at 0+ is a coefficient lookup.

It is computed over Z.  `Poly.gcd` runs a pseudo-remainder sequence on
primitive parts (integer coefficients with no common factor) and keeps each
remainder primitive; the last nonzero one is the primitive gcd g.  By
Gauss's lemma a product of primitive polynomials is primitive, so a p in
Z[e] that g divides over Q is g times a polynomial in Z[e]: `cancel` divides
by g with exact integer long division, and `RatFunc.make` divides by the
denominator's leading coefficient once, at the end.

Coefficients are Python ints or Fractions, never floats: the staged
extension's numerators are integer polynomials (probability.RationalValuation),
so ints are not wrapped, and every division goes through Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

__all__ = ["Poly", "RatFunc", "EPS", "cancel", "limit0"]


def _primitive(coeffs: Iterable[int | Fraction]) -> list[int]:
    """Coprime integers in the ratios of the coefficients, same signs."""
    cs = list(coeffs)
    m = lcm(*(c.denominator for c in cs))
    cs = [c.numerator * (m // c.denominator) for c in cs]
    d = gcd(*cs)
    return [x // d for x in cs] if d > 1 else cs


def _prem(a: list[int], b: list[int]) -> list[int]:
    """An integer multiple of the remainder of a by b; a when b is longer."""
    r = a
    while len(r) >= len(b):
        g = gcd(r[-1], b[-1])
        s, m, k = r[-1] // g, b[-1] // g, len(r) - len(b)
        r = [x * m - (s * b[i - k] if i >= k else 0) for i, x in enumerate(r)]
        while r and not r[-1]:
            r.pop()
    return r


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer coefficient lists, b dividing a in Z[e]."""
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + len(b) - 1] // b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return q


def cancel(polys: list["Poly"]) -> list["Poly"]:
    """The polynomials, the first nonzero, as coprime integers in the same
    ratios (`_primitive`), each divided by their common primitive gcd."""
    g = polys[0]
    for p in polys[1:]:
        if g.degree == 0:
            break
        g = g.gcd(p)
    it, gi = iter(_primitive(c for p in polys for c in p.coeffs)), _primitive(g.coeffs)
    return [Poly(tuple(_quotient([next(it) for _ in p.coeffs], gi))) for p in polys]


def limit0(num: "Poly", den: "Poly") -> Fraction:
    """One-sided limit at 0+ of num / den, den nonzero, whether or not the
    quotient is reduced: a common factor adds its order at 0 to both lowest
    orders and multiplies both lowest coefficients by its own, so it changes
    neither their difference nor their ratio.  ValueError when unbounded."""
    if num.is_zero():
        return Fraction(0)
    vn, vd = num.valuation(), den.valuation()
    if vn < vd:
        raise ValueError("unbounded at 0: no limit")
    if vn > vd:
        return Fraction(0)
    return Fraction(num.coeffs[vn], den.coeffs[vd])


@dataclass(frozen=True)
class Poly:
    """Dense polynomial; coeffs[i] multiplies x**i, trailing zeros stripped."""

    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def make(coeffs: Iterable[int | Fraction]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def const(c: Fraction | int) -> "Poly":
        return Poly.make([c])

    @staticmethod
    def x() -> "Poly":
        return Poly.make([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # degree of 0 is -1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly.make([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q (0 when both are 0), computed over Z."""
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        while b:
            a, b = b, _primitive(_prem(a, b))
        return Poly(tuple(Fraction(c, a[-1]) for c in a))

    def eval(self, x: int | Fraction) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def valuation(self) -> int:
        """Order of the root at 0 (index of the lowest nonzero coefficient)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise ValueError("zero polynomial has no valuation")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*e")
            else:
                parts.append(f"{c}*e^{i}")
        return " + ".join(parts)


@dataclass(frozen=True)
class RatFunc:
    """Normalized quotient of polynomials: gcd cancelled, monic denominator."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if den.degree > 0:
            den, num = cancel([den, num])
        lead = den.coeffs[-1]
        return RatFunc(Poly(tuple(Fraction(c, lead) for c in num.coeffs)),
                       Poly(tuple(Fraction(c, lead) for c in den.coeffs)))

    @staticmethod
    def const(c: Fraction | int) -> "RatFunc":
        return RatFunc(Poly.const(c), Poly.const(1))

    @staticmethod
    def of(value: "RatFunc | Fraction | int") -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc.const(value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        o = RatFunc.of(other)
        return RatFunc.make(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __rsub__(self, other):
        return RatFunc.of(other) + (-self)

    def __mul__(self, other):
        o = RatFunc.of(other)
        return RatFunc.make(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc.of(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.make(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den.coeffs == (1,) and self.num == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, x: int | Fraction) -> Fraction:
        return Fraction(self.num.eval(x), self.den.eval(x))

    def limit0(self) -> Fraction:
        """One-sided limit at 0+ (exists whenever the function is bounded
        near 0, which the construction guarantees)."""
        return limit0(self.num, self.den)

    def __str__(self) -> str:
        if self.den == Poly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


EPS = RatFunc(Poly.x(), Poly.const(1))
