"""Univariate polynomial fractions over exact rationals.

Probability weights become fractions of polynomials in a perturbation
parameter when a distribution with zero cells is nudged onto the interior of
the simplex.  Fractions are kept in normal form (polynomial gcd cancelled,
monic denominator), so equality is structural and the one-sided limit at 0+
is a coefficient lookup.

A polynomial's coefficients are Python ints or Fractions, never floats: the
staged extension keeps its numerators as integer-coefficient polynomials
(see probability.RationalValuation), so ints are not wrapped, and every
division goes through Fraction (``int / int`` would be a float).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = ["Poly", "RatFunc", "EPS"]


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

    def scale(self, c: int | Fraction) -> "Poly":
        return Poly.make(x * c for x in self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [0] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.coeffs
        while len(r) >= len(d) and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(d):
                break
            k = len(r) - len(d)
            c = Fraction(r[-1], d[-1])
            q[k] = c
            for i, dc in enumerate(d):
                r[i + k] -= c * dc
        return Poly.make(q), Poly.make(r)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(Fraction(1, a.coeffs[-1]))  # monic

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
        if num.is_zero():
            return RatFunc(Poly(()), Poly.const(1))
        g = num.gcd(den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        inv = Fraction(1, den.coeffs[-1])
        return RatFunc(num.scale(inv), den.scale(inv))

    @staticmethod
    def const(c: Fraction | int) -> "RatFunc":
        return RatFunc.make(Poly.const(c), Poly.const(1))

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
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        # normal form makes structural comparison sound; cross-multiply as a
        # belt-and-braces fallback
        return (self.num == other.num and self.den == other.den) or \
            (self.num * other.den == other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, x: int | Fraction) -> Fraction:
        return Fraction(self.num.eval(x), self.den.eval(x))

    def limit0(self) -> Fraction:
        """One-sided limit at 0+ (exists whenever the function is bounded
        near 0, which the construction guarantees)."""
        if self.num.is_zero():
            return Fraction(0)
        vn = self.num.valuation()
        vd = self.den.valuation()
        if vn < vd:
            raise ValueError("unbounded at 0: no limit")
        if vn > vd:
            return Fraction(0)
        return Fraction(self.num.coeffs[vn], self.den.coeffs[vd])

    def __str__(self) -> str:
        if self.den == Poly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


EPS = RatFunc.make(Poly.x(), Poly.const(1))
