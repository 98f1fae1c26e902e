"""The benchmark's own arithmetic over the two atoms a and b.

Oracle values must not come from the code under test, so formulas here are
plain text plus the set of truth rows they hold in, computed with a four-row
truth table.  Row code c has bit 0 for a and bit 1 for b, the order the
workbench uses for stage-0 points; a row set is a 4-bit mask.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

ALL = 0b1111


class Classical(NamedTuple):
    text: str
    rows: int


class Conditional(NamedTuple):
    """``(then | given)`` with classical parts."""

    then: Classical
    given: Classical

    @property
    def text(self) -> str:
        return f"({self.then.text} | {self.given.text})"

    @property
    def split(self) -> int:
        """The condition's row set up to complement: conditionals on the
        same split are resolved by the same construction step."""
        return min(self.given.rows, ALL ^ self.given.rows)


A = Classical("a", 0b1010)
B = Classical("b", 0b1100)


def neg(atom: Classical) -> Classical:
    return Classical(f"!{atom.text}", ALL ^ atom.rows)


def imp(f: Classical, g: Classical) -> Classical:
    return Classical(f"{f.text} -> {g.text}", (ALL ^ f.rows) | g.rows)


LITERALS = (A, B, neg(A), neg(B))
# the depth-1 formulas of probability.default_lewis_deltas
DEPTH1 = LITERALS + (imp(A, A), imp(A, B), imp(B, A), imp(B, B))
_BINARY = {
    "/\\": lambda x, y: x & y,
    "\\/": lambda x, y: x | y,
    "->": lambda x, y: (ALL ^ x) | y,
    "<->": lambda x, y: ALL ^ (x ^ y),
}
# single literals and binary combinations of two literals
CLASSICAL = LITERALS + tuple(
    Classical(f"{l.text} {op} {r.text}", fn(l.rows, r.rows))
    for op, fn in _BINARY.items() for l in LITERALS for r in LITERALS)

# Conditions grouped by how the first construction step splits the four
# stage-0 points: 2 against 2 gives an 8-point stage, 1 against 3 a 6-point
# stage (2 * |b| * |~b| pairs).
COND_8 = {"a": (A, neg(A)), "b": (B, neg(B))}
COND_6 = {"a->b": (imp(A, B), Classical("a /\\ !b", 0b0010)),
          "b->a": (imp(B, A), Classical("!a /\\ b", 0b0100))}


def stage_size(split_rows: int) -> int:
    k = bin(split_rows).count("1")
    return 2 * k * (4 - k)


CELL_TEXT = ("!a /\\ !b", "a /\\ !b", "!a /\\ b", "a /\\ b")


def table_text(weights: list[int]) -> str:
    """Probability file for positive integer cell weights (row-code order)."""
    total = sum(weights)
    return "".join(f"{CELL_TEXT[c]} : {w}/{total}\n" for c, w in enumerate(weights))


def _mass(weights: list[int], rows: int) -> Fraction:
    return Fraction(sum(weights[c] for c in range(4) if rows >> c & 1), sum(weights))


def probability(weights: list[int], f: Classical | Conditional) -> Fraction:
    """Exact probability of `f`: a classical formula weighs its cells, a
    conditional is the Bayes ratio P(given /\\ then) / P(given)."""
    if isinstance(f, Classical):
        return _mass(weights, f.rows)
    return _mass(weights, f.given.rows & f.then.rows) / _mass(weights, f.given.rows)
