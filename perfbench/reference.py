"""A fixed pure-Python task that gauges the machine's current speed.

The benchmark runs it just before and after every op and divides the op's
time by its time, so that a slow stretch of a shared machine, which slows
both alike, cancels out (see run.py).  It does the kind of work the workbench
does (recursion over formula trees, dict and frozenset lookups, Fraction
sums, string building) but uses none of its code, so no change to dblogic
changes it.
"""

from __future__ import annotations

import random
from fractions import Fraction

ATOMS = "abcd"
OPS = ("not", "and", "or", "imp")


def _formula(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.randrange(len(ATOMS)))
    op = rng.choice(OPS)
    if op == "not":
        return (op, _formula(rng, depth - 1))
    return (op, _formula(rng, depth - 1), _formula(rng, depth - 1))


_RNG = random.Random(0)
FORMULAS = tuple(_formula(_RNG, 5) for _ in range(24))
WEIGHTS = tuple(Fraction(_RNG.randint(0, 12), 97) for _ in range(1 << len(ATOMS)))


def _holds(f: tuple, row: int, memo: dict) -> bool:
    key = (id(f), row)
    if key in memo:
        return memo[key]
    tag = f[0]
    if tag == "atom":
        v = bool(row >> f[1] & 1)
    elif tag == "not":
        v = not _holds(f[1], row, memo)
    else:
        x, y = _holds(f[1], row, memo), _holds(f[2], row, memo)
        v = (x and y) if tag == "and" else (x or y) if tag == "or" else (not x or y)
    memo[key] = v
    return v


def _text(f: tuple) -> str:
    if f[0] == "atom":
        return ATOMS[f[1]]
    if f[0] == "not":
        return "!" + _text(f[1])
    return f"({_text(f[1])} {f[0]} {_text(f[2])})"


def task() -> int:
    """The fixed task: the rows each formula holds in, their weight, and
    the length of each formula's text."""
    memo: dict = {}
    total = Fraction(0)
    chars = 0
    for f in FORMULAS:
        rows = frozenset(r for r in range(len(WEIGHTS)) if _holds(f, r, memo))
        total += sum((WEIGHTS[r] for r in rows), Fraction(0))
        chars += len(_text(f).split())
    return chars + total.numerator


def main() -> None:
    """The reference set-up, run in a fresh interpreter: compile this file
    30 times and run the task 15 times, then print 'ready'."""
    with open(__file__) as fh:
        source = fh.read()
    for _ in range(30):
        compile(source, __file__, "exec")
    for _ in range(15):
        task()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
