"""Test-only references for the staged extension and its lemma checks.

The per-point extension that `RationalValuation` replaced keeps every weight
a Fraction or a normalized RatFunc.  Each weight of an advance is
P(x) P(y) / P(block of y), computed in Fraction or RatFunc arithmetic, and
`measure` joins per-8-point subset-sum tables of weights, so every sum is
normalized.  Differential tests hold the numerator/denominator valuation to
these values, their types and their printed forms.

The element-loop lemma checks that the point checks replaced test every
element of a stage up to 16 points, and 2000 seeded ones above.
Differential tests hold the point checks' verdicts to theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Iterable

from dblogic.construction import Stage
from dblogic.probability import (
    ClassicalProbability, LemmaReport, RationalValuation, Weight, ZeroBlockError,
)

_CHUNK = 8
_CHUNK_FULL = (1 << _CHUNK) - 1


@dataclass(frozen=True)
class ReferenceValuation:
    stage: Stage
    weights: tuple[Weight, ...]

    @cached_property
    def _tables(self) -> tuple[tuple[Weight, ...], ...]:
        tables = []
        for k in range(0, len(self.weights), _CHUNK):
            w = self.weights[k:k + _CHUNK]
            t: list[Weight] = [Fraction(0)] * (1 << len(w))
            for b in range(1, len(t)):
                low = b & -b
                t[b] = t[b ^ low] + w[low.bit_length() - 1]
            tables.append(tuple(t))
        return tuple(tables)

    def measure(self, mask: int) -> Weight:
        if not 0 <= mask <= self.stage.full:
            raise ValueError("element does not belong to the valuation's stage")
        out: Weight | None = None
        for table in self._tables:
            if not mask:
                break
            part = mask & _CHUNK_FULL
            if part:
                out = table[part] if out is None else out + table[part]
            mask >>= _CHUNK
        return Fraction(0) if out is None else out


def reference_step(val: ReferenceValuation, next_stage: Stage) -> ReferenceValuation:
    """P'(w,w') = P(w)P(w')/P(block of w'), one point at a time."""
    parent = next_stage.parent
    t = next_stage.transition
    block_of = {}
    for p_mask, g_mask in zip(t.pi, t.gamma):
        for i in range(parent.size):
            if (p_mask >> i) & 1:
                block_of[i] = p_mask
            elif (g_mask >> i) & 1:
                block_of[i] = g_mask
    block_weight = {m: val.measure(m) for m in set(t.pi) | set(t.gamma)}
    weights = []
    for x, y in next_stage.points:
        denom = block_weight[block_of[y]]
        if denom == 0:
            raise ZeroBlockError("a partition block has probability zero")
        weights.append(val.weights[x] * val.weights[y] / denom)
    return ReferenceValuation(next_stage, tuple(weights))


def reference_extension(pi: ClassicalProbability, stage: Stage) -> list[ReferenceValuation]:
    """The valuations of every level of `stage`'s tower, stage 0 first."""
    levels = stage.tower()
    vals = [ReferenceValuation(levels[0], tuple(pi.table[bits] for bits in levels[0].points))]
    for nxt in levels[1:]:
        vals.append(reference_step(vals[-1], nxt))
    return vals


def _elements(size: int, exhaustive_limit: int, samples: int, seed: int) -> Iterable[int]:
    """Every element of a `size`-point stage up to `exhaustive_limit`
    points, else `samples` seeded ones."""
    if size <= exhaustive_limit:
        return range(1 << size)
    rng = Random(seed)
    return (rng.getrandbits(size) for _ in range(samples))


def reference_lemma1(parent_val: RationalValuation, child_val: RationalValuation,
                     exhaustive_limit: int = 16, samples: int = 2000,
                     seed: int = 0) -> LemmaReport:
    """Pushforward equality on every (or every sampled) parent element:
    Nc(mu(m)) Dp == Np(m) Dc, and Nc(full) == Dc."""
    parent = parent_val.stage
    child = child_val.stage
    dp, dc = parent_val.den, child_val.den
    rep = LemmaReport("lemma1", 0, [])
    if not (child_val.numerator(child.full) == dc):
        rep.violations.append("full space does not weigh 1")
    for m in _elements(parent.size, exhaustive_limit, samples, seed):
        if not (child_val.numerator(child.embed(m)) * dp == parent_val.numerator(m) * dc):
            rep.violations.append(f"pushforward differs at {m:#x}")
            break
        rep.checked += 1
    return rep


def reference_lemma2(parent_val: RationalValuation, child_val: RationalValuation,
                     exhaustive_limit: int = 16, samples: int = 2000,
                     seed: int = 0) -> LemmaReport:
    """Block proportionality for every block, and
    P(side & A) == P(side) P(f(A, side)) on every (or every sampled) child
    element A for both sides of the processed element."""
    parent = parent_val.stage
    child = child_val.stage
    t = child.transition
    dp, dc = parent_val.den, child_val.den
    rep = LemmaReport("lemma2", 0, [])
    pb = parent_val.numerator(t.b_mask)
    pnb = parent_val.numerator(parent.complement(t.b_mask))
    for i, (p_mask, g_mask) in enumerate(zip(t.pi, t.gamma)):
        wp = parent_val.numerator(p_mask)
        wg = parent_val.numerator(g_mask)
        if not (pb and pnb):
            rep.violations.append("zero-weight condition side")
            break
        if not ((wp + wg) * pb == wp * dp):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Pi)/P(b)")
            break
        if not ((wp + wg) * pnb == wg * dp):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Gamma)/P(~b)")
            break
        rep.checked += 1
    mu_b = child.embed(t.b_mask)
    sides = [(side, child_val.numerator(side)) for side in (mu_b, child.complement(mu_b))]
    for a in _elements(child.size, exhaustive_limit, samples, seed):
        for side, n_side in sides:
            fa = child.apply_f(a, side)
            if not (child_val.numerator(side & a) * dc == n_side * child_val.numerator(fa)):
                rep.violations.append(f"conditioning not multiplicative at A={a:#x}")
                return rep
        rep.checked += 1
    return rep
