"""Test-only reference: the per-point staged extension that
`RationalValuation` replaced, with every weight a Fraction or a normalized
RatFunc.

Each weight of an advance is P(x) P(y) / P(block of y), computed in Fraction
or RatFunc arithmetic, and `measure` joins per-8-point subset-sum tables of
weights, so every sum is normalized.  Differential tests hold the
numerator/denominator valuation to these values, their types and their
printed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from dblogic.construction import Stage
from dblogic.probability import ClassicalProbability, Weight, ZeroBlockError

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
    for point in next_stage.atoms:
        x = parent.atom_index[point.first]
        y = parent.atom_index[point.second]
        denom = block_weight[block_of[y]]
        if denom == 0:
            raise ZeroBlockError("a partition block has probability zero")
        weights.append(val.weights[x] * val.weights[y] / denom)
    return ReferenceValuation(next_stage, tuple(weights))


def reference_extension(pi: ClassicalProbability, stage: Stage) -> list[ReferenceValuation]:
    """The valuations of every level of `stage`'s tower, stage 0 first."""
    levels: list[Stage] = []
    s: Stage | None = stage
    while s is not None:
        levels.append(s)
        s = s.parent
    levels.reverse()
    vals = [ReferenceValuation(levels[0], tuple(pi.table[a.bits] for a in levels[0].atoms))]
    for nxt in levels[1:]:
        vals.append(reference_step(vals[-1], nxt))
    return vals
