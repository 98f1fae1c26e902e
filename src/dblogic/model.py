"""Semantic evaluation on a stage: homomorphic assignments and entailment.

The one model is a stage of the free construction (`construction.Stage`): a
powerset algebra over its points (elements are int bitmasks) plus the
partial conditional operator `Stage.apply_f`.  Undefinedness is a value, not
an error: the free model defines f progressively, so evaluation reports the
offending condition element and entailment counts skipped assignments
instead of guessing.

Formula values come from the one bit-parallel evaluator, `syntax.evaluate`,
which `entails` calls directly for each assignment; `ConditionalAssignment`
is its front-end on a stage, memoized by formula.  The laws of f are checked
on each stage by `construction.verify_stage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Mapping

from .construction import Stage
from .syntax import Formula, Sequent, atoms as formula_atoms, evaluate

__all__ = ["ConditionalAssignment", "EntailmentResult", "entails"]


# ---------------------------------------------------------------------------
# Assignments and evaluation
# ---------------------------------------------------------------------------

class ConditionalAssignment:
    """Unique homomorphic extension of an atom map, memoized by formula."""

    def __init__(self, stage: Stage, atom_map: Mapping[str, int]):
        self.stage = stage
        self.atom_map = dict(atom_map)
        self._memo: dict[Formula, tuple[int | None, int | None]] = {}

    def value(self, f: Formula) -> int | None:
        """Homomorphic value, or None when some required f row is missing."""
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = evaluate(f, self.atom_map, self.stage.full,
                                           self.stage.apply_f)
        return hit[0]

    def blocking_condition(self, f: Formula) -> int | None:
        """The innermost condition element whose f row was missing."""
        self.value(f)
        return self._memo[f][1]


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

@dataclass
class EntailmentResult:
    verdict: str                      # "holds" | "fails" | "undecided"
    checked: int
    skipped: int
    witness: dict[str, int] | None
    seed: int | None = None


def entails(stage: Stage, s: Sequent, samples: int | None = None,
            seed: int = 0) -> EntailmentResult:
    """Truth of a sequent on the stage: whenever every antecedent formula
    denotes the full element, some succedent formula must.  Exhaustive over
    all atom assignments when feasible, else seeded sampling of `samples`
    (at least 1) assignments; undefined assignments count as skips."""
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = sorted(set().union(*map(formula_atoms, s.antecedent + s.succedent)))
    exhaustive = samples is None and len(names) * stage.size <= 18
    if exhaustive:  # every assignment, the first name varying fastest
        amaps = (dict(zip(names, reversed(vals)))
                 for vals in product(range(1 << stage.size), repeat=len(names)))
    else:
        rng = Random(seed)
        amaps = ({n: rng.getrandbits(stage.size) for n in names} for _ in range(samples or 1000))

    # Each node is evaluated once per assignment: a repeat decides nothing new,
    # and once the succedent is reached every antecedent node is full.
    full, cond = stage.full, stage.apply_f
    ante = dict.fromkeys(s.antecedent)
    succ = dict.fromkeys(s.succedent)

    def holds_at(amap: dict[str, int]) -> bool | None:
        """Whether the sequent holds under `amap`; None when undefined."""
        for g in ante:
            v = evaluate(g, amap, full, cond)[0]
            if v != full:
                return None if v is None else True
        undefined = False
        for d in succ:
            v = full if d in ante else evaluate(d, amap, full, cond)[0]
            if v == full:
                return True
            undefined = undefined or v is None
        return None if undefined else False

    skipped = checked = 0
    for amap in amaps:
        holds = holds_at(amap)
        if holds is None:
            skipped += 1
        elif holds:
            checked += 1
        else:
            return EntailmentResult("fails", checked, skipped, amap,
                                    None if exhaustive else seed)
    return EntailmentResult("undecided" if skipped else "holds", checked, skipped,
                            None, None if exhaustive else seed)

