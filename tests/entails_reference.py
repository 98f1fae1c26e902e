"""Test-only reference: the entailment check that `model.entails` replaced,
deciding one assignment after the other with one `syntax.evaluate` call per
formula.

A differential test holds `model.entails` to it field by field: verdict,
counts, witness and seed.
"""

from __future__ import annotations

from itertools import product
from random import Random

from dblogic.construction import Stage
from dblogic.model import EntailmentResult
from dblogic.syntax import Sequent, atoms as formula_atoms, evaluate


def entails(stage: Stage, s: Sequent, samples: int | None = None,
            seed: int = 0) -> EntailmentResult:
    """Exhaustive over all atom assignments when names x points <= 18, the
    first name varying fastest, else `samples` (default 1 000) assignments
    drawn by `Random(seed)`; the first failing assignment is the witness.
    A sampled run with no failing assignment is undecided."""
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
    return EntailmentResult("undecided" if skipped or not exhaustive else "holds", checked, skipped,
                            None, None if exhaustive else seed)
