"""Conditional-model abstraction: partially defined conditional operators on
finite powerset algebras, homomorphic assignments, the beta laws and
semantic entailment.

A model is a powerset algebra over an ordered atom list (elements are int
bitmasks) plus a partial binary operator f.  Undefinedness is a value, not an
error: the free model defines f progressively, so evaluation reports the
offending condition element and entailment counts skipped assignments instead
of guessing.

Formula values come from the one bit-parallel evaluator, `syntax.evaluate`,
which `entails` calls directly for each assignment; `ConditionalAssignment`
is its front-end on a model, memoized by node id.  The beta laws are the one
table `construction.BETA_LAWS`, which `check_beta_axioms` runs on any model
and `construction.verify_stage` on each new stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Iterable, Mapping, Sequence

from .construction import CheckReport, Stage, check_beta_laws
from .syntax import Formula, Sequent, atoms as formula_atoms, evaluate

__all__ = [
    "ConditionalModel", "StageModel", "TableModel", "ConditionalAssignment",
    "extend_assignment", "check_beta_axioms",
    "EntailmentResult", "entails", "check_soundness", "SoundnessRow",
]


class ConditionalModel:
    """Finite powerset algebra plus a partial conditional operator."""

    size: int
    full: int

    def f(self, b: int, a: int) -> int | None:
        raise NotImplementedError

    def complement(self, mask: int) -> int:
        return self.full ^ mask

    def known_conditions(self) -> Sequence[int]:
        """Nontrivial condition elements with at least one defined row."""
        raise NotImplementedError

    def defined_rows(self, cond: int) -> Sequence[int] | None:
        """Elements B for which f(B, cond) may be defined; None when that set
        is too large to enumerate."""
        raise NotImplementedError


class StageModel(ConditionalModel):
    """Adapter over one constructed stage."""

    def __init__(self, stage: Stage):
        self.stage = stage
        self.size = stage.size
        self.full = stage.full

    def f(self, b: int, a: int) -> int | None:
        return self.stage.apply_f(b, a)

    def known_conditions(self) -> Sequence[int]:
        return self.stage.defined_conditions()

    def defined_rows(self, cond: int) -> Sequence[int] | None:
        found = self.stage.chain_for(cond)
        if found is None:
            return []
        return self.stage.embeddable_elements(found[0].processed_at)


class TableModel(ConditionalModel):
    """Explicit (possibly tampered) operator table for small algebras.

    Rows on trivial conditions follow f(B, empty) = f(B, full) = B unless the
    table overrides them.
    """

    def __init__(self, n_atoms: int, table: Mapping[tuple[int, int], int]):
        self.size = n_atoms
        self.full = (1 << n_atoms) - 1
        self.table = dict(table)

    @classmethod
    def from_model(cls, m: ConditionalModel) -> "TableModel":
        if m.size > 12:
            raise ValueError("model too large to tabulate")
        table = {}
        for a in range(1 << m.size):
            for b in range(1 << m.size):
                v = m.f(b, a)
                if v is not None:
                    table[(b, a)] = v
        return cls(m.size, table)

    def f(self, b: int, a: int) -> int | None:
        if (b, a) in self.table:
            return self.table[(b, a)]
        if a == 0 or a == self.full:
            return b
        return None

    def known_conditions(self) -> Sequence[int]:
        return sorted({a for (_, a) in self.table if a not in (0, self.full)})

    def defined_rows(self, cond: int) -> Sequence[int] | None:
        return sorted({b for (b, a) in self.table if a == cond})

    def override(self, b: int, a: int, value: int) -> "TableModel":
        table = dict(self.table)
        table[(b, a)] = value
        return TableModel(self.size, table)


# ---------------------------------------------------------------------------
# Assignments and evaluation
# ---------------------------------------------------------------------------

class ConditionalAssignment:
    """Unique homomorphic extension of an atom map, memoized by node id (the
    entry keeps its node, so the id is not reused; nothing is hashed)."""

    def __init__(self, model: ConditionalModel, atom_map: Mapping[str, int]):
        self.model = model
        self.atom_map = dict(atom_map)
        self._memo: dict[int, tuple[Formula, int | None, int | None]] = {}

    def value(self, f: Formula) -> int | None:
        """Homomorphic value, or None when some required f row is missing."""
        hit = self._memo.get(id(f))
        if hit is None:
            hit = self._memo[id(f)] = (f, *evaluate(f, self.atom_map, self.model.full,
                                                    self.model.f))
        return hit[1]

    def blocking_condition(self, f: Formula) -> int | None:
        """The innermost condition element whose f row was missing."""
        self.value(f)
        return self._memo[id(f)][2]


def extend_assignment(model: ConditionalModel, atom_map: Mapping[str, int]) -> ConditionalAssignment:
    return ConditionalAssignment(model, atom_map)


# ---------------------------------------------------------------------------
# Axiom verification on models
# ---------------------------------------------------------------------------

def check_beta_axioms(m: ConditionalModel) -> CheckReport:
    """Per-law pass/skip counts with first counterexamples.

    Conditions range over the rows f actually defines plus the trivial ones,
    and elements over every defined row; the generators of each condition's
    rows, on which `check_beta_laws` checks the pair laws, are its minimal
    nonzero rows.  Models over 12 points, whose rows are not enumerated,
    raise ValueError.  The full symmetry law beta5 is an extra, reported but
    never required.
    """
    if m.size > 12:
        raise ValueError("model too large to enumerate its rows")

    def pools(cond: int) -> tuple[list[int], list[int]]:
        rows = m.defined_rows(cond)
        rows = list(range(1 << m.size) if rows is None else rows)
        gens: list[int] = []
        for x in sorted(rows, key=int.bit_count):
            if x and all(g & ~x for g in gens):
                gens.append(x)
        return rows, gens

    rep = CheckReport()
    check_beta_laws(m.f, m.full, list(m.known_conditions()) + [0, m.full], pools, rep)
    return rep


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

    def is_sound(self) -> bool:
        return self.verdict != "fails"


def entails(m: ConditionalModel, s: Sequent, samples: int | None = None,
            seed: int = 0) -> EntailmentResult:
    """Truth of a sequent in the model: whenever every antecedent formula
    denotes the full element, some succedent formula must.  Exhaustive over
    all atom assignments when feasible, else seeded sampling; assignments
    whose evaluation is undefined count as skips."""
    names = sorted(set().union(*map(formula_atoms, s.antecedent + s.succedent)))
    exhaustive = samples is None and len(names) * m.size <= 18
    if exhaustive:  # every assignment, the first name varying fastest
        amaps = (dict(zip(names, reversed(vals)))
                 for vals in product(range(1 << m.size), repeat=len(names)))
    else:
        rng = Random(seed)
        amaps = ({n: rng.getrandbits(m.size) for n in names} for _ in range(samples or 1000))

    # Each node is evaluated once per assignment: a repeat decides nothing new,
    # and once the succedent is reached every antecedent node is full.
    full, cond = m.full, m.f
    ante = list({id(g): g for g in s.antecedent}.values())
    ante_ids = {id(g) for g in ante}
    succ = list({id(d): d for d in s.succedent}.values())

    def holds_at(amap: dict[str, int]) -> bool | None:
        """Whether the sequent holds under `amap`; None when undefined."""
        for g in ante:
            v = evaluate(g, amap, full, cond)[0]
            if v != full:
                return None if v is None else True
        undefined = False
        for d in succ:
            v = full if id(d) in ante_ids else evaluate(d, amap, full, cond)[0]
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


@dataclass
class SoundnessRow:
    label: str
    result: EntailmentResult


def check_soundness(m: ConditionalModel, sequents: Iterable[tuple[str, Sequent]],
                    samples: int | None = None, seed: int = 0) -> list[SoundnessRow]:
    """Entailment sweep over proof-checked sequents; any failure is a
    soundness violation for the caller to treat as fatal."""
    return [SoundnessRow(label, entails(m, s, samples=samples, seed=seed))
            for label, s in sequents]
